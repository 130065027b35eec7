// server_churn and server_fanout: the networked timer server end to end.
//
// One simulated tick of either workload is
//   TimerWorkload::Tick        client requests onto the uplink Channel
//   TimerServer::Tick          host PER_TICK_BOOKKEEPING (or the DispatchPool
//                              advance), expiry callbacks onto the downlink
//   network Simulator::Step    packet delivery: uplink bytes through the wire
//                              codec into the server, downlink fires into the
//                              client
// in lockstep, so a tick's load is fixed by the seed whatever the host speed.
// The pipeline is assembled here from public APIs (it mirrors
// net::TimerServerHarness, whose members are private) so that the uplink can
// carry encoded bytes and every layer boundary can be timed from outside.

#include "e2ebench/workloads.h"

#include <memory>
#include <optional>
#include <string>

#include "e2ebench/timing_service.h"
#include "src/concurrent/sharded_wheel.h"
#include "src/core/timer_facility.h"
#include "src/net/channel.h"
#include "src/net/timer_server.h"
#include "src/net/timer_workload.h"
#include "src/net/wire.h"
#include "src/sim/simulator.h"

namespace e2ebench {
namespace {

using twheel::Duration;
using twheel::FacilityConfig;
using twheel::SchemeId;
using twheel::TimerService;
namespace net = twheel::net;
namespace concurrent = twheel::concurrent;

struct ServerSpec {
  std::size_t sessions = 0;
  std::size_t requests_per_tick = 0;
  Duration min_interval = 0;
  Duration max_interval = 0;
  double periodic = 0;
  std::uint64_t repeat_max = 8;
  net::ChannelConfig link;
  // false: single-threaded Scheme 6 host (wheel 4096).
  // true: deferred-submission ShardedWheel driven by a DispatchPool.
  bool pooled = false;
};

constexpr std::size_t kShards = 64;
constexpr std::size_t kShardTable = 256;
// One drainer: with more, a tick's hand-offs between the stepping thread and
// the drainers cost more than they save at this population, and their wake-up
// latency on a shared host swamps the run-to-run spread.
constexpr std::size_t kDrainers = 1;
// The digest gate runs this many ticks.
constexpr twheel::Tick kDigestTicks = 1024;

net::ChannelConfig Links() {
  net::ChannelConfig link;
  link.loss_probability = 0.05;
  link.delay_lo = 2;
  link.delay_hi = 8;
  return link;
}

// The populations fit in the caches. One that spills into memory makes every
// run move with the other tenants' memory traffic on a shared host. Each
// session still acts every sessions / requests_per_tick ticks.
ServerSpec ChurnSpec() {
  ServerSpec spec;
  spec.sessions = 4u << 10;
  spec.requests_per_tick = 64;
  spec.min_interval = 64;
  spec.max_interval = 1024;
  spec.periodic = 0.1;
  spec.link = Links();
  return spec;
}

ServerSpec FanoutSpec() {
  ServerSpec spec;
  spec.sessions = 8u << 10;
  spec.requests_per_tick = 8;
  spec.min_interval = 16;
  spec.max_interval = 128;
  spec.periodic = 0.9;
  spec.repeat_max = 255;  // long-lived heartbeats
  spec.link = Links();
  spec.pooled = true;
  return spec;
}

class ServerPipeline final : public Instance {
 public:
  // `reference` swaps the host for a Scheme 3 heap (the digest gate's
  // independent implementation).
  ServerPipeline(const ServerSpec& spec, std::uint64_t seed, bool reference,
                 bool traced)
      : spec_(spec),
        traced_(traced),
        network_(MakeNetwork(traced)),
        uplink_(network_, seed * 2654435761u + 1, spec.link),
        downlink_(network_, seed * 2654435761u + 2, spec.link),
        server_(MakeHost(reference), downlink_),
        workload_(WorkloadConfig(spec, seed), uplink_) {
    if (sharded_ != nullptr) {
      concurrent::DispatchOptions options;
      options.drainers = kDrainers;
      pool_started_ = server_.StartDispatchPool(options);
    }
    if (traced_) {
      uplink_.set_receiver([this](const net::Packet& p) {
        std::optional<net::Packet> decoded;
        {
          Scope s(Span::kCodec);
          const auto bytes = net::EncodePacket(p);
          decoded = net::DecodePacket(bytes.data(), bytes.size());
        }
        if (!decoded.has_value()) {
          ++codec_rejects_;
          return;
        }
        Scope s(Span::kRequest);
        server_.OnRequest(*decoded);
      });
    } else {
      uplink_.set_receiver([this](const net::Packet& p) {
        const auto bytes = net::EncodePacket(p);
        server_.OnWire(bytes.data(), bytes.size());
      });
    }
    downlink_.set_receiver([this](const net::Packet& p) {
      std::optional<Scope> s;
      if (traced_) {
        s.emplace(Span::kCallback);
      }
      digest_ += Mix(Mix(p.arg0) ^ ((std::uint64_t{p.connection_id} << 32) |
                                    (p.seq & 0xffffffffu)));
      workload_.OnCallback(p);
    });
  }

  void Prime() override {
    workload_.Prime([this](const net::Packet& p) { server_.OnRequest(p); });
  }

  void Step() override {
    if (!traced_) {
      workload_.Tick();
      server_.Tick();
      network_.Step();
      return;
    }
    {
      Scope s(Span::kGen);
      workload_.Tick();
    }
    if (sharded_ != nullptr) {
      Scope s(Span::kPoolTick);
      const std::uint64_t cpu0 = ProcessCpuNs();
      const std::uint64_t wall0 = NowNs();
      server_.Tick();
      pool_wall_ns_ += NowNs() - wall0;
      pool_cpu_ns_ += ProcessCpuNs() - cpu0;
    } else {
      server_.Tick();  // the decorated host times its own tick
    }
    Scope s(Span::kNetStep);
    network_.Step();
  }

  Progress progress() const override {
    const net::TimerServerStats s = server_.stats();
    return {workload_.stats().callbacks,
            s.sets + s.periodic_sets + s.rejected + s.restarts +
                s.restart_misses + s.cancels + s.cancel_misses};
  }

  void BeginWindow() override {
    begin_ = Snapshot();
    pool_cpu_ns_ = 0;
    pool_wall_ns_ = 0;
  }

  void LayerMetrics(const TracedWindow& w, Metrics& out) const override {
    const LinkCounts end = Snapshot();
    const double steps = static_cast<double>(w.steps);
    const double delivered =
        static_cast<double>(end.delivered - begin_.delivered);
    const double sent = static_cast<double>(end.sent - begin_.sent);
    out.Set("net.channel.hop_ns",
            static_cast<double>(w.all.ns(Span::kNetStep) +
                                w.all.ns(Span::kNetSend)) /
                delivered);
    out.Set("net.channel.packets_per_step", delivered / steps);
    out.Set("net.channel.loss_ratio",
            static_cast<double>(end.dropped - begin_.dropped) / sent);
    const double fires =
        static_cast<double>(end.counts.expiries + end.counts.periodic_fires -
                            begin_.counts.expiries -
                            begin_.counts.periodic_fires);
    out.Set("core.expiries_per_step", fires / steps);
    if (sharded_ != nullptr) {
      const double batches = static_cast<double>(
          end.counts.dispatch_batches - begin_.counts.dispatch_batches);
      out.Set("concurrent.cpu_per_wall",
              static_cast<double>(pool_cpu_ns_) /
                  static_cast<double>(pool_wall_ns_));
      out.Set("concurrent.steal_ratio",
              static_cast<double>(end.counts.dispatch_steals -
                                  begin_.counts.dispatch_steals) /
                  batches);
      out.Set("concurrent.fires_per_batch", fires / batches);
    }
  }

  void Check(Checks& checks) override {
    checks.Expect(sharded_ == nullptr || pool_started_,
                  "DispatchPool refused the ShardedWheel host");
    // Deliver what is still in flight so every packet is accounted for.
    for (int i = 0; i < 64 && network_.pending() != 0; ++i) {
      network_.Step();
    }
    checks.Expect(network_.pending() == 0, "network did not flush");
    checks.Expect(uplink_.sent() == uplink_.dropped() + uplink_.delivered(),
                  "uplink: sent != dropped + delivered + in flight");
    checks.Expect(
        downlink_.sent() == downlink_.dropped() + downlink_.delivered(),
        "downlink: sent != dropped + delivered + in flight");
    const net::TimerServerStats s = server_.stats();
    checks.Expect(s.fires_sent == downlink_.sent(),
                  "server fires_sent != downlink sent");
    checks.Expect(workload_.stats().callbacks == downlink_.delivered(),
                  "client callbacks != downlink delivered");
    const TimerService& host = server_.host();
    checks.Expect(server_.registrations() == host.outstanding(),
                  "server registrations != host outstanding");
    const twheel::metrics::OpCounts c = host.counts();
    checks.Expect(c.start_calls ==
                      c.expiries + s.cancels + s.replaced + host.outstanding(),
                  "host starts != expiries + cancels + outstanding");
    checks.Failed(s.rejected, "server rejected requests");
    checks.Failed(s.decode_rejects, "server decode rejects");
    checks.Failed(codec_rejects_, "bench-side decode rejects");
  }

  std::uint64_t digest() const { return digest_; }

 private:
  struct LinkCounts {
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
    std::uint64_t delivered = 0;
    twheel::metrics::OpCounts counts;
  };

  static net::TimerWorkloadConfig WorkloadConfig(const ServerSpec& spec,
                                                 std::uint64_t seed) {
    net::TimerWorkloadConfig config;
    config.num_sessions = spec.sessions;
    config.requests_per_tick = spec.requests_per_tick;
    config.timers_per_session = 2;
    config.min_interval = spec.min_interval;
    config.max_interval = spec.max_interval;
    config.periodic_probability = spec.periodic;
    config.periodic_repeat_max = spec.repeat_max;
    config.restart_probability = 0.3;
    config.cancel_probability = 0.3;
    config.seed = seed;
    return config;
  }

  // Packet propagation runs on its own Scheme 3 heap, as in the library's
  // harness, so the host's op counts stay pure.
  static std::unique_ptr<TimerService> MakeNetwork(bool traced) {
    FacilityConfig config;
    config.scheme = SchemeId::kScheme3Heap;
    auto service = twheel::MakeTimerService(config);
    if (!traced) {
      return service;
    }
    return std::make_unique<TimingService>(std::move(service),
                                           TimingService::Role::kNetwork);
  }

  std::unique_ptr<TimerService> MakeHost(bool reference) {
    FacilityConfig config;
    if (reference) {
      config.scheme = SchemeId::kScheme3Heap;
      return twheel::MakeTimerService(config);
    }
    if (spec_.pooled) {
      concurrent::SubmitOptions submit;
      // Priming enqueues about sessions / kShards commands per shard, and a
      // shard holds about 2 * sessions / kShards live timers; both leave 8x
      // headroom. A full table or ring rejects, which the gate counts.
      submit.ring_capacity = 1024;
      submit.registration_capacity = 2048;
      auto wheel = std::make_unique<concurrent::ShardedWheel>(
          kShards, kShardTable, submit);
      sharded_ = wheel.get();
      return wheel;
    }
    config.scheme = SchemeId::kScheme6HashedUnsorted;
    config.wheel_size = 4096;
    auto host = twheel::MakeTimerService(config);
    if (!traced_) {
      return host;
    }
    return std::make_unique<TimingService>(std::move(host),
                                           TimingService::Role::kHost);
  }

  LinkCounts Snapshot() const {
    return {uplink_.sent() + downlink_.sent(),
            uplink_.dropped() + downlink_.dropped(),
            uplink_.delivered() + downlink_.delivered(),
            server_.host().counts()};
  }

  ServerSpec spec_;
  bool traced_;
  twheel::sim::Simulator network_;
  net::Channel uplink_;
  net::Channel downlink_;
  concurrent::ShardedWheel* sharded_ = nullptr;  // owned by server_
  net::TimerServer server_;
  net::TimerWorkload workload_;
  bool pool_started_ = false;
  std::uint64_t digest_ = 0;
  std::uint64_t codec_rejects_ = 0;
  std::uint64_t pool_cpu_ns_ = 0;
  std::uint64_t pool_wall_ns_ = 0;
  LinkCounts begin_;
};

// The same seed and population, once on the workload's host and once on a
// Scheme 3 heap: the order-insensitive digest of every client callback (tick,
// session, timer) must agree, and both runs must pass the conservation checks.
void DigestCheck(const ServerSpec& spec, std::uint64_t seed, Checks& checks) {
  std::uint64_t digest[2] = {0, 0};
  std::uint64_t callbacks[2] = {0, 0};
  for (int reference = 0; reference < 2; ++reference) {
    ServerPipeline pipeline(spec, seed, reference == 1, /*traced=*/false);
    pipeline.Prime();
    for (twheel::Tick t = 0; t < kDigestTicks; ++t) {
      pipeline.Step();
    }
    pipeline.Check(checks);
    digest[reference] = pipeline.digest();
    callbacks[reference] = pipeline.progress().callbacks;
  }
  checks.Expect(callbacks[0] > 0, "digest run delivered no callbacks");
  checks.Expect(callbacks[0] == callbacks[1] && digest[0] == digest[1],
                "callback digest differs from the Scheme 3 heap reference (" +
                    std::to_string(callbacks[0]) + " vs " +
                    std::to_string(callbacks[1]) + " callbacks)");
}

WorkloadDef ServerWorkload(const std::string& name, const ServerSpec& spec,
                           int threads) {
  WorkloadDef def;
  def.name = name;
  def.threads = threads;
  def.warmup_ticks = 128;
  def.make = [spec](std::uint64_t seed, bool traced) {
    return std::make_unique<ServerPipeline>(spec, seed, /*reference=*/false,
                                            traced);
  };
  def.extra_check = [spec](std::uint64_t seed, Checks& checks) {
    DigestCheck(spec, seed, checks);
  };
  return def;
}

}  // namespace

WorkloadDef ServerChurn() {
  return ServerWorkload("server_churn", ChurnSpec(), 1);
}

WorkloadDef ServerFanout() {
  return ServerWorkload("server_fanout", FanoutSpec(),
                        static_cast<int>(kDrainers) + 1);
}

}  // namespace e2ebench
