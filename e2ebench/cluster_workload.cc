// cluster_r3: the replicated timer cluster, 3 nodes, R = 3.
//
// 2Ki keys stay live for the whole run: every delivered fire re-Sets its own
// key from the client callback. Each tick the client also restarts kRestarts
// random keys and cancels-then-re-Sets kResets random keys, driving the
// coordinator's restart and disarm paths. Links lose 1% of packets, so the
// arm/notify/disarm retry scans carry real work. net.server is bypassed; the
// channel hops are inside TimerCluster::Step and cannot be timed from outside,
// so they count in cluster.step_self_us.
//
// After the window the client stops re-arming, the cluster drains to
// quiescence, and ClusterOracle::Check judges the whole client trace
// (exactly-once within the slop bound, never early, no fire after an acked
// cancel, receipt conservation). TimerCluster::events() keeps that trace and
// grows with the ticks run. Every instance runs the same ticks, and
// peak_rss_mib is read after the first, so it does not depend on --seconds.

#include "e2ebench/workloads.h"

#include <memory>
#include <optional>
#include <string>

#include "src/cluster/cluster.h"
#include "src/cluster/cluster_oracle.h"
#include "src/rng/rng.h"

namespace e2ebench {
namespace {

using twheel::Duration;
namespace cluster = twheel::cluster;

constexpr std::uint64_t kKeys = 2u << 10;
constexpr std::size_t kRestarts = 2;
constexpr std::size_t kResets = 1;
constexpr Duration kMinInterval = 64;
constexpr Duration kMaxInterval = 576;
// Ticks for the priming arms (and their acks) to cross the links.
constexpr twheel::Tick kWarmupTicks = 32;
constexpr twheel::Tick kDrainLimit = 100000;

cluster::ClusterConfig Config(std::uint64_t seed) {
  cluster::ClusterConfig config;
  config.nodes = 3;
  config.replication_factor = 3;
  config.seed = seed;
  config.link.loss_probability = 0.01;
  config.link.delay_lo = 1;
  config.link.delay_hi = 4;
  config.node_scheme.scheme = twheel::SchemeId::kScheme6HashedUnsorted;
  config.node_scheme.wheel_size = 4096;
  return config;
}

class Cluster final : public Instance {
 public:
  Cluster(std::uint64_t seed, bool traced)
      : traced_(traced),
        config_(Config(seed)),
        rng_(seed),
        cluster_(std::make_unique<cluster::TimerCluster>(config_)) {
    cluster_->set_fire_callback(
        [this](std::uint64_t key, std::uint32_t, twheel::Tick) {
          std::optional<Scope> s;
          if (traced_) {
            s.emplace(Span::kCallback);
          }
          ++fires_;
          if (rearm_) {
            Set(key);
          }
        });
  }

  // Each key starts part-way through a renewal interval, drawn from the
  // steady-state residual-life distribution (a length-biased interval, then a
  // uniform point in it), so the fire rate is steady from the first tick and
  // set-up needs no warm-up over a whole interval.
  void Prime() override {
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      Duration interval = NextInterval();
      while (rng_.NextBounded(kMaxInterval) >= interval) {
        interval = NextInterval();
      }
      Set(key, 1 + static_cast<Duration>(rng_.NextBounded(interval)));
    }
  }

  void Step() override {
    if (!traced_) {
      Generate();
      cluster_->Step();
      return;
    }
    {
      Scope s(Span::kGen);
      Generate();
    }
    Scope s(Span::kClusterStep);
    cluster_->Step();
  }

  Progress progress() const override { return {fires_, ops_}; }

  void BeginWindow() override { begin_ = cluster_->stats(); }

  void LayerMetrics(const TracedWindow& w, Metrics& out) const override {
    (void)w;
    const cluster::ClusterStats& s = cluster_->stats();
    const auto d = [&](std::uint64_t end, std::uint64_t begin) {
      return static_cast<double>(end - begin);
    };
    const double delivered = d(s.delivered, begin_.delivered);
    const double msgs = d(s.arm_sends, begin_.arm_sends) +
                        d(s.disarm_sends, begin_.disarm_sends) +
                        d(s.pops, begin_.pops) +
                        d(s.notify_retries, begin_.notify_retries);
    out.Set("cluster.msgs_per_delivery", msgs / delivered);
    out.Set("cluster.pops_per_delivery", d(s.pops, begin_.pops) / delivered);
    out.Set("cluster.duplicate_ratio",
            d(s.duplicate_suppressed, begin_.duplicate_suppressed) /
                d(s.fire_receipts, begin_.fire_receipts));
    out.Set("cluster.retries_per_delivery",
            (d(s.arm_retries, begin_.arm_retries) +
             d(s.notify_retries, begin_.notify_retries)) /
                delivered);
  }

  void Check(Checks& checks) override {
    checks.Failed(refused_, "cluster refused a Set");
    checks.Failed(misses_, "Restart/Cancel missed a key that is always live");
    rearm_ = false;
    cluster_->Drain(kDrainLimit);
    checks.Expect(cluster_->quiesced(), "cluster did not quiesce");
    checks.Expect(cluster_->stats().delivered == fires_,
                  "coordinator delivered != client callbacks");
    const cluster::OracleReport report =
        cluster::ClusterOracle(config_, {}).Check(cluster_->events(),
                                                  cluster_->stats());
    checks.Expect(report.ok, "cluster oracle: " + report.violation);
  }

 private:
  Duration NextInterval() {
    return kMinInterval +
           static_cast<Duration>(rng_.NextBounded(kMaxInterval - kMinInterval + 1));
  }

  void Set(std::uint64_t key) { Set(key, NextInterval()); }

  void Set(std::uint64_t key, Duration interval) {
    std::optional<Scope> s;
    if (traced_) {
      s.emplace(Span::kClientOp);
    }
    ++ops_;
    refused_ += cluster_->Set(key, interval) ? 0 : 1;
  }

  template <class Op>
  void ClientOp(Op op) {
    std::optional<Scope> s;
    if (traced_) {
      s.emplace(Span::kClientOp);
    }
    ++ops_;
    misses_ += op() ? 0 : 1;
  }

  void Generate() {
    for (std::size_t i = 0; i < kRestarts; ++i) {
      const std::uint64_t key = rng_.NextBounded(kKeys);
      const Duration interval = NextInterval();
      ClientOp([&] { return cluster_->Restart(key, interval); });
    }
    for (std::size_t i = 0; i < kResets; ++i) {
      const std::uint64_t key = rng_.NextBounded(kKeys);
      ClientOp([&] { return cluster_->Cancel(key); });
      Set(key);
    }
  }

  bool traced_;
  cluster::ClusterConfig config_;
  twheel::rng::Xoshiro256 rng_;
  std::unique_ptr<cluster::TimerCluster> cluster_;
  bool rearm_ = true;
  std::uint64_t fires_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t misses_ = 0;
  cluster::ClusterStats begin_;
};

}  // namespace

WorkloadDef ClusterR3() {
  WorkloadDef def;
  def.name = "cluster_r3";
  def.threads = 1;
  def.warmup_ticks = kWarmupTicks;
  def.make = [](std::uint64_t seed, bool traced) {
    return std::make_unique<Cluster>(seed, traced);
  };
  return def;
}

}  // namespace e2ebench
