// Seed determinism (ISSUE satellite): the cluster is a pure function of
// (seed, schedule, workload script).
//
//   * Twin test: two runs with identical seed, fault schedule, and scripted
//     client workload produce BYTE-IDENTICAL client event traces, stats
//     blocks, and channel drop counts — full lossy links and faults included.
//     Channel fates are content-hashed (net::Channel), faults apply at a fixed
//     Step phase, and all receiver logic commutes within a tick, so there is
//     no hidden iteration-order or allocator dependence to diverge on.
//
//   * Pinned trajectory test: fixed-seed lossy runs (no faults, then each
//     fault schedule shape) must reproduce a recorded digest of the client
//     event trace and the key ClusterStats counters. The twin test only
//     proves a run equals itself; the pins prove a change to the protocol's
//     containers or records left its message order and timing untouched.
//
//   * Lockstep cross-scheme test: the same seed + schedule + script run over
//     EVERY wheel scheme in the registry yields the same canonical fire trace
//     — identical (tick, key, gen, deadline) multisets — because the protocol
//     never depends on how a host orders same-tick pops. Links are fixed-delay
//     lossless here: with probabilistic fates, packet sequence numbers (which
//     DO depend on intra-tick pop order) would legitimately perturb timing
//     across schemes; determinism within one scheme is the twin test's job.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/cluster_oracle.h"
#include "src/cluster/fault_schedule.h"
#include "src/rng/rng.h"

namespace twheel::cluster {
namespace {

// Open-loop scripted workload: every op is decided by the rng alone (never by
// cluster responses), so the identical script can drive any configuration.
// Cancels and restarts may miss — deterministically.
void DriveScripted(TimerCluster& cluster, std::uint64_t seed, Tick horizon) {
  rng::Xoshiro256 rng(seed ^ 0x5C21A7EDULL);
  std::uint64_t next_key = 0;
  for (Tick t = 0; t < horizon; ++t) {
    if (rng.NextBool(0.55)) {
      (void)cluster.Set(next_key++, 1 + rng.NextBounded(40));
    }
    if (next_key != 0 && rng.NextBool(0.15)) {
      (void)cluster.Restart(rng.NextBounded(next_key),
                            1 + rng.NextBounded(40));
    }
    if (next_key != 0 && rng.NextBool(0.12)) {
      (void)cluster.Cancel(rng.NextBounded(next_key));
    }
    cluster.Step();
  }
  cluster.Drain(20000);
}

TEST(ClusterDeterminismTest, TwinLossyFaultedRunsAreByteIdentical) {
  for (ScheduleKind kind : kAllScheduleKinds) {
    ScheduleParams params;
    params.nodes = 5;
    params.replication_factor = 3;
    params.horizon = 150;
    params.seed = 42;
    const FaultSchedule schedule = MakeFaultSchedule(kind, params);

    ClusterConfig config;  // default lossy links
    config.nodes = params.nodes;
    config.replication_factor = params.replication_factor;
    config.seed = 42;
    auto run = [&](std::vector<ClientEvent>* events, ClusterStats* stats,
                   std::uint64_t* drops, Tick* end) {
      TimerCluster cluster(config, schedule);
      cluster.set_fire_callback([](std::uint64_t, std::uint32_t, Tick) {});
      DriveScripted(cluster, 42, params.horizon);
      ASSERT_TRUE(cluster.quiesced())
          << ScheduleKindName(kind) << ": twin run failed to quiesce";
      *events = cluster.events();
      *stats = cluster.stats();
      *drops = cluster.link_drops();
      *end = cluster.now();
    };
    std::vector<ClientEvent> events_a, events_b;
    ClusterStats stats_a, stats_b;
    std::uint64_t drops_a = 0, drops_b = 0;
    Tick end_a = 0, end_b = 0;
    run(&events_a, &stats_a, &drops_a, &end_a);
    run(&events_b, &stats_b, &drops_b, &end_b);
    EXPECT_EQ(events_a, events_b)
        << ScheduleKindName(kind) << ": event traces diverge";
    EXPECT_EQ(stats_a, stats_b) << ScheduleKindName(kind);
    EXPECT_EQ(drops_a, drops_b) << ScheduleKindName(kind);
    EXPECT_EQ(end_a, end_b) << ScheduleKindName(kind);
    EXPECT_GT(drops_a, 0u)
        << ScheduleKindName(kind) << ": lossy links never dropped — vacuous";
  }
}

// FNV-1a over every field of every event, in trace order.
std::uint64_t EventDigest(const std::vector<ClientEvent>& events) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const ClientEvent& e : events) {
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.key);
    mix(e.gen);
    mix(e.at);
    mix(e.deadline);
  }
  return h;
}

// One pinned run. The expected values were recorded with the coordinator and
// replica tables as std::unordered_map and the retry queues as std::multimap.
struct Trajectory {
  std::optional<ScheduleKind> faults;  // nullopt: no faults
  std::uint64_t seed;
  std::uint64_t digest;
  std::size_t events;
  std::uint64_t delivered;
  std::uint64_t duplicate_suppressed;
  std::uint64_t arm_sends;
  std::uint64_t arm_retries;
  std::uint64_t disarm_sends;
  std::uint64_t rearms_on_node_up;
  std::uint64_t pops;
  std::uint64_t notify_retries;
  std::uint64_t lease_extensions;
  std::uint64_t link_drops;
  Tick end;
};

constexpr Trajectory kPinnedTrajectories[] = {
    // faults, seed, digest, events, delivered, duplicate_suppressed,
    // arm_sends, arm_retries, disarm_sends, rearms_on_node_up, pops,
    // notify_retries, lease_extensions, link_drops, end
    {std::nullopt, 31, 0x4cccfb7c61cdeca0, 478, 218, 378, 1757, 1007, 1204, 0,
     301, 325, 401, 160, 464},
    {ScheduleKind::kKills, 32, 0x78fe7de261723e15, 453, 210, 317, 2049, 1356,
     1562, 0, 250, 306, 253, 144, 472},
    {ScheduleKind::kRestarts, 33, 0x0ef446d668d5d4df, 488, 224, 369, 1973,
     1102, 1363, 115, 301, 318, 324, 159, 467},
    {ScheduleKind::kPartitions, 34, 0x133a78e7aab8fb31, 430, 194, 383, 1699,
     1030, 1220, 0, 307, 478, 288, 137, 453},
    {ScheduleKind::kDrops, 35, 0x7e7db18bf33b162e, 465, 220, 386, 1876, 1153,
     1315, 0, 317, 409, 383, 143, 464},
};

TEST(ClusterDeterminismTest, PinnedTrajectoriesOnLossyLinks) {
  for (const Trajectory& pin : kPinnedTrajectories) {
    ScheduleParams params;
    params.nodes = 5;
    params.replication_factor = 3;
    params.horizon = 400;
    params.seed = pin.seed;
    const FaultSchedule schedule = pin.faults.has_value()
                                       ? MakeFaultSchedule(*pin.faults, params)
                                       : FaultSchedule{};
    ClusterConfig config;
    config.nodes = params.nodes;
    config.replication_factor = params.replication_factor;
    config.seed = pin.seed;
    config.link.loss_probability = 0.02;
    TimerCluster cluster(config, schedule);
    cluster.set_fire_callback([](std::uint64_t, std::uint32_t, Tick) {});
    DriveScripted(cluster, pin.seed, params.horizon);
    ASSERT_TRUE(cluster.quiesced());

    const ClusterStats& s = cluster.stats();
    const Trajectory got = {pin.faults,
                            pin.seed,
                            EventDigest(cluster.events()),
                            cluster.events().size(),
                            s.delivered,
                            s.duplicate_suppressed,
                            s.arm_sends,
                            s.arm_retries,
                            s.disarm_sends,
                            s.rearms_on_node_up,
                            s.pops,
                            s.notify_retries,
                            s.lease_extensions,
                            cluster.link_drops(),
                            cluster.now()};
    const char* name =
        pin.faults.has_value() ? ScheduleKindName(*pin.faults) : "none";
    SCOPED_TRACE(testing::Message()
                 << name << " seed " << pin.seed << " got {digest 0x"
                 << std::hex << got.digest << std::dec << ", " << got.events
                 << ", " << got.delivered << ", " << got.duplicate_suppressed
                 << ", " << got.arm_sends << ", " << got.arm_retries << ", "
                 << got.disarm_sends << ", " << got.rearms_on_node_up << ", "
                 << got.pops << ", " << got.notify_retries << ", "
                 << got.lease_extensions << ", " << got.link_drops << ", "
                 << got.end << "}");
    EXPECT_EQ(got.digest, pin.digest);
    EXPECT_EQ(got.events, pin.events);
    EXPECT_EQ(got.delivered, pin.delivered);
    EXPECT_EQ(got.duplicate_suppressed, pin.duplicate_suppressed);
    EXPECT_EQ(got.arm_sends, pin.arm_sends);
    EXPECT_EQ(got.arm_retries, pin.arm_retries);
    EXPECT_EQ(got.disarm_sends, pin.disarm_sends);
    EXPECT_EQ(got.rearms_on_node_up, pin.rearms_on_node_up);
    EXPECT_EQ(got.pops, pin.pops);
    EXPECT_EQ(got.notify_retries, pin.notify_retries);
    EXPECT_EQ(got.lease_extensions, pin.lease_extensions);
    EXPECT_EQ(got.link_drops, pin.link_drops);
    EXPECT_EQ(got.end, pin.end);
  }
}

// Canonical form: events sorted by (tick, key, gen, kind, payload). Intra-tick
// delivery order is the ONLY thing allowed to vary across host schemes.
std::vector<ClientEvent> Canonicalize(std::vector<ClientEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const ClientEvent& a, const ClientEvent& b) {
                     return std::tuple(a.at, a.key, a.gen,
                                       static_cast<int>(a.kind), a.deadline) <
                            std::tuple(b.at, b.key, b.gen,
                                       static_cast<int>(b.kind), b.deadline);
                   });
  return events;
}

TEST(ClusterDeterminismTest, AllSchemesProduceTheSameCanonicalTrace) {
  ScheduleParams params;
  params.nodes = 5;
  params.replication_factor = 3;
  params.horizon = 150;
  params.seed = 7;
  const FaultSchedule schedule =
      MakeFaultSchedule(ScheduleKind::kRestarts, params);

  std::vector<ClientEvent> reference;
  SchemeId reference_scheme = SchemeId::kScheme1Unordered;
  bool first = true;
  for (SchemeId scheme : kAllSchemes) {
    ClusterConfig config;
    config.nodes = params.nodes;
    config.replication_factor = params.replication_factor;
    config.seed = 7;
    config.link.loss_probability = 0.0;  // fixed fates across schemes
    config.link.delay_lo = 2;
    config.link.delay_hi = 2;
    // Bounded-range wheels must span the largest arm: interval + rank ladder
    // + lease extensions + catch-up after an outage.
    config.node_scheme.scheme = scheme;
    config.node_scheme.wheel_size = 512;
    TimerCluster cluster(config, schedule);
    cluster.set_fire_callback([](std::uint64_t, std::uint32_t, Tick) {});
    DriveScripted(cluster, 7, params.horizon);
    ASSERT_TRUE(cluster.quiesced())
        << SchemeName(scheme) << " failed to quiesce";
    ASSERT_EQ(cluster.stats().arm_rejects, 0u)
        << SchemeName(scheme) << " rejected arms: span misconfigured";

    ClusterOracle oracle(config, schedule);
    const OracleReport report =
        oracle.Check(cluster.events(), cluster.stats());
    ASSERT_TRUE(report.ok) << SchemeName(scheme) << ": " << report.violation;

    std::vector<ClientEvent> canonical = Canonicalize(cluster.events());
    if (first) {
      reference = std::move(canonical);
      reference_scheme = scheme;
      first = false;
      ASSERT_FALSE(reference.empty());
      continue;
    }
    EXPECT_EQ(canonical, reference)
        << SchemeName(scheme) << " diverges from "
        << SchemeName(reference_scheme);
  }
}

}  // namespace
}  // namespace twheel::cluster
