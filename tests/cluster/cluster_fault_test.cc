// The fault matrix (ISSUE acceptance): >= 100 seeded episodes for every
// adversary shape {kills, restarts, partitions, drops} x host scheme
// {heap, hashed wheel, hierarchical wheel}, each verified end-to-end by the
// ClusterOracle — exactly-once within the computed slop, no fire after an
// acknowledged cancel, duplicate-suppression conservation, full quiesce.
//
// Episode count: TWHEEL_CLUSTER_EPISODES overrides when set (scripts/verify.sh
// --quick exports 4); otherwise the floor is 100 per matrix cell in EVERY
// build flavour — the sanitizer configurations run the full matrix too, they
// do not get the torture-suite reduction (TWHEEL_TORTURE_EPISODES only ever
// raises the count here).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/cluster_oracle.h"
#include "src/cluster/fault_schedule.h"
#include "src/rng/rng.h"

namespace twheel::cluster {
namespace {

std::size_t ClusterEpisodes() {
  if (const char* env = std::getenv("TWHEEL_CLUSTER_EPISODES")) {
    const long parsed = std::atol(env);
    if (parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  std::size_t episodes = 100;
  if (const char* env = std::getenv("TWHEEL_TORTURE_EPISODES")) {
    const long parsed = std::atol(env);
    if (parsed > static_cast<long>(episodes)) {
      episodes = static_cast<std::size_t>(parsed);
    }
  }
  return episodes;
}

constexpr SchemeId kHostSchemes[] = {
    SchemeId::kScheme3Heap,
    SchemeId::kScheme6HashedUnsorted,
    SchemeId::kScheme7Hierarchical,
};

void RunEpisode(ScheduleKind kind, SchemeId scheme, std::uint64_t seed) {
  ScheduleParams params;
  params.nodes = 5;
  params.replication_factor = 3;
  params.horizon = 200;
  params.seed = seed;
  const FaultSchedule schedule = MakeFaultSchedule(kind, params);
  std::string why;
  ASSERT_TRUE(ValidateSchedule(schedule, params.nodes,
                               params.replication_factor - 1, &why))
      << ScheduleKindName(kind) << " seed " << seed << ": " << why;

  ClusterConfig config;  // default lossy links: 5% loss, delay 2..10
  config.nodes = params.nodes;
  config.replication_factor = params.replication_factor;
  config.seed = seed;
  config.node_scheme.scheme = scheme;
  TimerCluster cluster(config, schedule);

  // Client-side live set, kept exact: deliveries are synchronous with the
  // coordinator's bookkeeping, so every Restart/Cancel below targets a key the
  // coordinator also believes is live and MUST be acknowledged.
  std::vector<std::uint64_t> live;
  cluster.set_fire_callback(
      [&live](std::uint64_t key, std::uint32_t, Tick) {
        live.erase(std::find(live.begin(), live.end(), key));
      });

  rng::Xoshiro256 rng(seed ^ (0xFA57u + static_cast<std::uint64_t>(kind)));
  std::uint64_t next_key = 0;
  for (Tick t = 0; t < params.horizon; ++t) {
    if (rng.NextBool(0.6)) {
      const std::uint64_t key = next_key++;
      ASSERT_TRUE(cluster.Set(key, 1 + rng.NextBounded(60)));
      live.push_back(key);
    }
    if (!live.empty() && rng.NextBool(0.12)) {
      const std::uint64_t key = live[rng.NextBounded(live.size())];
      ASSERT_TRUE(cluster.Restart(key, 1 + rng.NextBounded(60)))
          << "restart of a client-live key missed";
    }
    if (!live.empty() && rng.NextBool(0.12)) {
      const std::size_t at = rng.NextBounded(live.size());
      ASSERT_TRUE(cluster.Cancel(live[at]))
          << "cancel of a client-live key missed";
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    cluster.Step();
  }
  cluster.Drain(20000);
  ASSERT_TRUE(cluster.quiesced())
      << ScheduleKindName(kind) << "/" << SchemeName(scheme) << " seed "
      << seed << ": failed to quiesce (live " << cluster.live_timers() << ")";
  ASSERT_TRUE(live.empty()) << "client still waiting on " << live.size()
                            << " fires";

  ClusterOracle oracle(config, schedule);
  const OracleReport report = oracle.Check(cluster.events(), cluster.stats());
  ASSERT_TRUE(report.ok) << ScheduleKindName(kind) << "/" << SchemeName(scheme)
                         << " seed " << seed << ": " << report.violation;
  EXPECT_GT(report.fires_checked, 0u) << "episode exercised no fires";
}

void RunMatrixFor(ScheduleKind kind) {
  const std::size_t episodes = ClusterEpisodes();
  for (SchemeId scheme : kHostSchemes) {
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      RunEpisode(kind, scheme, 1000 * static_cast<std::uint64_t>(kind) + ep);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(ClusterFaultTest, KillsMatrix) { RunMatrixFor(ScheduleKind::kKills); }

TEST(ClusterFaultTest, RestartsMatrix) {
  RunMatrixFor(ScheduleKind::kRestarts);
}

TEST(ClusterFaultTest, PartitionsMatrix) {
  RunMatrixFor(ScheduleKind::kPartitions);
}

TEST(ClusterFaultTest, DropsMatrix) { RunMatrixFor(ScheduleKind::kDrops); }

// The suppressors must actually be exercised by the matrix: across a sample
// of episodes, survivor leases pop and get classified as duplicates, and the
// authoritative disarms reap the rest — otherwise the exactly-once evidence
// above is vacuous.
TEST(ClusterFaultTest, AdversariesActuallyProduceDuplicatePops) {
  ClusterStats total;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ScheduleParams params;
    params.nodes = 5;
    params.replication_factor = 3;
    params.horizon = 200;
    params.seed = seed;
    const FaultSchedule schedule =
        MakeFaultSchedule(ScheduleKind::kPartitions, params);
    ClusterConfig config;
    config.nodes = params.nodes;
    config.replication_factor = params.replication_factor;
    config.seed = seed;
    TimerCluster cluster(config, schedule);
    cluster.set_fire_callback([](std::uint64_t, std::uint32_t, Tick) {});
    for (std::uint64_t key = 0; key < 64; ++key) {
      ASSERT_TRUE(cluster.Set(key, 1 + (key * 7) % 120));
    }
    for (Tick t = 0; t < 200; ++t) {
      cluster.Step();
    }
    cluster.Drain(20000);
    ASSERT_TRUE(cluster.quiesced());
    total += cluster.stats();
  }
  EXPECT_GT(total.pops, total.delivered)
      << "no survivor lease ever popped: the failover path went untested";
  EXPECT_GT(total.duplicate_suppressed + total.lease_disarms, 0u);
  EXPECT_GT(total.partition_drops, 0u) << "partitions never gated a packet";
}

}  // namespace
}  // namespace twheel::cluster
