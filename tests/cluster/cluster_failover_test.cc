// Failover timing properties (ISSUE satellite): on lossless fixed-delay links
// the rank ladder is EXACT — kill the owner and the rank-1 survivor pops at
// deadline + failover_delay on the nose; kill ranks 0 and 1 and rank 2 pops at
// deadline + 2 * failover_delay. And in every case, faulted or not, no fire
// ever pops before the original deadline.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/cluster_oracle.h"
#include "src/cluster/fault_schedule.h"

namespace twheel::cluster {
namespace {

constexpr Duration kFailover = 12;
constexpr Duration kLinkDelay = 2;
constexpr Duration kInterval = 40;  // deadline, with the Set at tick 0

ClusterConfig LosslessConfig(std::uint64_t seed) {
  ClusterConfig config;
  config.nodes = 5;
  config.replication_factor = 3;
  config.failover_delay = kFailover;
  config.seed = seed;
  config.link.loss_probability = 0.0;
  config.link.delay_lo = kLinkDelay;
  config.link.delay_hi = kLinkDelay;
  return config;
}

// The replica placement is a pure function of (key, R, nodes, seed), so a
// throwaway cluster answers rank questions before the real one is built with
// its kill schedule.
ReplicaSet RanksFor(const ClusterConfig& config, std::uint64_t key) {
  TimerCluster probe(config);
  return probe.ReplicaSetFor(key, config.replication_factor);
}

struct Fired {
  std::vector<Tick> pops;
  std::vector<Tick> deliveries;
};

Fired RunWithKills(const ClusterConfig& config, std::uint64_t key,
                   const std::vector<FaultEvent>& kills) {
  FaultSchedule schedule;
  schedule.events = kills;
  TimerCluster cluster(config, schedule);
  Fired fired;
  cluster.set_fire_callback(
      [&fired, &cluster](std::uint64_t, std::uint32_t, Tick pop) {
        fired.pops.push_back(pop);
        fired.deliveries.push_back(cluster.now());
      });
  EXPECT_TRUE(cluster.Set(key, kInterval));
  cluster.Drain(2000);
  EXPECT_TRUE(cluster.quiesced());

  ClusterOracle oracle(config, schedule);
  const OracleReport report = oracle.Check(cluster.events(), cluster.stats());
  EXPECT_TRUE(report.ok) << report.violation;
  return fired;
}

TEST(ClusterFailoverTest, UnfaultedOwnerPopsAtTheDeadline) {
  const ClusterConfig config = LosslessConfig(7);
  const Fired fired = RunWithKills(config, 1, {});
  ASSERT_EQ(fired.pops.size(), 1u);
  EXPECT_EQ(fired.pops[0], kInterval);
  EXPECT_EQ(fired.deliveries[0], kInterval + kLinkDelay);
}

TEST(ClusterFailoverTest, KilledOwnerFailsOverAfterExactlyOneDelay) {
  const ClusterConfig config = LosslessConfig(7);
  const ReplicaSet ranks = RanksFor(config, 1);
  const Fired fired =
      RunWithKills(config, 1, {{20, FaultKind::kKill, ranks[0]}});
  ASSERT_EQ(fired.pops.size(), 1u) << "exactly one survivor delivery";
  EXPECT_EQ(fired.pops[0], kInterval + kFailover);
  EXPECT_EQ(fired.deliveries[0], kInterval + kFailover + kLinkDelay);
}

TEST(ClusterFailoverTest, TwoKillsDescendTheLadderTwice) {
  const ClusterConfig config = LosslessConfig(7);
  const ReplicaSet ranks = RanksFor(config, 1);
  const Fired fired = RunWithKills(config, 1,
                                   {{15, FaultKind::kKill, ranks[0]},
                                    {22, FaultKind::kKill, ranks[1]}});
  ASSERT_EQ(fired.pops.size(), 1u);
  EXPECT_EQ(fired.pops[0], kInterval + 2 * kFailover);
}

TEST(ClusterFailoverTest, TakeoverIsNeverEarlyAndAlwaysWithinOneDelay) {
  // Property sweep: any single owner-kill strictly before the deadline (but
  // after the arms landed) yields exactly one pop at deadline + failover —
  // never before the original deadline, never later than the ladder step.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const ClusterConfig config = LosslessConfig(seed);
    const std::uint64_t key = 100 + seed;
    const ReplicaSet ranks = RanksFor(config, key);
    const Tick kill_at = 3 + (seed * 5) % (kInterval - 4);
    const Fired fired =
        RunWithKills(config, key, {{kill_at, FaultKind::kKill, ranks[0]}});
    ASSERT_EQ(fired.pops.size(), 1u) << "seed " << seed;
    EXPECT_GE(fired.pops[0], kInterval)
        << "seed " << seed << ": fired before the original deadline";
    EXPECT_EQ(fired.pops[0], kInterval + kFailover) << "seed " << seed;
  }
}

TEST(ClusterFailoverTest, StandbyLeasesAreReapedWithoutDuplicates) {
  // After the rank-1 takeover delivers, the coordinator's disarm must reap the
  // rank-2 lease before it pops: one delivery, zero duplicate receipts, and a
  // lease_disarms count showing the reap actually happened.
  const ClusterConfig config = LosslessConfig(7);
  const ReplicaSet ranks = RanksFor(config, 1);
  FaultSchedule schedule;
  schedule.events = {{20, FaultKind::kKill, ranks[0]}};
  TimerCluster cluster(config, schedule);
  std::size_t fires = 0;
  cluster.set_fire_callback(
      [&fires](std::uint64_t, std::uint32_t, Tick) { ++fires; });
  ASSERT_TRUE(cluster.Set(1, kInterval));
  cluster.Drain(2000);
  ASSERT_TRUE(cluster.quiesced());
  EXPECT_EQ(fires, 1u);
  EXPECT_EQ(cluster.stats().delivered, 1u);
  EXPECT_EQ(cluster.stats().duplicate_suppressed, 0u);
  EXPECT_EQ(cluster.stats().lease_disarms, 1u)
      << "the rank-2 standby lease was never reaped";
}

}  // namespace
}  // namespace twheel::cluster
