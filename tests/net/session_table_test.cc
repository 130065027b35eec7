// twheel::FlatTable, the open-addressing table shared by the timer server and
// the replicated cluster. Through the server's net::SessionTable: probe chains
// that wrap past the end of the slot array, backward-shift erase, growth at
// 7/8 load, the extreme cookies, and a randomized differential against
// std::unordered_map. Through the cluster's ReplicaTable and CoordinatorTable:
// the records' own occupancy tests, Clear() and ForEach().

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/net/timer_server.h"
#include "src/rng/rng.h"

namespace twheel::net {
namespace {

Registration Reg(std::uint32_t slot, std::uint64_t remaining = 1) {
  return Registration{TimerHandle{slot, slot + 1}, remaining};
}

// The first `n` keys from 1 up whose probe chain starts at `home` in `table`.
std::vector<RequestId> KeysHomedAt(const SessionTable& table, std::size_t home,
                                   std::size_t n) {
  std::vector<RequestId> keys;
  for (RequestId k = 1; keys.size() < n; ++k) {
    if (table.HomeSlot(k) == home) {
      keys.push_back(k);
    }
  }
  return keys;
}

TEST(SessionTableTest, EmptyTableFindsNothingNotEvenCookieZero) {
  SessionTable table;
  // Empty slots hold key 0; occupancy comes from the handle, not the key.
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(table.Find(~0ull), nullptr);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), SessionTable::kInitialCapacity);
}

TEST(SessionTableTest, CookieZeroAndAllOnesAreOrdinaryKeys) {
  SessionTable table;
  table.Insert(0, Reg(10, 3));
  table.Insert(~0ull, Reg(20, 0));
  ASSERT_NE(table.Find(0), nullptr);
  ASSERT_NE(table.Find(~0ull), nullptr);
  EXPECT_EQ(table.Find(0)->value.handle.slot, 10u);
  EXPECT_EQ(table.Find(0)->value.remaining, 3u);
  EXPECT_EQ(table.Find(~0ull)->value.handle.slot, 20u);
  EXPECT_EQ(table.Find(~0ull)->value.remaining, 0u);

  table.Erase(table.Find(0));
  EXPECT_EQ(table.Find(0), nullptr);
  ASSERT_NE(table.Find(~0ull), nullptr);
  table.Erase(table.Find(~0ull));
  EXPECT_EQ(table.Find(~0ull), nullptr);
  EXPECT_EQ(table.size(), 0u);
}

TEST(SessionTableTest, ProbeChainWrapsPastTheEndOfTheArray) {
  SessionTable table;
  const std::size_t last = table.capacity() - 1;
  const std::vector<RequestId> keys = KeysHomedAt(table, last, 3);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    table.Insert(keys[i], Reg(static_cast<std::uint32_t>(i)));
  }
  // Linear probing from the last slot continues at slot 0.
  ASSERT_NE(table.Find(keys[0]), nullptr);
  ASSERT_NE(table.Find(keys[1]), nullptr);
  ASSERT_NE(table.Find(keys[2]), nullptr);
  EXPECT_EQ(table.SlotIndex(table.Find(keys[0])), last);
  EXPECT_EQ(table.SlotIndex(table.Find(keys[1])), 0u);
  EXPECT_EQ(table.SlotIndex(table.Find(keys[2])), 1u);
  EXPECT_EQ(table.Find(keys[2])->value.handle.slot, 2u);
}

TEST(SessionTableTest, BackwardShiftEraseInsideAWrappedChain) {
  SessionTable table;
  const std::size_t last = table.capacity() - 1;
  // One cluster that wraps: slots last, 0, 1, 2, 3, then a key sitting at its
  // own home right after the cluster.
  const std::vector<RequestId> at_last = KeysHomedAt(table, last, 3);
  const RequestId at_0 = KeysHomedAt(table, 0, 1)[0];
  const RequestId at_1 = KeysHomedAt(table, 1, 1)[0];
  const RequestId at_4 = KeysHomedAt(table, 4, 1)[0];
  table.Insert(at_last[0], Reg(0));  // slot last
  table.Insert(at_last[1], Reg(1));  // slot 0 (wrapped)
  table.Insert(at_0, Reg(2));        // slot 1, displaced from home 0
  table.Insert(at_last[2], Reg(3));  // slot 2
  table.Insert(at_1, Reg(4));        // slot 3, displaced from home 1
  table.Insert(at_4, Reg(5));        // slot 4, at home
  ASSERT_EQ(table.SlotIndex(table.Find(at_1)), 3u);
  ASSERT_EQ(table.SlotIndex(table.Find(at_4)), 4u);

  // Erase slot 0, the middle of the wrapped chain: each later member whose
  // probe path crosses the hole moves back one slot; the key at home stays.
  table.Erase(table.Find(at_last[1]));
  EXPECT_EQ(table.size(), 5u);
  EXPECT_EQ(table.Find(at_last[1]), nullptr);
  ASSERT_NE(table.Find(at_last[0]), nullptr);
  ASSERT_NE(table.Find(at_0), nullptr);
  ASSERT_NE(table.Find(at_last[2]), nullptr);
  ASSERT_NE(table.Find(at_1), nullptr);
  ASSERT_NE(table.Find(at_4), nullptr);
  EXPECT_EQ(table.SlotIndex(table.Find(at_last[0])), last);
  EXPECT_EQ(table.SlotIndex(table.Find(at_0)), 0u);
  EXPECT_EQ(table.SlotIndex(table.Find(at_last[2])), 1u);
  EXPECT_EQ(table.SlotIndex(table.Find(at_1)), 2u);
  EXPECT_EQ(table.SlotIndex(table.Find(at_4)), 4u);
  EXPECT_EQ(table.Find(at_1)->value.handle.slot, 4u);  // moved with its key

  // Erase the chain's head at the last slot: the wrapped members that probe
  // from there move back across the array's end.
  table.Erase(table.Find(at_last[0]));
  EXPECT_EQ(table.SlotIndex(table.Find(at_last[2])), last);
  EXPECT_EQ(table.SlotIndex(table.Find(at_0)), 0u);
  EXPECT_EQ(table.SlotIndex(table.Find(at_1)), 1u);
  EXPECT_EQ(table.SlotIndex(table.Find(at_4)), 4u);
  EXPECT_EQ(table.size(), 4u);
}

TEST(SessionTableTest, GrowsWhenAnInsertWouldPassSevenEighthsLoad) {
  SessionTable table;
  const std::size_t cap = SessionTable::kInitialCapacity;
  const std::size_t fits = cap * 7 / 8;  // 14 of 16
  RequestId next = 0;
  for (; next < fits; ++next) {
    table.Insert(next, Reg(static_cast<std::uint32_t>(next)));
  }
  EXPECT_EQ(table.capacity(), cap);
  table.Insert(next, Reg(static_cast<std::uint32_t>(next)));
  ++next;
  EXPECT_EQ(table.capacity(), 2 * cap);
  // The next doubling comes at 7/8 of the new capacity.
  for (; next < 2 * fits; ++next) {
    table.Insert(next, Reg(static_cast<std::uint32_t>(next)));
  }
  EXPECT_EQ(table.capacity(), 2 * cap);
  table.Insert(next, Reg(static_cast<std::uint32_t>(next)));
  ++next;
  EXPECT_EQ(table.capacity(), 4 * cap);
  // Rehashing kept every key and its registration.
  EXPECT_EQ(table.size(), next);
  for (RequestId k = 0; k < next; ++k) {
    const SessionTable::Entry* e = table.Find(k);
    ASSERT_NE(e, nullptr) << k;
    EXPECT_EQ(e->value.handle.slot, k);
  }
}

TEST(SessionTableTest, RandomizedDifferentialAgainstUnorderedMap) {
  // Fixed seed. Keys are timer-server cookies from a small population (so
  // operations hit live keys often) plus the two extreme cookies. The first
  // half leans to inserts and the second to erases, so the table grows
  // through several doublings and then drains.
  rng::Xoshiro256 rng(20260419);
  SessionTable table;
  std::unordered_map<RequestId, Registration> model;
  auto random_key = [&]() -> RequestId {
    const std::uint64_t r = rng.NextBounded(4002);
    if (r == 4000) return 0;
    if (r == 4001) return ~0ull;
    return (r % 500) << 32 | (r / 500);  // (session, timer)
  };
  constexpr int kOps = 200000;
  std::size_t max_capacity = 0;
  for (int op = 0; op < kOps; ++op) {
    const RequestId key = random_key();
    const std::uint64_t roll = rng.NextBounded(100);
    const std::uint64_t insert_share = op < kOps / 2 ? 50 : 20;
    SessionTable::Entry* found = table.Find(key);
    auto it = model.find(key);
    ASSERT_EQ(found != nullptr, it != model.end()) << "op " << op;
    if (found != nullptr) {
      ASSERT_EQ(found->key, key);
      ASSERT_EQ(found->value.handle, it->second.handle);
      ASSERT_EQ(found->value.remaining, it->second.remaining);
    }
    if (roll < insert_share) {
      const Registration reg =
          Reg(static_cast<std::uint32_t>(op), rng.NextBounded(4));
      if (found != nullptr) {
        found->value = reg;  // the server's replace-in-place
      } else {
        table.Insert(key, reg);
      }
      model[key] = reg;
    } else if (roll < insert_share + 30) {
      if (found != nullptr) {
        table.Erase(found);
        model.erase(it);
      }
    }  // else: the lookup above was the operation
    ASSERT_EQ(table.size(), model.size()) << "op " << op;
    max_capacity = std::max(max_capacity, table.capacity());
  }
  EXPECT_GE(max_capacity, 4096u) << "the run never grew the table far";
  for (const auto& [key, reg] : model) {
    const SessionTable::Entry* e = table.Find(key);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->value.handle, reg.handle);
  }
}

TEST(SessionTableTest, ClusterReplicaTableMatchesAMapThroughClearAndForEach) {
  // The cluster's replica records: occupancy is the host handle, so gen 0 and
  // key 0 are ordinary. Inserts, in-place replacement, erases and whole-table
  // Clear() (a node kill) against an ordered map; ForEach must visit exactly
  // the live records.
  using cluster::ReplicaLocal;
  using cluster::ReplicaTable;
  rng::Xoshiro256 rng(20261020);
  ReplicaTable table;
  std::map<std::uint64_t, ReplicaLocal> model;
  auto record = [&](std::uint32_t n) {
    ReplicaLocal r;
    r.handle = TimerHandle{n, n + 1};
    r.gen = n % 3;  // includes gen 0
    r.rank = static_cast<std::uint8_t>(n % cluster::kMaxReplication);
    r.popped = (n & 1) != 0;
    r.pop_tick = n;
    return r;
  };
  auto same = [](const ReplicaLocal& a, const ReplicaLocal& b) {
    return a.handle == b.handle && a.gen == b.gen && a.rank == b.rank &&
           a.popped == b.popped && a.pop_tick == b.pop_tick;
  };
  EXPECT_FALSE(ReplicaLocal{}.occupied());
  EXPECT_FALSE(cluster::PendingTimer{}.occupied());
  constexpr int kOps = 50000;
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t key = rng.NextBounded(3000);
    const std::uint64_t roll = rng.NextBounded(1000);
    ReplicaTable::Entry* found = table.Find(key);
    auto it = model.find(key);
    ASSERT_EQ(found != nullptr, it != model.end()) << "op " << op;
    if (found != nullptr) {
      ASSERT_TRUE(same(found->value, it->second)) << "op " << op;
    }
    if (roll == 0) {
      const std::size_t capacity = table.capacity();
      table.Clear();
      model.clear();
      EXPECT_EQ(table.capacity(), capacity);
    } else if (roll < 550) {
      const ReplicaLocal r = record(static_cast<std::uint32_t>(op));
      if (found != nullptr) {
        found->value = r;  // a newer generation replaces in place
      } else {
        ASSERT_EQ(table.Insert(key, r)->key, key);
      }
      model[key] = r;
    } else if (roll < 900 && found != nullptr) {
      table.Erase(found);
      model.erase(it);
    }
    ASSERT_EQ(table.size(), model.size()) << "op " << op;
  }
  ASSERT_GT(model.size(), 100u);
  std::map<std::uint64_t, ReplicaLocal> visited;
  table.ForEach([&](std::uint64_t key, ReplicaLocal& r) {
    EXPECT_TRUE(visited.emplace(key, r).second) << "visited twice: " << key;
  });
  ASSERT_EQ(visited.size(), model.size());
  for (const auto& [key, r] : model) {
    ASSERT_TRUE(visited.count(key)) << key;
    EXPECT_TRUE(same(visited[key], r)) << key;
  }
}

}  // namespace
}  // namespace twheel::net
