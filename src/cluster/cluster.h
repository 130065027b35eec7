// A replicated timer cluster on the simulated transport (ROADMAP item 3).
//
// N ClusterNodes each run a host TimerService (the scheme under test) and are
// connected to a coordinator and to each other by lossy/delaying net::Channels
// sharing ONE network clock. A client timer with replication factor R is
// fanned out to the R nodes of its replica set; each rank-k replica arms its
// HOST scheme for deadline + k*failover_delay — the failover lease IS a timer
// in the scheme under test, the paper's "timers as the substrate for failure
// recovery" made literal. Rank 0 owns the pop; if the failure injector kills
// or partitions it, the rank-1 lease expires one failover_delay later and the
// survivor pops instead, and so on down the ladder.
//
// Identity and exactly-once: every client op on a key bumps a per-key
// generation, and the coordinator is the authority — the first kClusterFire
// receipt for the current generation of a live timer is delivered to the
// client; every other receipt is classified (duplicate / stale generation /
// after acknowledged cancel) and suppressed. At-least-once comes from
// retransmission (arms retried until acked per rank, fire notifies retried
// until acked, node-up announcements retried) plus the fault schedule's
// liveness precondition that at most R-1 nodes are concurrently faulted.
// Together: exactly once at the client, within a slop bound the ClusterOracle
// computes from the configuration and the schedule (cluster_oracle.h).
//
// Suppression is two-layered: the authoritative layer is a coordinator
// kClusterDisarm fanned to survivors once a fire is delivered (retried, so a
// survivor's lease is almost always cancelled before it expires); on top, the
// popping replica broadcasts a best-effort kClusterSuppress hint that makes
// peers EXTEND their lease (an in-place RestartTimer, bounded by
// kMaxLeaseExtensions) rather than cancel it — a lost hint costs at most a
// duplicate pop, never a lost fire, because only the coordinator's disarm can
// remove a survivor's timer.
//
// Determinism: channel fates are pure functions of packet identity and send
// tick (net::Channel), faults are applied at fixed phase order inside Step(),
// and all receiver logic commutes within a tick — so two runs with the same
// seed and schedule are byte-identical, and runs differing only in the host
// scheme produce the same client-visible trace up to intra-tick order
// (tests/cluster/cluster_determinism_test.cc).

#ifndef TWHEEL_SRC_CLUSTER_CLUSTER_H_
#define TWHEEL_SRC_CLUSTER_CLUSTER_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/flat_table.h"
#include "src/base/types.h"
#include "src/cluster/fault_schedule.h"
#include "src/core/timer_facility.h"
#include "src/net/channel.h"
#include "src/net/types.h"
#include "src/sim/simulator.h"

namespace twheel::cluster {

inline constexpr std::uint32_t kMaxReplication = 8;
inline constexpr std::uint32_t kMaxLeaseExtensions = 3;

// The R distinct nodes holding a key, in rank order. Held by value in a
// fixed-capacity array, so computing a placement never allocates.
class ReplicaSet {
 public:
  void push_back(NodeId node) { nodes_[size_++] = node; }

  std::uint32_t size() const { return size_; }
  NodeId operator[](std::uint32_t rank) const { return nodes_[rank]; }
  const NodeId* begin() const { return nodes_.data(); }
  const NodeId* end() const { return nodes_.data() + size_; }

  friend bool operator==(const ReplicaSet& a, const ReplicaSet& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<NodeId, kMaxReplication> nodes_{};
  std::uint32_t size_ = 0;
};

// connection_id of packets the coordinator sends (node ids are dense from 0).
inline constexpr std::uint32_t kCoordinatorId = 0xFFFFFFFFu;

struct ClusterConfig {
  std::size_t nodes = 4;
  std::uint32_t replication_factor = 2;  // default R for Set()
  // Rank-k lease: replica k arms for deadline + k*failover_delay; a suppress
  // hint extends a lease by one failover_delay (at most kMaxLeaseExtensions).
  Duration failover_delay = 12;
  Duration retry_every = 6;  // retransmit cadence (arms, notifies, node-ups)
  std::uint32_t disarm_retry_cap = 4;
  std::uint64_t seed = 1;
  net::ChannelConfig link;     // every coordinator<->node and node<->node link
  FacilityConfig node_scheme;  // host service each node runs
  // Torture/facade mode: messages become direct calls — no loss, no delay, no
  // faults. Used by ClusterFacadeService so the decide-then-replay driver sees
  // the full replication protocol at exact one-tick semantics.
  bool synchronous_transport = false;
};

enum class ClientEventKind : std::uint8_t {
  kAccepted,    // Set registered a (new or replacing) generation
  kRestarted,   // Restart moved a live timer to a new generation/deadline
  kCancelAcked, // Cancel of a live timer acknowledged: this gen must never fire
  kFired,       // the client callback ran
};

struct ClientEvent {
  ClientEventKind kind = ClientEventKind::kAccepted;
  std::uint64_t key = 0;
  std::uint32_t gen = 0;
  Tick at = 0;        // cluster tick the coordinator processed the event
  Tick deadline = 0;  // kAccepted/kRestarted: absolute deadline;
                      // kFired: the replica's pop tick
  friend bool operator==(const ClientEvent&, const ClientEvent&) = default;
};

// The counter fields, declared once. Each X(name) becomes a zero-initialised
// std::uint64_t member of ClusterStats, and operator+= is generated from the
// same list.
//
// Coordinator receipt classification obeys a conservation law (checked by the
// oracle): fire_receipts == delivered + duplicate_suppressed +
// stale_gen_suppressed + after_cancel_suppressed. Node-side fields are summed
// over nodes.
#define TWHEEL_CLUSTER_STATS_FIELDS(X)                                        \
  /* Coordinator: client ops. */                                              \
  X(accepted)                                                                 \
  X(restarts)                                                                 \
  X(restart_misses)                                                           \
  X(cancels)                                                                  \
  X(cancel_misses)                                                            \
  /* Coordinator: receipt classification. */                                  \
  X(fire_receipts)                                                            \
  X(delivered)                                                                \
  X(duplicate_suppressed)                                                     \
  X(stale_gen_suppressed)                                                     \
  X(after_cancel_suppressed)                                                  \
  /* Coordinator: replication traffic. */                                     \
  X(arm_sends)                                                                \
  X(arm_retries)                                                              \
  X(disarm_sends)                                                             \
  X(rearms_on_node_up)                                                        \
  /* Node side. */                                                            \
  X(pops)              /* host expiries that reached a replica */             \
  X(notify_retries)                                                           \
  X(lease_disarms)     /* survivor lease removed after delivery */            \
  X(cancel_disarms)    /* replica removed by a client cancel */               \
  X(lease_extensions)  /* suppress hints applied (RestartTimer) */            \
  X(arm_rejects)       /* host refused an arm — config error, 0 */            \
  X(orphan_pops)       /* host pop with no replica state — 0 */               \
  /* Injector and delivery gates. */                                          \
  X(kills)                                                                    \
  X(node_restarts)                                                            \
  X(partitions)                                                               \
  X(drop_windows)                                                             \
  X(partition_drops)   /* packets gated by a partition */                     \
  X(window_drops)      /* packets gated by a drop window */                   \
  X(dead_receiver_drops)

struct ClusterStats {
#define TWHEEL_CLUSTER_STATS_DECLARE(name) std::uint64_t name = 0;
  TWHEEL_CLUSTER_STATS_FIELDS(TWHEEL_CLUSTER_STATS_DECLARE)
#undef TWHEEL_CLUSTER_STATS_DECLARE

#define TWHEEL_CLUSTER_STATS_ONE(name) +1
  static constexpr std::size_t kFieldCount =
      0 TWHEEL_CLUSTER_STATS_FIELDS(TWHEEL_CLUSTER_STATS_ONE);
#undef TWHEEL_CLUSTER_STATS_ONE

  ClusterStats& operator+=(const ClusterStats& o) {
#define TWHEEL_CLUSTER_STATS_ADD(name) name += o.name;
    TWHEEL_CLUSTER_STATS_FIELDS(TWHEEL_CLUSTER_STATS_ADD)
#undef TWHEEL_CLUSTER_STATS_ADD
    return *this;
  }

  friend bool operator==(const ClusterStats&, const ClusterStats&) = default;
};

// A field declared outside TWHEEL_CLUSTER_STATS_FIELDS would be skipped by
// operator+=; this makes it a compile error instead.
static_assert(sizeof(ClusterStats) ==
                  ClusterStats::kFieldCount * sizeof(std::uint64_t),
              "every ClusterStats field must be listed in "
              "TWHEEL_CLUSTER_STATS_FIELDS");

// One replica's copy of a key on a node, stored inline in the node's
// ReplicaTable. Fields are narrowed so a record stays 24 bytes: rank is below
// kMaxReplication, replication at most kMaxReplication and extensions at most
// kMaxLeaseExtensions.
struct ReplicaLocal {
  TimerHandle handle{};  // the host lease; valid in every stored record
  Tick pop_tick = 0;
  std::uint32_t gen = 0;
  std::uint8_t rank = 0;
  std::uint8_t replication = 1;
  std::uint8_t extensions = 0;
  bool popped = false;

  bool occupied() const { return handle.valid(); }
};

// The coordinator's record of a key, stored inline in its CoordinatorTable.
// The replica set is not stored: ReplicaSetFor(key, replication) recomputes
// it, as the nodes do.
struct PendingTimer {
  enum class State : std::uint8_t { kLive, kFired, kCancelled };

  Tick deadline = 0;
  std::uint32_t gen = 0;
  // The replica set's size; every Set stores at least 1, so 0 marks an
  // unused slot.
  std::uint8_t replication = 0;
  std::uint8_t arm_acked = 0;     // bitmask by rank
  std::uint8_t disarm_acked = 0;  // bitmask by rank
  State state = State::kLive;
  std::uint8_t disarm_round = 0;  // <= ClusterConfig::disarm_retry_cap
  bool disarm_fired_flag = false;  // disarm reason: delivered fire vs cancel
  bool disarm_done = true;         // no disarm fan-out outstanding
  bool retry_queued = false;

  bool occupied() const { return replication != 0; }
};

static_assert(kMaxReplication <= 8, "ack bitmasks are one byte");
static_assert(sizeof(ReplicaLocal) == 24 && sizeof(PendingTimer) == 24,
              "replica and coordinator records stay 24 bytes");

using ReplicaTable = FlatTable<ReplicaLocal>;      // per node, by key
using CoordinatorTable = FlatTable<PendingTimer>;  // by key

// Retransmissions in due order. Every entry is due retry_every ticks after it
// was pushed and the cluster clock never goes back, so pushes arrive in due
// order and a FIFO keeps them sorted: the paper's Scheme 2 with rear
// insertion, O(1) per push and pop when every interval is the same.
template <typename Item>
class RetryFifo {
 public:
  void Push(Tick due, const Item& item) {
    assert(queue_.empty() || queue_.back().due <= due);
    queue_.push_back({due, item});
  }

  // Pops the oldest entry into `item` if it is due at `now`.
  bool PopDue(Tick now, Item& item) {
    if (queue_.empty() || queue_.front().due > now) {
      return false;
    }
    item = queue_.front().item;
    queue_.pop_front();
    return true;
  }

  void clear() { queue_.clear(); }

 private:
  struct Entry {
    Tick due;
    Item item;
  };
  std::deque<Entry> queue_;
};

class TimerCluster {
 public:
  // Client-visible fire: `pop_tick` is when the owning replica's host expired
  // the timer; delivery happens at cluster now(). May re-enter the cluster
  // (Set/Restart/Cancel) — the coordinator's state is updated before dispatch.
  using FireCallback = std::function<void(
      std::uint64_t key, std::uint32_t gen, Tick pop_tick)>;

  TimerCluster(const ClusterConfig& config, FaultSchedule schedule = {});
  ~TimerCluster();

  TimerCluster(const TimerCluster&) = delete;
  TimerCluster& operator=(const TimerCluster&) = delete;

  void set_fire_callback(FireCallback callback) {
    fire_callback_ = std::move(callback);
  }

  // Client ops, processed at the coordinator immediately (replication to the
  // nodes is asynchronous over the links). Set registers interval ticks from
  // now with the given replication factor; a Set on a live key replaces it
  // under a fresh generation. Returns false for a zero interval. Restart and
  // Cancel return false (miss) when the key has no live timer.
  bool Set(std::uint64_t key, Duration interval);
  bool Set(std::uint64_t key, Duration interval, std::uint32_t replication);
  bool Restart(std::uint64_t key, Duration interval);
  bool Cancel(std::uint64_t key);

  // One cluster tick, fixed phase order: (1) clock, (2) fault events due now,
  // (3) network deliveries due now, (4) alive nodes tick their hosts (pops
  // dispatch here), (5) retransmission scans. The fixed order is what makes a
  // (seed, schedule) pair fully deterministic.
  void Step();

  Tick now() const { return now_; }

  // Nothing left to resolve: no live timers, no replica-side state, no
  // in-flight packets, no pending disarm fan-outs.
  bool quiesced() const;

  // Step until quiesced or `max_ticks` elapse; returns ticks stepped.
  Tick Drain(Tick max_ticks);

  const std::vector<ClientEvent>& events() const { return events_; }
  const ClusterStats& stats() const { return stats_; }
  std::size_t live_timers() const { return live_count_; }

  // The R distinct nodes holding `key`, rank order. Pure function of
  // (key, replication, nodes, seed) — nodes compute the same set locally.
  ReplicaSet ReplicaSetFor(std::uint64_t key, std::uint32_t replication) const;

  bool node_alive(NodeId node) const { return nodes_[node].alive; }
  std::size_t node_count() const { return nodes_.size(); }
  // Probabilistic channel-level drops summed over every link.
  std::uint64_t link_drops() const;

 private:
  // A popped replica awaiting kClusterFireAck.
  struct NotifyRetry {
    std::uint64_t key = 0;
    std::uint32_t gen = 0;
  };

  struct Node {
    bool alive = true;
    std::uint64_t epoch = 0;
    bool partitioned = false;
    bool dropping = false;
    bool up_acked = true;
    Tick next_up_retry = 0;
    // Cluster tick the host's local clock is anchored at: the host reads
    // host_base + host->now() on the cluster clock. Mid-Step the hosts are
    // momentarily staggered (some ticked, some not), so arm intervals MUST be
    // computed against the target host's own position, not the cluster tick —
    // otherwise an in-handler Set reaching a not-yet-ticked host fires a tick
    // early.
    Tick host_base = 0;
    std::unique_ptr<TimerService> host;
    ReplicaTable local;
    RetryFifo<NotifyRetry> notify_retry;
  };

  // --- transport ---
  void SendToNode(NodeId to, net::Packet packet);    // coordinator -> node
  void SendToCoord(NodeId from, net::Packet packet); // node -> coordinator
  void SendNodeToNode(NodeId from, NodeId to, net::Packet packet);
  bool GateSend(std::uint32_t from, NodeId to);  // false = drop at the gate

  // --- coordinator ---
  void OnCoordMessage(const net::Packet& packet);
  // Sends rank `rank`'s arm to `replicas[rank]`, the key's replica set.
  void SendArm(std::uint64_t key, const PendingTimer& entry,
               const ReplicaSet& replicas, std::uint32_t rank);
  void BeginDisarm(std::uint64_t key, PendingTimer& entry, bool fired);
  void SendDisarms(std::uint64_t key, const PendingTimer& entry);
  void QueueRetry(std::uint64_t key, PendingTimer& entry);
  void CoordRetryScan();
  void RearmNodeTimers(NodeId node);

  // --- node ---
  void MakeHost(NodeId node);
  void OnNodeMessage(NodeId node, const net::Packet& packet);
  void OnHostPop(NodeId node, std::uint64_t key);
  void SendFireNotify(NodeId node, std::uint64_t key, std::uint32_t gen,
                      std::uint32_t rank, Tick pop_tick);
  void NodeRetryScan(NodeId node);

  void ApplyFaults();

  ClusterConfig config_;
  FaultSchedule schedule_;
  std::size_t schedule_cursor_ = 0;

  Tick now_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::uint64_t> node_epoch_seen_;

  // Coordinator state. Entries are never erased: a key's full generation
  // history stays classifiable for the whole episode.
  CoordinatorTable timers_;
  RetryFifo<std::uint64_t> retry_queue_;  // keys with arms or disarms unacked
  std::size_t live_count_ = 0;
  std::size_t replica_entries_ = 0;  // sum of nodes_[i].local.size()
  std::size_t pending_disarms_ = 0;  // entries with !disarm_done

  // Async transport (null in synchronous mode). One network clock carries
  // every link; per-link seeds derive from the cluster seed so fates are
  // independent across links but reproducible.
  std::unique_ptr<sim::Simulator> network_;
  std::vector<std::unique_ptr<net::Channel>> up_;    // node i -> coordinator
  std::vector<std::unique_ptr<net::Channel>> down_;  // coordinator -> node i
  std::vector<std::unique_ptr<net::Channel>> mesh_;  // node i -> node j (i*N+j)

  std::vector<ClientEvent> events_;
  ClusterStats stats_;
  FireCallback fire_callback_;
};

}  // namespace twheel::cluster

#endif  // TWHEEL_SRC_CLUSTER_CLUSTER_H_
