// A networked timer facility: the paper's timer module behind a protocol.
//
// Client sessions manage timers on a remote timer module — set one-shots, set
// periodics, restart ("update"), cancel — by sending request packets over a
// lossy Channel, and receive kTimerFire callback packets when their timers
// expire. This is ROADMAP item 1's product surface: the host scheme under test
// serves the whole population's timers, so its op-count profile under a
// realistic set/update/cancel/fire mix is directly observable.
//
// Addressing: a session is a connection_id; a timer is the session-local
// `seq` the client chose. The pair packs into the 64-bit RequestId cookie the
// timer module already carries, so an expiry dispatch routes back to its
// session without any per-timer allocation on the server.
//
// Session table: the server keeps one Registration (host handle + laps still
// owed) per live cookie in a net::SessionTable — a flat open-addressing array
// with the registrations inline (src/base/flat_table.h). Once the table has
// grown to the live population, set, fire and cancel allocate nothing.
//
// Loss tolerance: requests are idempotent where the protocol allows it — a
// duplicate kTimerSet for a live timer replaces the old registration
// (cancel-and-replace), and kTimerRestart/kTimerCancel for a timer the server
// no longer has (expired, cancelled, or the set was lost) are counted as
// stale misses, not errors. The server never retransmits callbacks: a lost
// kTimerFire is simply lost, exactly like a lost ack in Section 1's model.
//
// Concurrent dispatch: when the host is a concurrent::ShardedWheel, the server
// can hand dispatch to a DispatchPool (StartDispatchPool), after which each
// Tick() is one pool epoch and expiry callbacks arrive on N drainer threads at
// once. The server is built for that:
// the session table is striped (per-stripe mutexes, stripe chosen by session
// hash, so drainers touching different sessions never contend), each stripe
// keeps its own plain counters under its mutex, and callback sends are
// serialized behind a send mutex that also guards the fires_sent counter —
// the Channel itself is single-threaded by contract. Requests still arrive on
// one thread (the harness's uplink), racing only the drainers.

#ifndef TWHEEL_SRC_NET_TIMER_SERVER_H_
#define TWHEEL_SRC_NET_TIMER_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "src/base/flat_table.h"
#include "src/concurrent/dispatch_pool.h"
#include "src/core/timer_service.h"
#include "src/net/channel.h"
#include "src/net/types.h"

namespace twheel::net {

// (session, timer) <-> RequestId cookie. Sessions are 32-bit, timer names are
// truncated to 32 bits — sessions use small per-session timer numbers.
constexpr RequestId PackTimerCookie(std::uint32_t session, std::uint64_t timer) {
  return (static_cast<RequestId>(session) << 32) |
         static_cast<std::uint32_t>(timer);
}
constexpr std::uint32_t CookieSession(RequestId cookie) {
  return static_cast<std::uint32_t>(cookie >> 32);
}
constexpr std::uint32_t CookieTimer(RequestId cookie) {
  return static_cast<std::uint32_t>(cookie);
}

// One live timer as the server sees it.
struct Registration {
  TimerHandle handle;
  // Laps still owed, mirroring the host's repeat budget: 0 = forever,
  // 1 = next fire is final. One-shots store 1, so a registration stays armed
  // after a fire iff remaining != 1.
  std::uint64_t remaining = 1;

  // Every registration holds the valid handle its host returned, so the
  // handle alone marks a used slot and cookie 0 is an ordinary key.
  bool occupied() const { return handle.valid(); }
};

// Cookie -> Registration.
using SessionTable = FlatTable<Registration>;
static_assert(sizeof(SessionTable::Entry) == 24,
              "a slot is the cookie plus {handle, remaining}, nothing more");

// The counter fields, declared once. Each X(name) becomes a zero-initialised
// std::uint64_t member of TimerServerStats, and operator+= is generated from the
// same list.
#define TWHEEL_TIMER_SERVER_STATS_FIELDS(X)                                     \
  X(sets)            /* one-shot registrations accepted */                      \
  X(periodic_sets)   /* periodic registrations accepted */                      \
  X(replaced)        /* duplicate set replaced a live timer */                  \
  X(rejected)        /* host refused (capacity/range) */                        \
  X(restarts)        /* kTimerRestart applied */                                \
  X(restart_misses)  /* kTimerRestart for an unknown timer */                   \
  X(cancels)         /* kTimerCancel applied */                                 \
  X(cancel_misses)   /* kTimerCancel for an unknown timer */                    \
  X(fires_sent)      /* kTimerFire callbacks handed to the channel */           \
  X(periodic_laps)   /* fires that left the registration armed */               \
  X(decode_rejects)  /* OnWire buffers that failed DecodePacket */

struct TimerServerStats {
#define TWHEEL_TIMER_SERVER_STATS_DECLARE(name) std::uint64_t name = 0;
  TWHEEL_TIMER_SERVER_STATS_FIELDS(TWHEEL_TIMER_SERVER_STATS_DECLARE)
#undef TWHEEL_TIMER_SERVER_STATS_DECLARE

#define TWHEEL_TIMER_SERVER_STATS_ONE(name) +1
  static constexpr std::size_t kFieldCount =
      0 TWHEEL_TIMER_SERVER_STATS_FIELDS(TWHEEL_TIMER_SERVER_STATS_ONE);
#undef TWHEEL_TIMER_SERVER_STATS_ONE

  TimerServerStats& operator+=(const TimerServerStats& o) {
#define TWHEEL_TIMER_SERVER_STATS_ADD(name) name += o.name;
    TWHEEL_TIMER_SERVER_STATS_FIELDS(TWHEEL_TIMER_SERVER_STATS_ADD)
#undef TWHEEL_TIMER_SERVER_STATS_ADD
    return *this;
  }
};

// A field declared outside TWHEEL_TIMER_SERVER_STATS_FIELDS would be skipped by
// operator+=; this makes it a compile error instead.
static_assert(sizeof(TimerServerStats) ==
                  TimerServerStats::kFieldCount * sizeof(std::uint64_t),
              "every TimerServerStats field must be listed in "
              "TWHEEL_TIMER_SERVER_STATS_FIELDS");

class TimerServer {
 public:
  // `host` is the timer scheme under test; `to_client` carries callbacks.
  TimerServer(std::unique_ptr<TimerService> host, Channel& to_client);
  ~TimerServer();

  // A request packet arrived (the harness wires this as the uplink receiver).
  void OnRequest(const Packet& request);

  // A raw request buffer arrived (the byte-transport uplink). Decodes via
  // net::DecodePacket and dispatches to OnRequest; malformed buffers —
  // truncated, oversized, or with an out-of-range type byte — are counted in
  // stats().decode_rejects and otherwise ignored. Returns whether the buffer
  // decoded.
  bool OnWire(const std::uint8_t* data, std::size_t size);

  // Advance the host timer module one tick, dispatching expiry callbacks.
  // With a dispatch pool attached, the tick is delivered through the pool
  // (all drainers participate) and Tick() returns once every shard reached
  // it. To pace the server from a wall clock, call Tick() from one clock
  // thread; requests may keep arriving on another.
  void Tick();

  // Hand the host's dispatch to a DispatchPool: expiry callbacks then arrive
  // on `options.drainers` threads concurrently. Returns false (and attaches
  // nothing) if the host is not a concurrent::ShardedWheel or a pool is
  // already attached. Tick() is then the pool's only clock driver: don't mix
  // with direct host advancement while attached.
  bool StartDispatchPool(const concurrent::DispatchOptions& options);
  // Stops and detaches the pool (idempotent). After return the server is
  // single-threaded again and Tick() drives the host directly.
  void StopDispatchPool();
  bool pool_attached() const { return pool_ != nullptr; }

  // Sums the stripes' counters, each stripe under its own mutex: coherent at
  // quiesce, each stripe self-consistent but not all at one instant
  // mid-dispatch.
  TimerServerStats stats() const;
  const TimerService& host() const { return *host_; }
  // Timers currently registered (the server-side session table's view).
  std::size_t registrations() const;

 private:
  // The striped session table. A cookie's stripe is a function of its session
  // id, so one session's set/cancel/fire traffic serializes on one stripe
  // while different sessions proceed in parallel on different drainers. Each
  // stripe's counters live beside its table, under the same mutex.
  static constexpr std::size_t kStripes = 16;  // power of two
  struct Stripe {
    mutable std::mutex mutex;
    SessionTable timers;
    TimerServerStats stats;
  };
  Stripe& StripeFor(RequestId cookie) {
    // Fibonacci hash of the session id; sessions are typically small dense
    // integers, so multiply-shift spreads them across stripes.
    const std::uint32_t h = CookieSession(cookie) * 0x9E3779B9u;
    return stripes_[(h >> 27) & (kStripes - 1)];
  }

  void OnExpiry(RequestId cookie, twheel::Tick now);
  void Register(RequestId cookie, const Packet& request);

  std::unique_ptr<TimerService> host_;
  Channel& to_client_;
  // Serializes kTimerFire sends from concurrent drainers: Channel counts and
  // schedules its deliveries without internal locking.
  mutable std::mutex send_mutex_;
  std::uint64_t fires_sent_ = 0;  // guarded by send_mutex_
  Stripe stripes_[kStripes];
  // OnWire rejects touch no stripe, so this one counter stands alone.
  std::atomic<std::uint64_t> decode_rejects_{0};

  std::unique_ptr<concurrent::DispatchPool> pool_;
};

}  // namespace twheel::net

#endif  // TWHEEL_SRC_NET_TIMER_SERVER_H_
