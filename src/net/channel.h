// A lossy, delaying, unidirectional channel.
//
// Deliveries are discrete events on a *network* simulator that ticks in lockstep
// with the host's timer module but keeps its own event set, so channel bookkeeping
// never contaminates the op counts of the timer scheme under test (see net::Server).
//
// Loss and latency are drawn by hashing the packet's identity (connection, sequence
// number, type, send tick) with the channel seed rather than from a shared stream:
// the fate of a packet is a pure function of what was sent and when. This makes runs
// order-insensitive — two timer schemes that dispatch the same tick's expiries in
// different orders still produce byte-identical network behaviour, which the
// cross-scheme protocol tests rely on.
//
// Packets in flight ride the paper's Scheme 4: every delay is below
// MaxInterval = delay_hi + 1, so a circular array of delay_hi + 1 slots (a
// packet due at tick d sits in slot d mod (delay_hi + 1)) holds them with O(1)
// enqueue and O(1) delivery. The network simulator carries one event per
// non-empty slot, not one per packet, so a channel never has more than
// delay_hi - delay_lo + 1 events pending. A slot is a FIFO: packets due on the
// same tick reach the receiver in send order.

#ifndef TWHEEL_SRC_NET_CHANNEL_H_
#define TWHEEL_SRC_NET_CHANNEL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/core/timer_service.h"
#include "src/net/types.h"
#include "src/rng/rng.h"
#include "src/sim/simulator.h"

namespace twheel::net {

// The event set every network simulator runs on: a fixed, range-unbounded
// scheme (Scheme 3 heap), so the host scheme's op counts stay pure.
std::unique_ptr<TimerService> MakeNetworkService();

class Channel {
 public:
  using Receiver = std::function<void(const Packet&)>;

  // The delay window is clamped to 1 <= delay_lo <= delay_hi: a simulator event
  // needs a delay of at least one tick, and an empty window has no delay to draw.
  Channel(sim::Simulator& network, std::uint64_t seed, ChannelConfig config);

  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  // Transmit: either silently dropped or delivered to the receiver after a
  // packet-identity-determined delay in [delay_lo, delay_hi].
  void Send(const Packet& packet) {
    sent_.fetch_add(1, std::memory_order_relaxed);
    const Tick now = network_.now();
    rng::SplitMix64 hash(seed_ ^ PacketFingerprint(packet, now));
    const double loss_draw = static_cast<double>(hash.Next() >> 11) * 0x1.0p-53;
    if (loss_draw < config_.loss_probability) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const Duration spread = config_.delay_hi - config_.delay_lo + 1;
    const Duration delay = config_.delay_lo + hash.Next() % spread;
    const Tick due = now + delay;
    std::vector<Packet>& slot = ring_[due % ring_.size()];
    if (slot.empty()) {
      // The capture is 16 trivially-copyable bytes: it fits std::function's
      // inline buffer, so scheduling a slot allocates nothing.
      const sim::EventToken event =
          network_.After(delay, [this, due] { DeliverSlot(due); });
      TWHEEL_ASSERT_MSG(event.valid(),
                        "network simulator refused a channel slot event");
    }
    slot.push_back(packet);
  }

  // Counter snapshots. Send()/delivery themselves stay single-threaded by
  // contract (the network Simulator is not thread-safe), but a TimerServer
  // dispatch-pool drainer transmits under the server's send mutex while
  // harness/monitor threads snapshot these counters without it — so the
  // counters are relaxed atomics, not plain words. A snapshot taken
  // mid-transmission may lag by the in-flight packet; it is never torn.
  std::uint64_t sent() const { return sent_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  // Hands every packet of the slot due now to the receiver, in send order. The
  // slot is swapped into `delivering_` first, so its capacity is recycled and a
  // receiver may Send on this channel: 1 <= delay <= delay_hi puts the new
  // packet in another slot.
  void DeliverSlot(Tick due);

  // splitmix64-style finalizer: full-width multiply + xor-shift avalanche, so
  // every input bit affects every output bit.
  static std::uint64_t Mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  static std::uint64_t PacketFingerprint(const Packet& packet, Tick now) {
    // Distinct retransmissions of the same segment differ by send tick, so each
    // attempt gets an independent fate. Each field is avalanche-mixed before
    // combining: an earlier shift-and-xor packing put `seq << 16` underneath
    // `connection_id << 48`, so once seq reached 2^32 its high bits aliased the
    // connection bits and long-lived flows on different connections shared
    // fates. Mixing spreads every field across all 64 bits first, so no
    // shifted-out or overlapping-field collisions exist by construction.
    std::uint64_t fp = Mix(static_cast<std::uint64_t>(packet.connection_id) +
                           0x9e3779b97f4a7c15ULL);
    fp = Mix(fp ^ packet.seq);
    fp = Mix(fp ^ static_cast<std::uint64_t>(packet.type));
    fp = Mix(fp ^ now);
    return fp;
  }

  sim::Simulator& network_;
  std::uint64_t seed_;
  ChannelConfig config_;
  Receiver receiver_;
  std::vector<std::vector<Packet>> ring_;  // delay_hi + 1 slots, by due tick
  std::vector<Packet> delivering_;         // the slot being delivered
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> delivered_{0};
};

}  // namespace twheel::net

#endif  // TWHEEL_SRC_NET_CHANNEL_H_
