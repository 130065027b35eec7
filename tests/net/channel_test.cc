// Channel-level tests: packet-identity hashing (order insensitivity), loss-rate
// statistics, delay bounds, and the delay ring (one network event per due tick,
// FIFO within a tick, wrap-around, re-entrant sends).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/channel.h"

namespace twheel::net {
namespace {

std::unique_ptr<sim::Simulator> MakeNetSim() {
  return std::make_unique<sim::Simulator>(MakeNetworkService());
}

ChannelConfig Lossless(Duration lo, Duration hi) {
  return ChannelConfig{.loss_probability = 0.0, .delay_lo = lo, .delay_hi = hi};
}

TEST(ChannelTest, DeliversWithinConfiguredDelayWindow) {
  auto network = MakeNetSim();
  ChannelConfig config;
  config.loss_probability = 0.0;
  config.delay_lo = 3;
  config.delay_hi = 9;
  Channel channel(*network, 1, config);
  std::vector<Tick> deliveries;
  channel.set_receiver([&](const Packet&) { deliveries.push_back(network->now()); });

  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    channel.Send(Packet{0, seq, PacketType::kData});
  }
  network->RunUntilIdle();
  ASSERT_EQ(deliveries.size(), 500u);
  for (Tick t : deliveries) {
    EXPECT_GE(t, 3u);
    EXPECT_LE(t, 9u);
  }
  EXPECT_EQ(channel.dropped(), 0u);
  EXPECT_EQ(channel.delivered(), 500u);
}

TEST(ChannelTest, LossRateMatchesConfiguration) {
  auto network = MakeNetSim();
  ChannelConfig config;
  config.loss_probability = 0.25;
  Channel channel(*network, 2, config);
  channel.set_receiver([](const Packet&) {});
  constexpr std::uint64_t kPackets = 40000;
  for (std::uint64_t seq = 0; seq < kPackets; ++seq) {
    channel.Send(Packet{static_cast<std::uint32_t>(seq % 64), seq, PacketType::kData});
    network->Step();
  }
  network->RunUntilIdle();
  double loss = static_cast<double>(channel.dropped()) / kPackets;
  EXPECT_NEAR(loss, 0.25, 0.01);
}

TEST(ChannelTest, PacketFateIsIdentityDetermined) {
  // The same packet sent at the same tick meets the same fate regardless of what
  // else happened first — the property that makes cross-scheme runs comparable.
  auto run = [](bool send_noise_first) {
    auto network = MakeNetSim();
    ChannelConfig config;
    config.loss_probability = 0.5;
    Channel channel(*network, 3, config);
    std::vector<std::uint64_t> delivered;
    channel.set_receiver([&](const Packet& p) { delivered.push_back(p.seq); });
    if (send_noise_first) {
      for (std::uint64_t seq = 1000; seq < 1050; ++seq) {
        channel.Send(Packet{9, seq, PacketType::kAck});
      }
    }
    for (std::uint64_t seq = 0; seq < 200; ++seq) {
      channel.Send(Packet{1, seq, PacketType::kData});
    }
    network->RunUntilIdle();
    std::vector<bool> fate(200, false);
    for (std::uint64_t seq : delivered) {
      if (seq < 200) {
        fate[seq] = true;
      }
    }
    return fate;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ChannelTest, RetransmissionsGetIndependentFates) {
  // The same (conn, seq, type) sent at different ticks hashes differently: a lost
  // first attempt does not doom the retry.
  auto network = MakeNetSim();
  ChannelConfig config;
  config.loss_probability = 0.5;
  Channel channel(*network, 4, config);
  channel.set_receiver([](const Packet&) {});
  std::uint64_t flips = 0;
  bool last = false;
  for (Tick t = 0; t < 2000; ++t) {
    std::uint64_t before = channel.dropped();
    channel.Send(Packet{1, 42, PacketType::kData});  // identical packet each tick
    bool dropped_now = channel.dropped() > before;
    if (t > 0 && dropped_now != last) {
      ++flips;
    }
    last = dropped_now;
    network->Step();
  }
  // With independent 50/50 fates, ~1000 flips; identical fates would give 0.
  EXPECT_GT(flips, 800u);
}

TEST(ChannelTest, HighSequenceNumbersDoNotAliasConnectionFates) {
  // Regression for the fingerprint packing bug. The old fingerprint packed
  // fields by shift-and-xor — `connection_id << 48` over `seq << 16` — so
  // seq bits [32, 48) landed exactly on the connection bits: packet
  // {conn, (hi << 32) | low} and packet {conn ^ hi, low} produced the SAME
  // fingerprint when sent at the same tick, and every long-lived flow past
  // seq 2^32 shared loss/delay fates with some other connection. The mixed
  // fingerprint must give such constructed pairs independent fates.
  auto network = MakeNetSim();
  ChannelConfig config;
  config.loss_probability = 0.5;
  Channel channel(*network, 5, config);
  channel.set_receiver([](const Packet&) {});

  constexpr std::uint32_t kConn = 7;
  constexpr int kPairs = 1000;
  int divergent = 0;
  for (int i = 0; i < kPairs; ++i) {
    // Both packets of a pair go out on the same tick, like the old collision.
    const std::uint64_t hi = static_cast<std::uint64_t>(i + 1) & 0xFFFF;
    const std::uint64_t low = static_cast<std::uint64_t>(i);
    std::uint64_t before = channel.dropped();
    channel.Send(Packet{kConn, (hi << 32) | low, PacketType::kData});
    const bool first_dropped = channel.dropped() > before;
    before = channel.dropped();
    channel.Send(Packet{kConn ^ static_cast<std::uint32_t>(hi), low,
                        PacketType::kData});
    const bool second_dropped = channel.dropped() > before;
    divergent += first_dropped != second_dropped ? 1 : 0;
    network->Step();
  }
  // Independent 50/50 fates diverge on ~half the pairs; the aliasing
  // fingerprint gave exactly 0 divergent pairs.
  EXPECT_GT(divergent, kPairs / 3);
  network->RunUntilIdle();
}

TEST(ChannelTest, CounterSnapshotsAreRaceFreeUnderConcurrentReaders) {
  // Regression for the counter data race (ISSUE satellite): sent_/dropped_/
  // delivered_ used to be plain words, so a monitor thread snapshotting them
  // while the simulation thread transmitted was undefined behaviour — TSan
  // flagged it, and torn 32-bit halves were possible on some targets. The
  // counters are relaxed atomics now; this test recreates exactly that shape
  // (one sender driving Send/Step, two monitor threads hammering the
  // accessors) so a TSan build of the `cluster` suite re-proves it on every
  // run. The monitors also check the only cross-counter invariant relaxed
  // ordering still guarantees per observer: each counter is monotone.
  auto network = MakeNetSim();
  ChannelConfig config;
  config.loss_probability = 0.3;
  Channel channel(*network, 11, config);
  channel.set_receiver([](const Packet&) {});

  std::atomic<bool> done{false};
  std::atomic<bool> monotone{true};
  auto monitor = [&] {
    std::uint64_t last_sent = 0, last_dropped = 0, last_delivered = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t sent = channel.sent();
      const std::uint64_t dropped = channel.dropped();
      const std::uint64_t delivered = channel.delivered();
      if (sent < last_sent || dropped < last_dropped ||
          delivered < last_delivered) {
        monotone.store(false, std::memory_order_relaxed);
      }
      last_sent = sent;
      last_dropped = dropped;
      last_delivered = delivered;
    }
  };
  std::thread reader_a(monitor);
  std::thread reader_b(monitor);
  for (std::uint64_t seq = 0; seq < 20000; ++seq) {
    channel.Send(Packet{1, seq, PacketType::kData});
    if ((seq & 7) == 0) {
      network->Step();
    }
  }
  network->RunUntilIdle();
  done.store(true, std::memory_order_release);
  reader_a.join();
  reader_b.join();

  EXPECT_TRUE(monotone.load()) << "a monitor observed a counter run backwards";
  EXPECT_EQ(channel.sent(), 20000u);
  EXPECT_EQ(channel.sent(), channel.dropped() + channel.delivered());
  EXPECT_GT(channel.dropped(), 0u);
  EXPECT_GT(channel.delivered(), 0u);
}

TEST(ChannelTest, DifferentSeedsDifferentFates) {
  auto run = [](std::uint64_t seed) {
    auto network = MakeNetSim();
    ChannelConfig config;
    config.loss_probability = 0.5;
    Channel channel(*network, seed, config);
    channel.set_receiver([](const Packet&) {});
    for (std::uint64_t seq = 0; seq < 256; ++seq) {
      channel.Send(Packet{1, seq, PacketType::kData});
    }
    return channel.dropped();
  };
  EXPECT_NE(run(1001), run(1002));
}

TEST(ChannelTest, ZeroDelayWindowIsClampedNotLost) {
  // Regression: with delay_lo = 0 a packet could draw delay 0, the network
  // simulator refused the zero-tick event, and Send dropped it on the floor —
  // counted as neither dropped nor delivered, so conservation failed. The
  // channel clamps its window to 1 <= delay_lo <= delay_hi instead.
  auto network = MakeNetSim();
  Channel channel(*network, 21, Lossless(0, 3));
  std::vector<Tick> delays;
  channel.set_receiver(
      [&](const Packet& p) { delays.push_back(network->now() - p.arg0); });
  constexpr std::uint64_t kPackets = 1000;
  for (std::uint64_t seq = 0; seq < kPackets; ++seq) {
    channel.Send(Packet{1, seq, PacketType::kData, network->now()});
    if ((seq & 3) == 0) {
      network->Step();
    }
  }
  network->RunUntilIdle();
  EXPECT_EQ(channel.sent(), kPackets);
  EXPECT_EQ(channel.dropped(), 0u);
  EXPECT_EQ(channel.delivered(), kPackets);
  ASSERT_EQ(delays.size(), kPackets);
  for (Tick d : delays) {
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, 3u);
  }

  // An inverted window collapses onto delay_lo.
  auto other = MakeNetSim();
  Channel inverted(*other, 22, Lossless(4, 2));
  std::vector<Tick> arrivals;
  inverted.set_receiver([&](const Packet&) { arrivals.push_back(other->now()); });
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    inverted.Send(Packet{1, seq, PacketType::kData});
  }
  other->RunUntilIdle();
  EXPECT_EQ(arrivals, std::vector<Tick>(50, 4));
}

TEST(ChannelTest, SameTickPacketsArriveInSendOrder) {
  auto network = MakeNetSim();
  Channel channel(*network, 23, Lossless(2, 6));
  std::vector<std::pair<Tick, std::uint64_t>> arrivals;  // (tick, seq)
  channel.set_receiver(
      [&](const Packet& p) { arrivals.emplace_back(network->now(), p.seq); });
  std::uint64_t seq = 0;
  for (int tick = 0; tick < 20; ++tick) {
    for (int i = 0; i < 50; ++i) {
      channel.Send(Packet{static_cast<std::uint32_t>(i % 3), seq++,
                          PacketType::kData});
    }
    network->Step();
  }
  network->RunUntilIdle();
  ASSERT_EQ(arrivals.size(), seq);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    ASSERT_LE(arrivals[i - 1].first, arrivals[i].first);
    if (arrivals[i - 1].first == arrivals[i].first) {
      // seq grows with send order.
      EXPECT_LT(arrivals[i - 1].second, arrivals[i].second)
          << "packets due on tick " << arrivals[i].first << " reordered";
    }
  }
}

TEST(ChannelTest, OneNetworkEventPerDueTickNotPerPacket) {
  // Guards the delay ring against falling back to one simulator event per
  // packet: 10k packets sent on one tick occupy at most one event per
  // distinct delay.
  auto network = MakeNetSim();
  const ChannelConfig config = Lossless(2, 10);
  Channel channel(*network, 24, config);
  std::uint64_t received = 0;
  channel.set_receiver([&](const Packet&) { ++received; });
  constexpr std::uint64_t kPackets = 10000;
  for (std::uint64_t seq = 0; seq < kPackets; ++seq) {
    channel.Send(Packet{static_cast<std::uint32_t>(seq % 97), seq,
                        PacketType::kData});
  }
  EXPECT_LE(network->pending(), config.delay_hi - config.delay_lo + 1);
  EXPECT_GT(network->pending(), 0u);
  network->RunUntilIdle();
  EXPECT_EQ(network->pending(), 0u);
  EXPECT_EQ(received, kPackets);
  EXPECT_EQ(channel.delivered(), kPackets);
}

TEST(ChannelTest, ReceiverResendingIntoItsOwnChannelSeesEachPacketOnce) {
  // A receiver that sends on the channel it is being delivered from (the
  // cluster's in-handler re-arms do this) must neither lose nor repeat a
  // packet: the new packet lands in another slot of the ring.
  auto network = MakeNetSim();
  ChannelConfig config;
  config.loss_probability = 0.1;
  config.delay_lo = 1;
  config.delay_hi = 4;
  Channel channel(*network, 25, config);
  constexpr std::uint64_t kFirst = 2000;
  constexpr std::uint64_t kHops = 3;  // each packet is forwarded twice
  std::vector<int> seen(kFirst * kHops, 0);
  channel.set_receiver([&](const Packet& p) {
    ++seen[p.seq];
    if (p.seq + kFirst < kFirst * kHops) {
      channel.Send(Packet{p.connection_id, p.seq + kFirst, PacketType::kData});
    }
  });
  for (std::uint64_t seq = 0; seq < kFirst; ++seq) {
    channel.Send(Packet{static_cast<std::uint32_t>(seq % 11), seq,
                        PacketType::kData});
    if ((seq & 15) == 0) {
      network->Step();
    }
  }
  network->RunUntilIdle();
  std::uint64_t received = 0;
  for (int count : seen) {
    ASSERT_LE(count, 1);
    received += static_cast<std::uint64_t>(count);
  }
  EXPECT_EQ(received, channel.delivered());
  EXPECT_EQ(channel.sent(), channel.dropped() + channel.delivered());
  EXPECT_GT(channel.sent(), kFirst * 2) << "forwarding never happened";
  EXPECT_GT(channel.dropped(), 0u);
}

TEST(ChannelTest, DelaysStayInWindowAcrossRingWrapAround) {
  // Sends on every tick for many laps of the (delay_hi + 1)-slot ring.
  auto network = MakeNetSim();
  const ChannelConfig config = Lossless(3, 7);
  Channel channel(*network, 26, config);
  std::uint64_t received = 0;
  channel.set_receiver([&](const Packet& p) {
    ++received;
    const Tick delay = network->now() - p.arg0;
    EXPECT_GE(delay, config.delay_lo);
    EXPECT_LE(delay, config.delay_hi);
  });
  const Tick ticks = 5 * (config.delay_hi + 1);
  std::uint64_t seq = 0;
  for (Tick t = 0; t < ticks; ++t) {
    for (int i = 0; i < 8; ++i) {
      channel.Send(Packet{2, seq++, PacketType::kData, network->now()});
    }
    network->Step();
  }
  network->RunUntilIdle();
  EXPECT_EQ(received, seq);
  EXPECT_EQ(channel.delivered(), seq);
}

}  // namespace
}  // namespace twheel::net
