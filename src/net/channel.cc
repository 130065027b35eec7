#include "src/net/channel.h"

#include <algorithm>

#include "src/core/timer_facility.h"

namespace twheel::net {
namespace {

ChannelConfig ClampDelays(ChannelConfig config) {
  config.delay_lo = std::max<Duration>(config.delay_lo, 1);
  config.delay_hi = std::max(config.delay_hi, config.delay_lo);
  return config;
}

}  // namespace

std::unique_ptr<TimerService> MakeNetworkService() {
  FacilityConfig config;
  config.scheme = SchemeId::kScheme3Heap;
  return MakeTimerService(config);
}

Channel::Channel(sim::Simulator& network, std::uint64_t seed,
                 ChannelConfig config)
    : network_(network),
      seed_(seed),
      config_(ClampDelays(config)),
      ring_(config_.delay_hi + 1) {}

void Channel::DeliverSlot(Tick due) {
  delivering_.swap(ring_[due % ring_.size()]);
  delivered_.fetch_add(delivering_.size(), std::memory_order_relaxed);
  for (const Packet& packet : delivering_) {
    receiver_(packet);
  }
  delivering_.clear();
}

}  // namespace twheel::net
