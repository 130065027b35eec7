#include "src/net/timer_server.h"

#include <utility>

#include "src/concurrent/sharded_wheel.h"
#include "src/net/wire.h"

namespace twheel::net {

TimerServer::TimerServer(std::unique_ptr<TimerService> host, Channel& to_client)
    : host_(std::move(host)), to_client_(to_client) {
  host_->set_expiry_handler(
      [this](RequestId cookie, twheel::Tick now) { OnExpiry(cookie, now); });
}

TimerServer::~TimerServer() { StopDispatchPool(); }

void TimerServer::Register(RequestId cookie, const Packet& request) {
  Stripe& stripe = StripeFor(cookie);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  // Cancel-and-replace: a duplicate set (client retry, or reuse of a timer
  // name whose fire callback was lost) supersedes the live registration.
  SessionTable::Entry* live = stripe.timers.Find(cookie);
  if (live != nullptr &&
      host_->StopTimer(live->value.handle) == TimerError::kOk) {
    ++stripe.stats.replaced;
  }
  const bool periodic = request.type == PacketType::kTimerSetPeriodic;
  const Duration interval = static_cast<Duration>(request.arg0);
  StartResult started =
      periodic ? host_->StartPeriodic(interval, cookie, request.arg1)
               : host_->StartTimer(interval, cookie);
  if (!started.has_value()) {
    ++stripe.stats.rejected;
    if (live != nullptr) {
      stripe.timers.Erase(live);
    }
    return;
  }
  const Registration reg{started.value(), periodic ? request.arg1 : 1};
  if (live != nullptr) {
    live->value = reg;
  } else {
    stripe.timers.Insert(cookie, reg);
  }
  ++(periodic ? stripe.stats.periodic_sets : stripe.stats.sets);
}

void TimerServer::OnRequest(const Packet& request) {
  const RequestId cookie = PackTimerCookie(request.connection_id, request.seq);
  switch (request.type) {
    case PacketType::kTimerSet:
    case PacketType::kTimerSetPeriodic:
      Register(cookie, request);
      return;
    case PacketType::kTimerRestart: {
      Stripe& stripe = StripeFor(cookie);
      std::lock_guard<std::mutex> lock(stripe.mutex);
      SessionTable::Entry* live = stripe.timers.Find(cookie);
      // The relink contract keeps the handle valid, so the table entry is
      // untouched; the periodic's cadence and budget continue from the moved
      // deadline (TimerService::RestartTimer doc).
      if (live != nullptr &&
          host_->RestartTimer(live->value.handle,
                              static_cast<Duration>(request.arg0)) ==
              TimerError::kOk) {
        ++stripe.stats.restarts;
      } else {
        ++stripe.stats.restart_misses;
      }
      return;
    }
    case PacketType::kTimerCancel: {
      Stripe& stripe = StripeFor(cookie);
      std::lock_guard<std::mutex> lock(stripe.mutex);
      SessionTable::Entry* live = stripe.timers.Find(cookie);
      if (live == nullptr) {
        ++stripe.stats.cancel_misses;
        return;
      }
      ++(host_->StopTimer(live->value.handle) == TimerError::kOk
             ? stripe.stats.cancels
             : stripe.stats.cancel_misses);
      stripe.timers.Erase(live);
      return;
    }
    default:
      return;  // transport packets are not ours
  }
}

bool TimerServer::OnWire(const std::uint8_t* data, std::size_t size) {
  std::optional<Packet> decoded = DecodePacket(data, size);
  if (!decoded.has_value()) {
    decode_rejects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  OnRequest(*decoded);
  return true;
}

void TimerServer::OnExpiry(RequestId cookie, twheel::Tick now) {
  {
    Stripe& stripe = StripeFor(cookie);
    std::lock_guard<std::mutex> lock(stripe.mutex);
    SessionTable::Entry* live = stripe.timers.Find(cookie);
    if (live == nullptr) {
      return;  // raced with a cancel the host resolved differently; drop
    }
    Registration& reg = live->value;
    if (reg.remaining != 1) {  // armed: the host re-linked the periodic
      if (reg.remaining > 1) {
        --reg.remaining;
      }
      ++stripe.stats.periodic_laps;
    } else {
      stripe.timers.Erase(live);
    }
  }
  // Build and send outside the stripe lock: the send mutex alone serializes
  // concurrent drainers into the single-threaded Channel.
  Packet fire;
  fire.connection_id = CookieSession(cookie);
  fire.seq = CookieTimer(cookie);
  fire.type = PacketType::kTimerFire;
  fire.arg0 = now;
  std::lock_guard<std::mutex> lock(send_mutex_);
  ++fires_sent_;
  to_client_.Send(fire);
}

void TimerServer::Tick() {
  if (pool_ != nullptr) {
    pool_->AdvanceTo(host_->now() + 1);
    return;
  }
  host_->PerTickBookkeeping();
}

bool TimerServer::StartDispatchPool(const concurrent::DispatchOptions& options) {
  if (pool_ != nullptr) {
    return false;
  }
  auto* sharded = dynamic_cast<concurrent::ShardedWheel*>(host_.get());
  if (sharded == nullptr) {
    return false;
  }
  pool_ = std::make_unique<concurrent::DispatchPool>(*sharded, options);
  return true;
}

void TimerServer::StopDispatchPool() {
  if (pool_ != nullptr) {
    pool_->Stop();
    pool_.reset();
  }
}

TimerServerStats TimerServer::stats() const {
  TimerServerStats total;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    total += stripe.stats;
  }
  {
    std::lock_guard<std::mutex> lock(send_mutex_);
    total.fires_sent = fires_sent_;
  }
  total.decode_rejects = decode_rejects_.load(std::memory_order_relaxed);
  return total;
}

std::size_t TimerServer::registrations() const {
  std::size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    total += stripe.timers.size();
  }
  return total;
}

}  // namespace twheel::net
