// A timing decorator around any TimerService, for the traced run.
//
// It forwards every call to the wrapped service and records a Scope around
// the ones that do work. As a host (Role::kHost) it times START/STOP/RESTART
// and PER_TICK_BOOKKEEPING as the `core` layer and wraps the installed expiry
// handler (TimerServer::OnExpiry) in a `net.server` span, so the server's
// handler time is split out of the tick. As the network simulator's event set
// (Role::kNetwork) it times only StartTimer, which is how net::Channel::Send
// enqueues a packet.
//
// TimerServer::StartDispatchPool dynamic-casts its host to ShardedWheel, so a
// pooled host cannot be decorated; the pooled workload reads its core split
// from ShardedWheel::counts() instead.

#ifndef TWHEEL_E2EBENCH_TIMING_SERVICE_H_
#define TWHEEL_E2EBENCH_TIMING_SERVICE_H_

#include <memory>
#include <utility>

#include "e2ebench/trace.h"
#include "src/core/timer_service.h"

namespace e2ebench {

class TimingService final : public twheel::TimerService {
 public:
  enum class Role { kHost, kNetwork };

  TimingService(std::unique_ptr<twheel::TimerService> inner, Role role)
      : inner_(std::move(inner)), role_(role) {}

  twheel::StartResult StartTimer(twheel::Duration interval,
                                 twheel::RequestId id) override {
    Scope s(role_ == Role::kHost ? Span::kStart : Span::kNetSend);
    return inner_->StartTimer(interval, id);
  }
  twheel::StartResult StartPeriodic(twheel::Duration interval,
                                    twheel::RequestId id,
                                    std::uint64_t repeat_for) override {
    Scope s(role_ == Role::kHost ? Span::kStart : Span::kNetSend);
    return inner_->StartPeriodic(interval, id, repeat_for);
  }
  twheel::TimerError StopTimer(twheel::TimerHandle handle) override {
    if (role_ == Role::kNetwork) {
      return inner_->StopTimer(handle);
    }
    Scope s(Span::kStop);
    return inner_->StopTimer(handle);
  }
  twheel::TimerError RestartTimer(twheel::TimerHandle handle,
                                  twheel::Duration interval) override {
    if (role_ == Role::kNetwork) {
      return inner_->RestartTimer(handle, interval);
    }
    Scope s(Span::kRestart);
    return inner_->RestartTimer(handle, interval);
  }
  std::size_t PerTickBookkeeping() override {
    if (role_ == Role::kNetwork) {
      return inner_->PerTickBookkeeping();
    }
    Scope s(Span::kTick);
    return inner_->PerTickBookkeeping();
  }
  std::size_t AdvanceTo(twheel::Tick target) override {
    if (role_ == Role::kNetwork) {
      return inner_->AdvanceTo(target);
    }
    Scope s(Span::kTick);
    return inner_->AdvanceTo(target);
  }

  twheel::Tick now() const override { return inner_->now(); }
  std::size_t outstanding() const override { return inner_->outstanding(); }
  twheel::metrics::OpCounts counts() const override { return inner_->counts(); }
  std::string_view name() const override { return inner_->name(); }
  SpaceProfile Space() const override { return inner_->Space(); }
  std::optional<twheel::Tick> NextExpiryHint() const override {
    return inner_->NextExpiryHint();
  }
  bool FastForward(twheel::Tick target) override {
    return inner_->FastForward(target);
  }

  void set_expiry_handler(twheel::ExpiryHandler handler) override {
    if (role_ == Role::kNetwork) {
      inner_->set_expiry_handler(std::move(handler));
      return;
    }
    inner_->set_expiry_handler(
        [handler = std::move(handler)](twheel::RequestId id,
                                       twheel::Tick now) {
          Scope s(Span::kExpiry);
          handler(id, now);
        });
  }

 private:
  std::unique_ptr<twheel::TimerService> inner_;
  Role role_;
};

}  // namespace e2ebench

#endif  // TWHEEL_E2EBENCH_TIMING_SERVICE_H_
