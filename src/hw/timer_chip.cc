#include "src/hw/timer_chip.h"

#include "src/base/assert.h"

namespace twheel::hw {

ChipAssistedWheel::ChipAssistedWheel(std::size_t table_size, std::size_t max_timers)
    : TimerServiceBase(max_timers),
      shift_(Log2Floor(table_size)),
      slots_(table_size),
      busy_(table_size, false) {
  TWHEEL_ASSERT_MSG(IsPowerOfTwo(table_size) && table_size >= 2,
                    "table size must be a power of two >= 2");
}

ChipAssistedWheel::~ChipAssistedWheel() {
  for (auto& slot : slots_) {
    while (TimerRecord* rec = slot.front()) {
      rec->Unlink();
      ReleaseRecord(rec);
    }
  }
}

StartResult ChipAssistedWheel::StartTimer(Duration interval, RequestId request_id) {
  ++counts_.start_calls;
  if (interval == 0) {
    return TimerError::kZeroInterval;
  }
  TimerRecord* rec = AllocateRecord(interval, request_id);
  if (rec == nullptr) {
    return TimerError::kNoCapacity;
  }
  LinkToQueue(rec);
  ++counts_.insert_link_ops;
  return rec->self;
}

TimerError ChipAssistedWheel::StopTimer(TimerHandle handle) {
  ++counts_.stop_calls;
  TimerRecord* rec = Resolve(handle);
  if (rec == nullptr) {
    return TimerError::kNoSuchTimer;
  }
  UnlinkFromQueue(rec);
  ++counts_.delete_unlink_ops;
  ReleaseRecord(rec);
  return TimerError::kOk;
}

TimerError ChipAssistedWheel::RestartTimer(TimerHandle handle,
                                           Duration new_interval) {
  TimerError error = TimerError::kOk;
  TimerRecord* rec = ResolveForRestart(handle, new_interval, &error);
  if (rec == nullptr) {
    return error;
  }
  UnlinkFromQueue(rec);
  StampRestart(rec, new_interval);
  LinkToQueue(rec);
  return TimerError::kOk;
}

void ChipAssistedWheel::LinkToQueue(TimerRecord* rec) {
  const std::size_t slot_index = rec->expiry_tick & mask();
  rec->rounds = (rec->interval - 1) >> shift_;
  IntrusiveList<TimerRecord>& queue = slots_[slot_index];
  // "When the host inserts a timer into an empty queue pointed to by array element
  // X it tells the chip about this new queue."
  if (queue.empty() && slot_index != draining_) {
    NotifyBusy(slot_index);
  }
  queue.PushBack(rec);
}

void ChipAssistedWheel::UnlinkFromQueue(TimerRecord* rec) {
  const std::size_t slot_index = rec->expiry_tick & mask();
  rec->Unlink();
  // "When the host deletes a timer entry from some queue and leaves behind an empty
  // queue it needs to inform the chip."
  if (slots_[slot_index].empty() && slot_index != draining_) {
    NotifyFree(slot_index);
  }
}

std::size_t ChipAssistedWheel::PerTickBookkeeping() {
  ++counts_.ticks;
  ++now_;
  // Chip side: the counter steps; a clear busy bit costs the host nothing — note
  // that unlike the plain Scheme 6 wheel, no host-side empty_slot_check is charged.
  ++chip_scans_;
  const std::size_t slot_index = static_cast<std::size_t>(now_ & mask());
  if (!busy_[slot_index]) {
    return 0;
  }

  // "It interrupts the host and gives the host the address of the queue."
  ++host_interrupts_;
  IntrusiveList<TimerRecord>& queue = slots_[slot_index];
  TWHEEL_ASSERT_MSG(!queue.empty(), "busy bit set on an empty queue");

  std::size_t expired = 0;
  IntrusiveList<TimerRecord> pending;
  pending.SpliceAll(queue);
  draining_ = slot_index;
  while (TimerRecord* rec = pending.front()) {
    ++counts_.decrement_visits;
    if (rec->rounds == 0) {
      TWHEEL_ASSERT(rec->expiry_tick == now_);
      ++expired;
      // A period that is a multiple of the table size relinks into `queue`, a
      // revolution away — never into `pending`.
      if (TryFirePeriodic(rec)) {
        continue;
      }
      rec->Unlink();
      Expire(rec);
    } else {
      rec->Unlink();
      --rec->rounds;
      queue.PushBack(rec);
    }
  }
  draining_ = kNotDraining;
  // The busy bit stayed set through the drain: laps, restarts, starts and stops
  // that touched this queue mid-drain (periodic re-arms, expiry handlers) sent
  // no notifications. Settle it once, from the queue's final state.
  if (queue.empty()) {
    NotifyFree(slot_index);
  }
  return expired;
}

}  // namespace twheel::hw
