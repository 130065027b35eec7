#include "src/concurrent/sharded_wheel.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"

namespace twheel::concurrent {

ShardedWheel::Shard::~Shard() {
  // Batches are normally drained before the wheel is torn down (DispatchPool
  // dispatches everything pending in Stop()); free stragglers regardless so an
  // aborted test cannot leak them.
  FireBatch* chain = batch_head.exchange(nullptr, std::memory_order_acquire);
  while (chain != nullptr) {
    FireBatch* next = chain->next;
    delete chain;
    chain = next;
  }
}

ShardedWheel::ShardedWheel(std::size_t shards, std::size_t table_size) {
  Construct(shards, table_size, nullptr);
}

ShardedWheel::ShardedWheel(std::size_t shards, std::size_t table_size,
                           const SubmitOptions& submit) {
  Construct(shards, table_size, &submit);
}

void ShardedWheel::Construct(std::size_t shards, std::size_t table_size,
                             const SubmitOptions* submit) {
  TWHEEL_ASSERT_MSG(IsPowerOfTwo(shards) && shards >= 1 && shards <= 256,
                    "shard count must be a power of two in [1, 256]");
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->wheel = std::make_unique<HashedWheelUnsorted>(table_size);
    if (submit != nullptr) {
      shard->submit = std::make_unique<ShardSubmitQueue>(*submit);
    }
    // Install the collector exactly once, pointing at storage that lives as long
    // as the shard itself. Installing a lambda that captures a tick-local vector
    // would leave the wheel's handler dangling after the tick returns — any expiry
    // dispatched outside that call (a future destructor drain, an overlapping
    // tick) would then write through a dead stack frame. Shard::collected is only
    // touched under Shard::mutex, which every wheel call already holds.
    Shard* raw = shard.get();
    raw->wheel->set_expiry_handler([raw](RequestId id, Tick when) {
      raw->collected.emplace_back(id, when);
    });
    shards_.push_back(std::move(shard));
  }
}

StartResult ShardedWheel::StartTimer(Duration interval, RequestId request_id) {
  const std::uint32_t index = static_cast<std::uint32_t>(
      next_shard_.fetch_add(1, std::memory_order_relaxed) & (shards_.size() - 1));
  Shard& shard = *shards_[index];
  if (shard.submit != nullptr) {
    client_starts_.fetch_add(1, std::memory_order_relaxed);
    if (interval == 0) {
      return TimerError::kZeroInterval;  // match the inner wheel's policy
    }
    // Lock-free path: capture the absolute deadline now, enqueue the command.
    // A tick racing this call may advance the clock before the command drains;
    // the drain then registers the remaining interval (min 1), so the timer
    // fires at max(deadline, drain tick + 1).
    const Tick deadline = now_.load(std::memory_order_acquire) + interval;
    StartResult result = shard.submit->SubmitStart(request_id, deadline);
    if (!result.has_value()) {
      return result;
    }
    live_.fetch_add(1, std::memory_order_relaxed);
    const TimerHandle local = result.value();
    return TimerHandle{(index << kShardShift) | local.slot, local.generation};
  }
  std::lock_guard<std::mutex> lock(shard.mutex);
  StartResult result = shard.wheel->StartTimer(interval, request_id);
  if (!result.has_value()) {
    return result;
  }
  TimerHandle inner = result.value();
  TWHEEL_ASSERT_MSG(inner.slot <= kSlotMask, "shard exceeded 2^24 concurrent timers");
  return TimerHandle{(index << kShardShift) | inner.slot, inner.generation};
}

StartResult ShardedWheel::StartPeriodic(Duration interval, RequestId request_id,
                                        std::uint64_t repeat_for) {
  const std::uint32_t index = static_cast<std::uint32_t>(
      next_shard_.fetch_add(1, std::memory_order_relaxed) & (shards_.size() - 1));
  Shard& shard = *shards_[index];
  if (shard.submit != nullptr) {
    client_starts_.fetch_add(1, std::memory_order_relaxed);
    if (interval == 0) {
      return TimerError::kZeroInterval;  // match the inner wheel's policy
    }
    // Same lock-free path as StartTimer; the cadence and repeat budget travel
    // in the registration entry, and the word carries the sticky periodic bit
    // (see ShardSubmitQueue::SubmitStartPeriodic).
    const Tick deadline = now_.load(std::memory_order_acquire) + interval;
    StartResult result = shard.submit->SubmitStartPeriodic(
        request_id, deadline, interval, repeat_for);
    if (!result.has_value()) {
      return result;
    }
    live_.fetch_add(1, std::memory_order_relaxed);
    client_periodic_starts_.fetch_add(1, std::memory_order_relaxed);
    const TimerHandle local = result.value();
    return TimerHandle{(index << kShardShift) | local.slot, local.generation};
  }
  std::lock_guard<std::mutex> lock(shard.mutex);
  StartResult result = shard.wheel->StartPeriodic(interval, request_id, repeat_for);
  if (!result.has_value()) {
    return result;
  }
  TimerHandle inner = result.value();
  TWHEEL_ASSERT_MSG(inner.slot <= kSlotMask, "shard exceeded 2^24 concurrent timers");
  return TimerHandle{(index << kShardShift) | inner.slot, inner.generation};
}

TimerError ShardedWheel::StopTimer(TimerHandle handle) {
  if (!handle.valid()) {
    return TimerError::kNoSuchTimer;
  }
  const std::uint32_t index = handle.slot >> kShardShift;
  if (index >= shards_.size()) {
    return TimerError::kNoSuchTimer;
  }
  Shard& shard = *shards_[index];
  if (shard.submit != nullptr) {
    // Client-view attempt count (the locked inner wheels count every attempt
    // that reaches them; see counts()).
    client_stops_.fetch_add(1, std::memory_order_relaxed);
    // Lock-free path: the CAS inside SubmitCancel is the commit point; kOk
    // means the timer can no longer fire, whether or not its start command has
    // even drained yet (pending-cancel reconciliation).
    const TimerError err =
        shard.submit->SubmitCancel(handle.slot & kSlotMask, handle.generation);
    if (err == TimerError::kOk) {
      live_.fetch_sub(1, std::memory_order_relaxed);
    }
    return err;
  }
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.wheel->StopTimer(TimerHandle{handle.slot & kSlotMask, handle.generation});
}

TimerError ShardedWheel::RestartTimer(TimerHandle handle, Duration new_interval) {
  if (!handle.valid()) {
    return TimerError::kNoSuchTimer;
  }
  const std::uint32_t index = handle.slot >> kShardShift;
  if (index >= shards_.size()) {
    return TimerError::kNoSuchTimer;
  }
  Shard& shard = *shards_[index];
  if (shard.submit != nullptr) {
    if (new_interval == 0) {
      return TimerError::kZeroInterval;  // match the inner wheel's policy
    }
    // Lock-free path: capture the new absolute deadline and commit via the
    // entry word (reserve-commit-publish, see SubmitRestart). A restart is
    // neither a start nor a cancel, so live_ is untouched either way.
    const Tick deadline = now_.load(std::memory_order_acquire) + new_interval;
    const TimerError err = shard.submit->SubmitRestart(
        handle.slot & kSlotMask, handle.generation, deadline);
    if (err == TimerError::kOk) {
      client_restarts_.fetch_add(1, std::memory_order_relaxed);
    }
    return err;
  }
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.wheel->RestartTimer(
      TimerHandle{handle.slot & kSlotMask, handle.generation}, new_interval);
}

std::size_t ShardedWheel::DrainSubmissions() {
  std::size_t total = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    if (shard.submit == nullptr) {
      return 0;
    }
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.submit->Drain(*shard.wheel);
  }
  return total;
}

std::size_t ShardedWheel::PerTickBookkeeping() {
  // Collect under each shard's lock, dispatch outside all locks. The permanent
  // per-shard collector (installed in the constructor) stages expiries in
  // Shard::collected; we drain each shard's stage while still holding its lock.
  // MPSC mode drains the shard's submission ring first — same lock acquisition —
  // so every command enqueued before this call is registered before its shard
  // advances.
  const bool mpsc = deferred();
  std::unique_lock<std::mutex> clock(clock_mutex_);
  const Tick target = now_.load(std::memory_order_relaxed) + 1;
  std::vector<PendingExpiry> pending;
  std::vector<std::pair<RequestId, Tick>> fires;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (mpsc) {
      shard.submit->Drain(*shard.wheel);
    }
    TWHEEL_ASSERT_MSG(shard.wheel->now() + 1 == target,
                      "shard clock out of step with the wheel's now()");
    shard.wheel->PerTickBookkeeping();
    shard.cursor.store(shard.wheel->now(), std::memory_order_release);
    if (mpsc) {
      for (const auto& [id, when] : shard.collected) {
        pending.push_back(PendingExpiry{s, id, when});
      }
    } else {
      fires.insert(fires.end(), shard.collected.begin(), shard.collected.end());
    }
    shard.collected.clear();
  }
  now_.fetch_add(1, std::memory_order_release);
  clock.unlock();

  if (mpsc) {
    ClaimFires(pending, fires);
  }
  return Dispatch(fires);
}

std::size_t ShardedWheel::AdvanceTo(Tick target) {
  std::unique_lock<std::mutex> clock(clock_mutex_);
  const Tick base = now_.load(std::memory_order_relaxed);
  // With several clock drivers, another may already have passed a target the
  // caller computed from an earlier now(): that step is then done.
  if (target <= base) {
    return 0;
  }
  // One lock acquisition per shard for the whole batch: drain the shard's
  // submission ring (MPSC mode), then advance. The drain-then-advance order is
  // what makes the NextExpiryHint contract sound for callers that jump: a
  // start whose enqueue completed before this call is registered here, before
  // any slot it could land in is crossed.
  const bool mpsc = deferred();
  std::vector<PendingExpiry> pending;
  std::vector<std::pair<RequestId, Tick>> fires;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (mpsc) {
      shard.submit->Drain(*shard.wheel);
    }
    TWHEEL_ASSERT_MSG(shard.wheel->now() == base,
                      "shard clock out of step with the wheel's now()");
    shard.wheel->AdvanceTo(target);
    shard.cursor.store(shard.wheel->now(), std::memory_order_release);
    if (mpsc) {
      for (const auto& [id, when] : shard.collected) {
        pending.push_back(PendingExpiry{s, id, when});
      }
    } else {
      fires.insert(fires.end(), shard.collected.begin(), shard.collected.end());
    }
    shard.collected.clear();
  }
  CommitNow(target);
  clock.unlock();

  // Each shard's stage is already chronological; the stable merge re-establishes
  // cross-shard tick order while keeping FIFO order within a tick (shards are
  // visited in the same order PerTickBookkeeping would visit them).
  if (mpsc) {
    std::stable_sort(pending.begin(), pending.end(),
                     [](const auto& a, const auto& b) { return a.when < b.when; });
    ClaimFires(pending, fires);
  } else {
    std::stable_sort(fires.begin(), fires.end(),
                     [](const auto& a, const auto& b) { return a.second < b.second; });
  }
  return Dispatch(fires);
}

bool ShardedWheel::ResolveClaim(std::uint32_t shard_index,
                                const RequestId& inner_id, Tick when,
                                std::vector<std::pair<RequestId, Tick>>& fires) {
  RequestId client_id = 0;
  switch (shards_[shard_index]->submit->ClaimFire(
      ShardSubmitQueue::InnerIdIndex(inner_id),
      ShardSubmitQueue::InnerIdGeneration(inner_id), &client_id)) {
    case ShardSubmitQueue::FireResolution::kDeliver:
      fires.emplace_back(client_id, when);
      client_fired_laps_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ShardSubmitQueue::FireResolution::kDeliverFinal:
      fires.emplace_back(client_id, when);
      client_expiries_.fetch_add(1, std::memory_order_relaxed);
      live_.fetch_sub(1, std::memory_order_relaxed);
      break;
    case ShardSubmitQueue::FireResolution::kStopInner:
      return true;
    case ShardSubmitQueue::FireResolution::kSuppress:
      break;
  }
  return false;
}

void ShardedWheel::ClaimFires(const std::vector<PendingExpiry>& expired,
                              std::vector<std::pair<RequestId, Tick>>& fires) {
  // Two-pass commit: claim every collected expiry (one-shots and final
  // periodic fires bump their entry's generation, so StopTimer on them now
  // returns kNoSuchTimer; non-final periodic fires bump the word's fire epoch,
  // keeping the handle live) before the caller dispatches any handler. Entries
  // whose cancel won the race are suppressed and reclaimed inside ClaimFire —
  // except cancelled periodic entries whose re-armed inner record is still
  // live, which need the shard mutex and are resolved in a third pass below.
  fires.reserve(fires.size() + expired.size());
  std::vector<PendingExpiry> stop_inner;
  for (const PendingExpiry& e : expired) {
    if (ResolveClaim(e.shard, e.id, e.when, fires)) {
      stop_inner.push_back(e);
    }
  }
  // Rare path (a cancel whose prompt-removal command was dropped, caught here
  // at the cancelled periodic's next fire): stop the ghost inner record under
  // its shard's mutex and reclaim the entry. live_ was already decremented by
  // the cancel's commit.
  for (const PendingExpiry& e : stop_inner) {
    Shard& shard = *shards_[e.shard];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.submit->ReclaimCancelledPeriodic(
        ShardSubmitQueue::InnerIdIndex(e.id),
        ShardSubmitQueue::InnerIdGeneration(e.id), *shard.wheel);
  }
}

std::size_t ShardedWheel::AdvanceShard(std::uint32_t shard_index, Tick target) {
  TWHEEL_ASSERT_MSG(shard_index < shards_.size(), "AdvanceShard: no such shard");
  Shard& shard = *shards_[shard_index];
  const bool mpsc = shard.submit != nullptr;
  std::vector<std::pair<RequestId, Tick>> fires;
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (mpsc) {
    shard.submit->Drain(*shard.wheel);
  }
  if (shard.wheel->now() < target) {
    shard.wheel->AdvanceTo(target);
  }
  if (mpsc) {
    // Claim while still holding the shard mutex: every fire is committed
    // against its registration word before the batch can become visible to any
    // dispatcher, so a thief can only ever claim a fully-drained, fully-claimed
    // bucket — never a half-drained one.
    fires.reserve(shard.collected.size());
    for (const auto& [id, when] : shard.collected) {
      if (ResolveClaim(shard_index, id, when, fires)) {
        // Ghost periodic record whose cancel won: the reclaim needs the shard
        // mutex, which this path already holds.
        shard.submit->ReclaimCancelledPeriodic(
            ShardSubmitQueue::InnerIdIndex(id),
            ShardSubmitQueue::InnerIdGeneration(id), *shard.wheel);
      }
    }
  } else {
    fires = std::move(shard.collected);
  }
  shard.collected.clear();
  const std::size_t claimed = fires.size();
  if (claimed != 0) {
    auto* batch = new FireBatch{++shard.published_seq, std::move(fires), nullptr};
    // Release so the dispatcher's acquire exchange of batch_head sees the
    // fully-built batch; the failure order can stay relaxed because a failed
    // CAS publishes nothing.
    FireBatch* head = shard.batch_head.load(std::memory_order_relaxed);
    do {
      batch->next = head;
    } while (!shard.batch_head.compare_exchange_weak(
        head, batch, std::memory_order_release, std::memory_order_relaxed));
    dispatch_batches_.fetch_add(1, std::memory_order_relaxed);
  }
  // Publish the cursor last (release): once the pool's barrier observes
  // cursor >= target, every batch this advance produced is already on the
  // stack, so "all cursors reached the target and all stacks are empty" is a
  // sound quiesce condition.
  shard.cursor.store(shard.wheel->now(), std::memory_order_release);
  return claimed;
}

std::size_t ShardedWheel::DispatchShard(std::uint32_t shard_index, bool owner) {
  TWHEEL_ASSERT_MSG(shard_index < shards_.size(), "DispatchShard: no such shard");
  Shard& shard = *shards_[shard_index];
  std::size_t delivered = 0;
  // Dispatch rights: one drainer at a time delivers this shard's batches, so
  // per-shard delivery stays serial and FIFO even when stolen. Losers leave
  // immediately — the rights holder re-checks the stack before releasing, so a
  // batch published while it was dispatching is never stranded.
  while (shard.batch_head.load(std::memory_order_acquire) != nullptr) {
    if (shard.dispatch_busy.exchange(true, std::memory_order_acquire)) {
      break;
    }
    // Sole rights holder from here: take the whole stack in one exchange and
    // reverse the newest-first chain into publication order.
    FireBatch* chain = shard.batch_head.exchange(nullptr, std::memory_order_acquire);
    FireBatch* fifo = nullptr;
    while (chain != nullptr) {
      FireBatch* next = chain->next;
      chain->next = fifo;
      fifo = chain;
      chain = next;
    }
    while (fifo != nullptr) {
      FireBatch* next = fifo->next;
      // Protocol self-check, surfaced as a counter instead of trusted: batches
      // arrive in exactly the order the shard advances published them (seq is
      // dense), and expiry ticks never run backwards within a shard.
      if (fifo->seq != shard.dispatched_seq + 1 ||
          (!fifo->fires.empty() &&
           fifo->fires.front().second < shard.last_dispatched_when)) {
        dispatch_order_violations_.fetch_add(1, std::memory_order_relaxed);
      }
      shard.dispatched_seq = fifo->seq;
      if (!fifo->fires.empty()) {
        shard.last_dispatched_when = fifo->fires.back().second;
      }
      if (!owner) {
        dispatch_steals_.fetch_add(1, std::memory_order_relaxed);
      }
      delivered += Dispatch(fifo->fires);
      delete fifo;
      fifo = next;
    }
    shard.dispatch_busy.store(false, std::memory_order_release);
  }
  return delivered;
}

void ShardedWheel::CommitNow(Tick target) {
  // Monotone max: now() is the globally *completed* clock, so it only moves
  // once the caller (DispatchPool's barrier, or the single-driver paths) has
  // seen every shard reach `target`.
  Tick cur = now_.load(std::memory_order_relaxed);
  while (cur < target && !now_.compare_exchange_weak(cur, target,
                                                     std::memory_order_release,
                                                     std::memory_order_relaxed)) {
  }
}

Tick ShardedWheel::ShardCursor(std::uint32_t shard_index) const {
  TWHEEL_ASSERT_MSG(shard_index < shards_.size(), "ShardCursor: no such shard");
  return shards_[shard_index]->cursor.load(std::memory_order_acquire);
}

bool ShardedWheel::HasPendingBatches(std::uint32_t shard_index) const {
  TWHEEL_ASSERT_MSG(shard_index < shards_.size(),
                    "HasPendingBatches: no such shard");
  const Shard& shard = *shards_[shard_index];
  // Head before rights flag — see the header comment for why this order makes
  // a false return authoritative.
  if (shard.batch_head.load(std::memory_order_acquire) != nullptr) {
    return true;
  }
  return shard.dispatch_busy.load(std::memory_order_acquire);
}

std::size_t ShardedWheel::Dispatch(
    const std::vector<std::pair<RequestId, Tick>>& fires) {
  ExpiryHandler handler;
  {
    std::lock_guard<std::mutex> lock(handler_mutex_);
    handler = handler_;
  }
  if (handler) {
    for (const auto& [id, when] : fires) {
      handler(id, when);
    }
  }
  return fires.size();
}

std::optional<Tick> ShardedWheel::NextExpiryHint() const {
  std::optional<Tick> best;
  const auto fold = [&best](std::optional<Tick> hint) {
    if (hint.has_value() && (!best.has_value() || *hint < *best)) {
      best = hint;
    }
  };
  for (const auto& shard_ptr : shards_) {
    if (shard_ptr->submit != nullptr) {
      // Pending (not-yet-drained) submissions first: EarliestPending is never
      // later than the deadline of any submission completed before this call,
      // so the merged hint cannot skip past one.
      fold(shard_ptr->submit->EarliestPending());
    }
    std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    fold(shard_ptr->wheel->NextExpiryHint());
  }
  return best;
}

bool ShardedWheel::FastForward(Tick target) {
  // The single-writer precondition (nothing due before target) cannot be verified
  // atomically across shards, so delegate to AdvanceTo: anything that does come
  // due — including timers whose start commands are still queued and drain at
  // the head of the batch — is dispatched rather than silently skipped, and
  // dead time is still crossed in one batch per shard.
  AdvanceTo(target);
  return true;
}

std::size_t ShardedWheel::outstanding() const {
  if (deferred()) {
    // Started minus {fired, cancelled}; counts timers still awaiting their
    // drain as outstanding (the client holds a live handle for them).
    return static_cast<std::size_t>(live_.load(std::memory_order_relaxed));
  }
  std::size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    total += shard_ptr->wheel->outstanding();
  }
  return total;
}

metrics::OpCounts ShardedWheel::counts() const {
  metrics::OpCounts merged;
  for (const auto& shard_ptr : shards_) {
    if (shard_ptr->submit != nullptr) {
      merged.enqueued_starts += shard_ptr->submit->enqueued_starts();
      merged.drained_commands += shard_ptr->submit->drained_commands();
      merged.submit_retries += shard_ptr->submit->submit_retries();
      merged.restart_coalesced += shard_ptr->submit->coalesced_restarts();
    }
    std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    merged += shard_ptr->wheel->counts();
  }
  // Ticks are per-shard internally; report wall ticks.
  merged.ticks = now_.load(std::memory_order_relaxed);
  if (deferred()) {
    // Report the client's view of START_TIMER: the inner wheels only see the
    // drained registrations (and never see cancelled-before-drain starts).
    merged.start_calls = client_starts_.load(std::memory_order_relaxed);
    // Same for restarts: one committed client restart may surface in the inner
    // wheels as a relink, a relink-after-suppressed-fire (a fresh inner
    // start), or nothing at all (cancelled before its command drained).
    merged.restart_calls = client_restarts_.load(std::memory_order_relaxed);
    // And for periodic registrations (the off-cadence first-fire relink at
    // drain is bookkeeping, not a client restart — it is already excluded by
    // the restart_calls override above).
    merged.periodic_starts = client_periodic_starts_.load(std::memory_order_relaxed);
    // Client-view deliveries and stop attempts: the inner wheels count ghost
    // expiries (a cancelled timer whose prompt removal lost the race to its
    // own collection — the claim suppresses the fire, but the inner wheel
    // already counted it) and only the drained removal commands. Under N
    // concurrent drainers those races are routine, so the snapshot reports the
    // claim-point counters instead; with them the conservation law
    //   start_calls == expiries + successful cancels + outstanding
    // is exact at quiesce whenever no start was rejected, no matter how many
    // drainers raced (each start resolves exactly once as a delivered final
    // fire, a committed cancel, or a live registration).
    merged.expiries = client_expiries_.load(std::memory_order_relaxed);
    merged.periodic_fires = client_fired_laps_.load(std::memory_order_relaxed);
    merged.stop_calls = client_stops_.load(std::memory_order_relaxed);
  }
  merged.dispatch_batches = dispatch_batches_.load(std::memory_order_relaxed);
  merged.dispatch_steals = dispatch_steals_.load(std::memory_order_relaxed);
  return merged;
}

TimerService::SpaceProfile ShardedWheel::Space() const {
  SpaceProfile profile;
  for (const auto& shard_ptr : shards_) {
    if (shard_ptr->submit != nullptr) {
      profile.fixed_bytes += shard_ptr->submit->FixedBytes();
    }
    std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    SpaceProfile shard_profile = shard_ptr->wheel->Space();
    profile.fixed_bytes += shard_profile.fixed_bytes;
    profile.essential_record_bytes = shard_profile.essential_record_bytes;
  }
  return profile;
}

void ShardedWheel::set_expiry_handler(ExpiryHandler handler) {
  std::lock_guard<std::mutex> lock(handler_mutex_);
  handler_ = std::move(handler);
}

}  // namespace twheel::concurrent
