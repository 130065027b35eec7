#include "src/concurrent/dispatch_pool.h"

#include <algorithm>
#include <chrono>

#include "src/base/assert.h"

namespace twheel::concurrent {

DispatchPool::DispatchPool(ShardedWheel& wheel, DispatchOptions options)
    : wheel_(wheel), options_(options) {
  TWHEEL_ASSERT_MSG(options_.drainers >= 1, "pool needs at least one drainer");
  threads_.reserve(options_.drainers);
  for (std::size_t i = 0; i < options_.drainers; ++i) {
    threads_.emplace_back([this, i] { DrainerLoop(i); });
  }
}

DispatchPool::~DispatchPool() { Stop(); }

void DispatchPool::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load(std::memory_order_relaxed)) {
      return;
    }
    stopping_.store(true, std::memory_order_relaxed);
  }
  wakeup_.notify_all();
  done_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  // All drainers have advanced their shards to the last published target and
  // exited; anything still on a batch stack was claimed but not delivered (a
  // drainer stops stealing once stopping_ is set, so another owner's batch can
  // be left behind). Deliver it serially here so exactly-once holds across
  // shutdown — these calls run on the caller's thread, before Stop returns, so
  // the "no bookkeeping after Stop" contract is kept.
  for (std::uint32_t s = 0; s < wheel_.num_shards(); ++s) {
    fires_dispatched_.fetch_add(wheel_.DispatchShard(s, /*owner=*/true),
                                std::memory_order_relaxed);
  }
  CommitCompletedClock();
}

std::size_t DispatchPool::AdvanceTo(Tick target) {
  const std::uint64_t before = fires_dispatched_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load(std::memory_order_relaxed)) {
      return 0;  // a target published after Stop() would reach only some shards
    }
    Tick cur = target_.load(std::memory_order_relaxed);
    while (cur < target &&
           !target_.compare_exchange_weak(cur, target,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
    }
  }
  wakeup_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Timed re-check instead of a bare predicate wait: the barrier condition
    // is a function of lock-free wheel state (cursors, batch stacks, rights
    // flags), not of anything guarded by mutex_, so a notification can never
    // be relied on to pair with the final state transition.
    while (!stopping_.load(std::memory_order_relaxed) && !EpochDone(target)) {
      done_.wait_for(lock, std::chrono::microseconds(200));
    }
  }
  CommitCompletedClock();
  return static_cast<std::size_t>(
      fires_dispatched_.load(std::memory_order_relaxed) - before);
}

void DispatchPool::DrainerLoop(std::size_t index) {
  // Advance to each published target, then keep stealing until the whole
  // epoch is delivered (an idle drainer lending its core to a burst-hit shard
  // is exactly the scaling mechanism under test). A published target is
  // always finished, even when Stop() arrives first: that is what leaves every
  // shard at the same cursor after the pool stops.
  Tick completed = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wakeup_.wait(lock, [this, completed] {
      return stopping_.load(std::memory_order_relaxed) ||
             target_.load(std::memory_order_relaxed) > completed;
    });
    const Tick t = target_.load(std::memory_order_acquire);
    if (t <= completed) {
      return;  // stopping, and nothing left to finish
    }
    lock.unlock();
    AdvanceOwned(index, t);
    completed = t;
    while (options_.steal && !stopping_.load(std::memory_order_relaxed) &&
           !EpochDone(t)) {
      if (StealSweep(index) == 0) {
        std::this_thread::yield();
      }
    }
    CommitCompletedClock();
    done_.notify_all();
    lock.lock();
  }
}

void DispatchPool::AdvanceOwned(std::size_t index, Tick target) {
  for (std::uint32_t s = static_cast<std::uint32_t>(index);
       s < wheel_.num_shards(); s += static_cast<std::uint32_t>(options_.drainers)) {
    wheel_.AdvanceShard(s, target);
    fires_dispatched_.fetch_add(wheel_.DispatchShard(s, /*owner=*/true),
                                std::memory_order_relaxed);
  }
}

std::size_t DispatchPool::StealSweep(std::size_t index) {
  if (!options_.steal) {
    return 0;
  }
  std::size_t fired = 0;
  for (std::uint32_t s = 0; s < wheel_.num_shards(); ++s) {
    if (s % options_.drainers == index) {
      continue;  // own shards are dispatched inline by AdvanceOwned
    }
    if (wheel_.HasPendingBatches(s)) {
      fired += wheel_.DispatchShard(s, /*owner=*/false);
    }
  }
  fires_dispatched_.fetch_add(fired, std::memory_order_relaxed);
  return fired;
}

bool DispatchPool::EpochDone(Tick target) const {
  // Order matters: a shard's batches are published before its cursor (release)
  // reaches the target, and HasPendingBatches reads the stack head before the
  // rights flag, so "cursor reached target, stack empty, rights free" read in
  // this order proves the shard's epoch work is fully delivered.
  for (std::uint32_t s = 0; s < wheel_.num_shards(); ++s) {
    if (wheel_.ShardCursor(s) < target) {
      return false;
    }
  }
  for (std::uint32_t s = 0; s < wheel_.num_shards(); ++s) {
    if (wheel_.HasPendingBatches(s)) {
      return false;
    }
  }
  return true;
}

void DispatchPool::CommitCompletedClock() {
  Tick min_cursor = 0;
  for (std::uint32_t s = 0; s < wheel_.num_shards(); ++s) {
    const Tick c = wheel_.ShardCursor(s);
    min_cursor = s == 0 ? c : std::min(min_cursor, c);
  }
  wheel_.CommitNow(min_cursor);
}

}  // namespace twheel::concurrent
