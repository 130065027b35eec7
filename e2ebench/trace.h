// Span ledger for the traced run.
//
// Every call the benchmark makes into a layer's public functions can be wrapped
// in a Scope. Scopes nest per thread: a scope's self time is its duration minus
// the time its child scopes cover, so a layer's self time excludes the work of
// the layers it calls into. Spans and counts stay in memory (one Ledger per
// thread) and are summed when the run ends.
//
// Nothing here is compiled into the library: the spans sit around public calls
// in the benchmark's own files (timing_service.h and the workload files).

#ifndef TWHEEL_E2EBENCH_TRACE_H_
#define TWHEEL_E2EBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace e2ebench {

// One span kind per timed public call. Each belongs to one layer.
enum class Span : int {
  kGen,         // workload: TimerWorkload::Tick / the bench's own generator
  kCallback,    // workload: TimerWorkload::OnCallback / client fire handler
  kCodec,       // net.wire: EncodePacket + DecodePacket
  kNetSend,     // net.channel: the network simulator's StartTimer (packet enqueue)
  kNetStep,     // net.channel: network Simulator::Step (packet delivery)
  kRequest,     // net.server: TimerServer::OnRequest
  kExpiry,      // net.server: the host's expiry handler (TimerServer::OnExpiry)
  kStart,       // core: StartTimer / StartPeriodic
  kStop,        // core: StopTimer
  kRestart,     // core: RestartTimer
  kTick,        // core: PerTickBookkeeping
  kPoolTick,    // concurrent: TimerServer::Tick through the DispatchPool
  kClientOp,    // cluster: TimerCluster::Set / Restart / Cancel
  kClusterStep, // cluster: TimerCluster::Step
  kCount
};
inline constexpr int kSpanCount = static_cast<int>(Span::kCount);

enum class Layer : int {
  kWorkload,
  kWire,
  kChannel,
  kServer,
  kCore,
  kConcurrent,
  kCluster,
  kCount
};
inline constexpr int kLayerCount = static_cast<int>(Layer::kCount);

inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "workload", "net.wire", "net.channel", "net.server",
    "core",     "concurrent", "cluster"};

constexpr Layer LayerOf(Span span) {
  switch (span) {
    case Span::kGen:
    case Span::kCallback:
      return Layer::kWorkload;
    case Span::kCodec:
      return Layer::kWire;
    case Span::kNetSend:
    case Span::kNetStep:
      return Layer::kChannel;
    case Span::kRequest:
    case Span::kExpiry:
      return Layer::kServer;
    case Span::kStart:
    case Span::kStop:
    case Span::kRestart:
    case Span::kTick:
      return Layer::kCore;
    case Span::kPoolTick:
      return Layer::kConcurrent;
    default:
      return Layer::kCluster;
  }
}

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Span timestamps: the cycle counter where there is one (a steady_clock read
// costs about twice as much on virtual machines, and spans sit around calls
// of a few hundred ns), converted to ns by Tracer::Calibrate.
inline std::uint64_t SpanClock() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return NowNs();
#endif
}

// Per-thread totals in SpanClock units. Only the owning thread writes; the
// run's end reads them after the drainers have quiesced, so relaxed
// load/store pairs suffice.
struct Ledger {
  std::array<std::atomic<std::uint64_t>, kSpanCount> self_ticks{};
  std::array<std::atomic<std::uint64_t>, kSpanCount> calls{};

  void Add(Span span, std::uint64_t ticks) {
    auto i = static_cast<std::size_t>(span);
    self_ticks[i].store(self_ticks[i].load(std::memory_order_relaxed) + ticks,
                        std::memory_order_relaxed);
    calls[i].store(calls[i].load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  }
};

// Summed view of every thread's ledger, in ns.
struct Totals {
  std::array<std::uint64_t, kSpanCount> self_ns{};
  std::array<std::uint64_t, kSpanCount> calls{};

  std::uint64_t ns(Span s) const { return self_ns[static_cast<int>(s)]; }
  std::uint64_t n(Span s) const { return calls[static_cast<int>(s)]; }
  // Mean self time per call, 0 when the span never ran.
  double PerCallNs(Span s) const {
    return n(s) == 0 ? 0.0 : static_cast<double>(ns(s)) / n(s);
  }
  std::uint64_t LayerNs(Layer layer) const {
    std::uint64_t total = 0;
    for (int i = 0; i < kSpanCount; ++i) {
      if (LayerOf(static_cast<Span>(i)) == layer) {
        total += self_ns[i];
      }
    }
    return total;
  }
};

class Tracer {
 public:
  // The calling thread's ledger, registered on first use.
  static Ledger& Local() {
    if (mine_ == nullptr) {
      mine_ = Register();
    }
    return *mine_;
  }

  // Totals over the main thread only (`main_only`) or over every thread,
  // converted to ns at `ns_per_tick` (see Calibrate).
  static Totals Sum(bool main_only, double ns_per_tick);
  // ns per SpanClock unit over an interval both clocks measured.
  static double Calibrate(std::uint64_t ns, std::uint64_t ticks) {
    return ticks == 0 ? 1.0
                      : static_cast<double>(ns) / static_cast<double>(ticks);
  }
  static void Reset();
  // Marks the calling thread as the step-driving thread.
  static void SetMainThread() { main_ = &Local(); }

 private:
  static Ledger* Register();

  static inline thread_local Ledger* mine_ = nullptr;
  static inline std::mutex mutex_;
  static inline std::vector<std::unique_ptr<Ledger>> ledgers_;
  static inline Ledger* main_ = nullptr;
};

// A timed span on the current thread.
class Scope {
 public:
  explicit Scope(Span span) : span_(span), parent_(top_), start_(SpanClock()) {
    top_ = this;
  }
  ~Scope() {
    const std::uint64_t total = SpanClock() - start_;
    // Guards a thread migrating between cores whose counters disagree.
    Tracer::Local().Add(span_, total > child_ticks_ ? total - child_ticks_ : 0);
    if (parent_ != nullptr) {
      parent_->child_ticks_ += total;
    }
    top_ = parent_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  static inline thread_local Scope* top_ = nullptr;

  Span span_;
  Scope* parent_;
  std::uint64_t start_;
  std::uint64_t child_ticks_ = 0;
};

inline Ledger* Tracer::Register() {
  std::lock_guard<std::mutex> lock(mutex_);
  ledgers_.push_back(std::make_unique<Ledger>());
  return ledgers_.back().get();
}

inline void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& ledger : ledgers_) {
    for (int i = 0; i < kSpanCount; ++i) {
      ledger->self_ticks[i].store(0, std::memory_order_relaxed);
      ledger->calls[i].store(0, std::memory_order_relaxed);
    }
  }
}

inline Totals Tracer::Sum(bool main_only, double ns_per_tick) {
  std::lock_guard<std::mutex> lock(mutex_);
  Totals totals;
  for (auto& ledger : ledgers_) {
    if (main_only && ledger.get() != main_) {
      continue;
    }
    for (int i = 0; i < kSpanCount; ++i) {
      const std::uint64_t ticks =
          ledger->self_ticks[i].load(std::memory_order_relaxed);
      totals.self_ns[i] +=
          static_cast<std::uint64_t>(static_cast<double>(ticks) * ns_per_tick);
      totals.calls[i] += ledger->calls[i].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

}  // namespace e2ebench

#endif  // TWHEEL_E2EBENCH_TRACE_H_
