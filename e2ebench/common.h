// The benchmark's run loop: set-up, the timed window, the traced window, the
// correctness gate and the result line, shared by all three workloads.

#ifndef TWHEEL_E2EBENCH_COMMON_H_
#define TWHEEL_E2EBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "e2ebench/trace.h"
#include "src/base/types.h"

namespace e2ebench {

// Client-visible work done so far; the window reports the difference.
struct Progress {
  std::uint64_t callbacks = 0;  // expiries delivered to the client
  std::uint64_t requests = 0;   // client operations processed
};

// Correctness failures found by a run. Every failure counts once in `failed`.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  // `n` operations failed (server rejects, decode rejects, ...).
  void Failed(std::uint64_t n, const std::string& what);
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// Named metrics with units, in print order.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Overwrites a metric added earlier.
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  std::string Json() const;
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// What the traced window measured, for an instance's own layer metrics.
struct TracedWindow {
  std::uint64_t steps = 0;
  double step_ns_total = 0;
  Totals all;        // every thread's spans
  Totals main_only;  // the step-driving thread's spans (the ledger)
};

// One constructed pipeline of a workload.
class Instance {
 public:
  virtual ~Instance() = default;
  // Bring the population to its steady size (part of set-up).
  virtual void Prime() = 0;
  // One simulated tick.
  virtual void Step() = 0;
  virtual Progress progress() const = 0;
  // Snapshot counters at the start of the traced window.
  virtual void BeginWindow() {}
  // Fill the layer metrics only this instance can compute.
  virtual void LayerMetrics(const TracedWindow& window, Metrics& out) const {
    (void)window;
    (void)out;
  }
  // Post-window correctness gate; may step further (flush, drain). Untimed.
  virtual void Check(Checks& checks) = 0;
};

struct WorkloadDef {
  std::string name;
  int threads = 1;
  twheel::Tick warmup_ticks = 0;
  std::function<std::unique_ptr<Instance>(std::uint64_t seed, bool traced)>
      make;
  // Extra gate run after the main window (e.g. a reduced-population digest
  // against a reference scheme); may be empty.
  std::function<void(std::uint64_t seed, Checks& checks)> extra_check;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // results file directory; empty = none
};

// Runs one workload per `args`, prints the report and the result line, and
// returns the process exit code (non-zero on any correctness failure).
int RunWorkload(const WorkloadDef& def, const RunArgs& args);

// splitmix64 finalizer, for order-insensitive digests.
std::uint64_t Mix(std::uint64_t x);

// CPU time consumed by every thread of the process so far.
std::uint64_t ProcessCpuNs();

}  // namespace e2ebench

#endif  // TWHEEL_E2EBENCH_COMMON_H_
