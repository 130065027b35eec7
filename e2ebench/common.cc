#include "e2ebench/common.h"

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>

namespace e2ebench {
namespace {

// Simulated ticks each instance measures. The load is fixed by the seed, so
// every build measures the same ticks, however fast it steps; --seconds sets
// how many instances run.
constexpr twheel::Tick kWindowTicks = 1024;
// An untraced run sets up fresh pipelines, one population in memory at a
// time, and measures a window on each until --seconds of windows are
// measured, and at least this many.
constexpr std::size_t kMinInstances = 16;
// Throughput is rated over slices of kWindowTicks / kSlices ticks.
constexpr twheel::Tick kSlices = 16;
// Other tenants of a shared host slow a run down in bursts of a few seconds,
// by up to half, and the bursts cover a different share of every run. So
// each timing is read at the quiet end of its samples: the share kQuiet of
// slices with the highest rates, of windows with the lowest step p50, and of
// set-ups with the lowest times. Every build is read the same way, and a
// change to the program moves the quiet samples as it moves the others.
constexpr double kQuiet = 0.05;

// The vCPUs the process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

// Pins the calling thread, and every thread it starts from now on, to `cpu`.
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// Peak resident set of the process so far (VmHWM), in MiB.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

// What the windows of a run measured: per-slice rates and every step's host
// time, by window.
struct Window {
  std::vector<double> callback_rates;  // per second, one per slice
  std::vector<double> request_rates;
  std::vector<double> p50_ns;             // one per window
  std::vector<std::vector<float>> steps;  // host ns, one vector per window
  std::uint64_t requests = 0;
  double seconds = 0;
};

// Steps `inst` for at least kWindowTicks simulated ticks and at least
// `seconds` of host time, and rates each whole slice of kWindowTicks / kSlices
// ticks. Appends to `w`; returns the steps' host times.
std::vector<double> Measure(Instance& inst, double seconds, Window& w) {
  std::vector<double> step_ns;
  step_ns.reserve(kWindowTicks);
  constexpr twheel::Tick kSliceTicks = kWindowTicks / kSlices;
  const auto span = static_cast<std::uint64_t>(seconds * 1e9);
  const Progress before = inst.progress();
  Progress last = before;
  const std::uint64_t start = NowNs();
  std::uint64_t t = start;
  std::uint64_t slice_start = start;
  twheel::Tick done = 0;
  while (done < kWindowTicks || t - start < span) {
    const std::uint64_t t0 = NowNs();
    inst.Step();
    t = NowNs();
    step_ns.push_back(static_cast<double>(t - t0));
    if (++done % kSliceTicks == 0) {
      const Progress now = inst.progress();
      const double slice_s = static_cast<double>(t - slice_start) / 1e9;
      w.callback_rates.push_back(
          static_cast<double>(now.callbacks - last.callbacks) / slice_s);
      w.request_rates.push_back(
          static_cast<double>(now.requests - last.requests) / slice_s);
      last = now;
      slice_start = t;
    }
  }
  w.p50_ns.push_back(Median(step_ns));
  w.steps.emplace_back(step_ns.begin(), step_ns.end());
  w.requests += inst.progress().requests - before.requests;
  w.seconds += static_cast<double>(t - start) / 1e9;
  return step_ns;
}

std::unique_ptr<Instance> SetUp(const WorkloadDef& def, std::uint64_t seed,
                                bool traced, double* seconds) {
  const std::uint64_t t0 = NowNs();
  std::unique_ptr<Instance> inst = def.make(seed, traced);
  inst->Prime();
  for (twheel::Tick t = 0; t < def.warmup_ticks; ++t) {
    inst->Step();
  }
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return inst;
}

// `tail` gets the step tail, which is printed but not a result metric: at
// 20-100 us per step its slowest samples are those a host interrupt or a
// neighbour's burst landed on, and it spreads too widely between runs of the
// same code to bound a regression.
void AddEndToEnd(const Window& w, const std::vector<double>& setups,
                 double rss_mib, Metrics& m, Metrics& tail) {
  // The steps of the quiet windows, pooled.
  const double quiet_p50 = Percentile(w.p50_ns, kQuiet);
  std::vector<double> quiet;
  for (std::size_t i = 0; i < w.steps.size(); ++i) {
    if (w.p50_ns[i] <= quiet_p50) {
      quiet.insert(quiet.end(), w.steps[i].begin(), w.steps[i].end());
    }
  }
  m.Add("callbacks_per_s", Percentile(w.callback_rates, 1 - kQuiet), "1/s");
  m.Add("requests_per_s", Percentile(w.request_rates, 1 - kQuiet), "1/s");
  m.Add("step_ms_p50", Median(quiet) / 1e6, "ms");
  m.Add("setup_s", Percentile(setups, kQuiet), "s");
  m.Add("peak_rss_mib", rss_mib, "MiB");
  tail.Add("step_ms_p90", Percentile(quiet, 0.90) / 1e6, "ms");
  tail.Add("step_ms_p99", Percentile(quiet, 0.99) / 1e6, "ms");
}

// Every per-layer metric, in BENCHMARK.json order. A layer the workload
// bypasses reports 0.
void AddLayerDefaults(Metrics& m) {
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"workload.gen_us_per_step", "us"},
      {"workload.callback_ns", "ns"},
      {"net.wire.codec_ns", "ns"},
      {"net.channel.hop_ns", "ns"},
      {"net.channel.packets_per_step", "count"},
      {"net.channel.loss_ratio", "ratio"},
      {"net.server.request_ns", "ns"},
      {"net.server.expiry_ns", "ns"},
      {"core.start_ns", "ns"},
      {"core.stop_ns", "ns"},
      {"core.restart_ns", "ns"},
      {"core.tick_self_us_per_step", "us"},
      {"core.expiries_per_step", "count"},
      {"concurrent.tick_us_per_step", "us"},
      {"concurrent.cpu_per_wall", "ratio"},
      {"concurrent.steal_ratio", "ratio"},
      {"concurrent.fires_per_batch", "count"},
      {"cluster.client_op_ns", "ns"},
      {"cluster.step_self_us", "us"},
      {"cluster.msgs_per_delivery", "ratio"},
      {"cluster.pops_per_delivery", "ratio"},
      {"cluster.duplicate_ratio", "ratio"},
      {"cluster.retries_per_delivery", "ratio"},
      {"ledger.workload_share", "ratio"},
      {"ledger.net.wire_share", "ratio"},
      {"ledger.net.channel_share", "ratio"},
      {"ledger.net.server_share", "ratio"},
      {"ledger.core_share", "ratio"},
      {"ledger.concurrent_share", "ratio"},
      {"ledger.cluster_share", "ratio"},
      {"ledger.unattributed_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.steps", "count"},
  };
  for (const auto& [name, unit] : kLayerMetrics) {
    m.Add(name, 0, unit);
  }
}

// Span-derived layer metrics plus the ledger, common to every workload.
void AddSpanMetrics(const TracedWindow& w, Metrics& m) {
  const Totals& t = w.all;
  const double steps = static_cast<double>(w.steps);
  m.Set("workload.gen_us_per_step", t.ns(Span::kGen) / steps / 1e3);
  m.Set("workload.callback_ns", t.PerCallNs(Span::kCallback));
  m.Set("net.wire.codec_ns", t.PerCallNs(Span::kCodec));
  m.Set("net.server.request_ns", t.PerCallNs(Span::kRequest));
  m.Set("net.server.expiry_ns", t.PerCallNs(Span::kExpiry));
  m.Set("core.start_ns", t.PerCallNs(Span::kStart));
  m.Set("core.stop_ns", t.PerCallNs(Span::kStop));
  m.Set("core.restart_ns", t.PerCallNs(Span::kRestart));
  m.Set("core.tick_self_us_per_step", t.ns(Span::kTick) / steps / 1e3);
  m.Set("concurrent.tick_us_per_step", t.ns(Span::kPoolTick) / steps / 1e3);
  m.Set("cluster.client_op_ns", t.PerCallNs(Span::kClientOp));
  m.Set("cluster.step_self_us", t.ns(Span::kClusterStep) / steps / 1e3);

  double covered = 0;
  for (int l = 0; l < kLayerCount; ++l) {
    const double ns =
        static_cast<double>(w.main_only.LayerNs(static_cast<Layer>(l)));
    covered += ns;
    m.Set(std::string("ledger.") + kLayerNames[l] + "_share",
          ns / w.step_ns_total);
  }
  m.Set("ledger.unattributed_ratio", 1.0 - covered / w.step_ns_total);
  m.Set("trace.steps", steps);
}

void PrintLedger(const TracedWindow& w, double p50_ms, const Metrics& m) {
  const double mean_ms = w.step_ns_total / static_cast<double>(w.steps) / 1e6;
  std::printf(
      "ledger: step-thread self time per step (mean step %.4f ms, traced p50 "
      "%.4f ms, %" PRIu64 " traced steps)\n",
      mean_ms, p50_ms, w.steps);
  for (int l = 0; l < kLayerCount; ++l) {
    const double share =
        m.Get(std::string("ledger.") + kLayerNames[l] + "_share");
    std::printf("  %-14s %9.4f ms  %6.1f%%\n", kLayerNames[l],
                share * mean_ms, share * 100);
  }
  const double rest = m.Get("ledger.unattributed_ratio");
  std::printf("  %-14s %9.4f ms  %6.1f%%\n", "unattributed", rest * mean_ms,
              rest * 100);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

void WriteResults(const RunArgs& args, const WorkloadDef& def,
                  std::size_t instances, std::size_t steps,
                  const Checks& checks, std::uint64_t attempted,
                  const Metrics& m, const Metrics& tail) {
  if (args.out_dir.empty()) {
    return;
  }
  const std::string path = args.out_dir + "/" + def.name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << "{\"workload\": \"" << def.name << "\", \"seed\": " << args.seed
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"threads\": " << def.threads << ", \"seconds\": " << args.seconds
      << ", \"instances\": " << instances << ", \"step_samples\": " << steps
      << ", \"attempted\": " << attempted
      << ", \"failed\": " << checks.failed() << ", \"violations\": [";
  for (std::size_t i = 0; i < checks.messages().size(); ++i) {
    out << (i ? ", " : "") << '"' << JsonEscape(checks.messages()[i]) << '"';
  }
  out << "], \"metrics\": " << m.Json() << ", \"step_tail\": " << tail.Json()
      << "}\n";
}

}  // namespace

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void Checks::Expect(bool ok, const std::string& what) {
  if (!ok) {
    Failed(1, what);
  }
}

void Checks::Failed(std::uint64_t n, const std::string& what) {
  if (n == 0) {
    return;
  }
  failed_ += n;
  if (messages_.size() < 32) {
    messages_.push_back(what);
  }
}

void Metrics::Add(const std::string& name, double value,
                  const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Metrics::Set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "e2ebench: unknown metric %s\n", name.c_str());
  std::abort();
}

double Metrics::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      return m.value;
    }
  }
  return 0;
}

std::string Metrics::Json() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::snprintf(value, sizeof(value), "%.12g", v);
    os << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": "
       << value << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  os << '}';
  return os.str();
}

void Metrics::Print() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int RunWorkload(const WorkloadDef& def, const RunArgs& args) {
  Tracer::SetMainThread();
  Metrics metrics;
  Metrics tail;
  Checks checks;
  std::unique_ptr<Instance> inst;
  std::size_t samples = 0;
  std::uint64_t attempted = 0;

  Window pooled;
  std::vector<double> setups;
  double rss_mib = 0;
  // Each instance runs with all its threads on one vCPU, and the instances
  // take the vCPUs in turn. The vCPUs of a shared host slow down
  // independently, so the quiet end of a run (kQuiet) then finds the calm
  // ones, and server_fanout's drainer does not depend on a second vCPU or on
  // a cross-vCPU wake-up. The drainer and the blocked stepping thread never
  // run at the same time, so no parallelism is lost. A traced run stays on
  // the vCPU it started on, so its two halves compare like with like.
  const std::vector<int> cpus = AllowedCpus();
  const int start_cpu = sched_getcpu();
  if (args.trace && start_cpu >= 0) {
    PinTo(start_cpu);
  }
  if (!args.trace) {
    while (setups.size() < kMinInstances || pooled.seconds < args.seconds) {
      if (!cpus.empty()) {
        PinTo(cpus[setups.size() % cpus.size()]);
      }
      double s = 0;
      inst = SetUp(def, args.seed, /*traced=*/false, &s);
      setups.push_back(s);
      Measure(*inst, 0, pooled);
      inst->Check(checks);
      inst.reset();  // one population in memory at a time
      if (setups.size() == 1) {
        if (def.extra_check) {
          def.extra_check(args.seed, checks);
        }
        // The peak of one set-up, window and correctness gate. Later
        // instances reuse the same memory; only the run's own sample
        // vectors grow, by more in a faster build.
        rss_mib = PeakRssMib();
      }
    }
    for (const std::vector<float>& steps : pooled.steps) {
      samples += steps.size();
    }
    attempted = pooled.requests;
  } else {
    // The untraced half gives the baseline p50 for trace.overhead_ratio.
    Window base;
    double s = 0;
    inst = SetUp(def, args.seed, /*traced=*/false, &s);
    const double base_p50 = Median(Measure(*inst, args.seconds / 2, base));
    inst->Check(checks);
    inst.reset();

    inst = SetUp(def, args.seed, /*traced=*/true, &s);
    Tracer::Reset();
    inst->BeginWindow();
    const std::uint64_t ns0 = NowNs();
    const std::uint64_t ticks0 = SpanClock();
    Window w;
    const std::vector<double> step_ns = Measure(*inst, args.seconds / 2, w);
    const double ns_per_tick =
        Tracer::Calibrate(NowNs() - ns0, SpanClock() - ticks0);
    TracedWindow tw;
    tw.steps = step_ns.size();
    for (double ns : step_ns) {
      tw.step_ns_total += ns;
    }
    tw.all = Tracer::Sum(/*main_only=*/false, ns_per_tick);
    tw.main_only = Tracer::Sum(/*main_only=*/true, ns_per_tick);
    AddLayerDefaults(metrics);
    AddSpanMetrics(tw, metrics);
    inst->LayerMetrics(tw, metrics);
    const double p50 = Median(step_ns);
    metrics.Set("trace.overhead_ratio", p50 / base_p50);
    samples = step_ns.size();
    attempted = w.requests;
    PrintLedger(tw, p50 / 1e6, metrics);
    inst->Check(checks);
    inst.reset();
    if (def.extra_check) {
      def.extra_check(args.seed, checks);
    }
  }

  if (!args.trace) {
    AddEndToEnd(pooled, setups, rss_mib, metrics, tail);
  }
  attempted = std::max<std::uint64_t>(attempted, 1);
  const std::size_t instances = args.trace ? 2 : setups.size();

  std::printf("workload %s  seed %" PRIu64 "  trace %d  threads %d  %zu "
              "instances  %zu step samples\n",
              def.name.c_str(), args.seed, args.trace ? 1 : 0, def.threads,
              instances, samples);
  metrics.Print();
  if (!args.trace) {
    std::printf("  step tail of the quiet windows, not a result metric:\n");
    tail.Print();
  }
  std::printf("  %-30s %16.6g ratio  (failed %" PRIu64 " / attempted %" PRIu64
              ")\n",
              "error_rate",
              static_cast<double>(checks.failed()) /
                  static_cast<double>(attempted),
              checks.failed(), attempted);
  for (const std::string& msg : checks.messages()) {
    std::printf("  VIOLATION: %s\n", msg.c_str());
  }
  WriteResults(args, def, instances, samples, checks, attempted, metrics,
               tail);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              checks.failed() == 0 ? "true" : "false", attempted,
              checks.failed(), metrics.Json().c_str());
  std::fflush(stdout);
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace e2ebench
