// End-to-end benchmark of the timer service, from client request to callback.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out <dir>]
//
// Runs one workload: fresh set-ups, each followed by a fixed window of
// simulated ticks and the correctness gate, until --seconds of windows are
// measured and at least sixteen. Each timing is read at the quiet end of its
// samples (see common.cc). --trace 1 instead runs an untraced and a traced
// window of at least --seconds/2 each and reports the per-layer ledger. The
// last line of stdout is the result object; the exit code is non-zero on any
// correctness violation. --out names a directory for a results file that also
// records the seed and the instance and step sample counts.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "e2ebench/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload "
               "<server_churn|server_fanout|cluster_r3> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !(args.seconds > 0)) {
    return Usage();
  }
  for (const e2ebench::WorkloadDef& def :
       {e2ebench::ServerChurn(), e2ebench::ServerFanout(),
        e2ebench::ClusterR3()}) {
    if (def.name == args.workload) {
      return e2ebench::RunWorkload(def, args);
    }
  }
  return Usage();
}
