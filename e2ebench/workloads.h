// The three workloads. Each definition is the workload's input sizes; the run
// length comes from the command line.

#ifndef TWHEEL_E2EBENCH_WORKLOADS_H_
#define TWHEEL_E2EBENCH_WORKLOADS_H_

#include "e2ebench/common.h"

namespace e2ebench {

WorkloadDef ServerChurn();
WorkloadDef ServerFanout();
WorkloadDef ClusterR3();

}  // namespace e2ebench

#endif  // TWHEEL_E2EBENCH_WORKLOADS_H_
