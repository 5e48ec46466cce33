// The benchmark's workloads.
//
// Every workload is single-threaded and closed loop: one caller issues a
// call, waits for its decisions, and only then issues the next. A run sets
// up several times (setup_s is the median), runs the timed phase for the
// requested seconds, then checks the decisions up to the end of the first
// quarter of the phase against a tiering-off reference over the same inputs.
// A traced run (--trace 1) splits the seconds between an untraced phase and
// one with the benchmark's own spans, then probes each layer's public entry
// points on the workload's inputs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/harness.h"

namespace perfbench {

RunResult RunNetWorkload(const Options& options, SpanLog* spans);
RunResult RunPrefetchWorkload(const Options& options, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
