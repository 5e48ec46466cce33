// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload net_steady|prefetch_online --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints human-readable facts (machine fingerprint, details, failed checks)
// to stderr and, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Each run also writes
// DIR/<workload>-seed<N>-trace<T>.json (fingerprint, metrics, details) and,
// when traced, DIR/<workload>-seed<N>-spans.json (Chrome trace format).
// Exit code 0 means the result line was printed (a failed output check
// prints correct: false); 1 means the run could not produce one (bad
// arguments, unknown workload, failed set-up, unwritable output).
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    return 1;
  }
  const bool net_steady = options.workload == "net_steady";
  if (!net_steady && options.workload != "prefetch_online") {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 1;
  }
  std::error_code error;
  std::filesystem::create_directories(options.out_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.out_dir.c_str(),
                 error.message().c_str());
    return 1;
  }

  const Fingerprint fingerprint = MeasureFingerprint();
  std::fprintf(stderr,
               "machine: nproc %u, build %s, compiler %s, steady_clock read %.1f ns\n",
               fingerprint.nproc, fingerprint.build_type.c_str(), fingerprint.compiler.c_str(),
               fingerprint.clock_read_ns);

  SpanLog spans;
  const RunResult result =
      net_steady ? RunNetWorkload(options, &spans) : RunPrefetchWorkload(options, &spans);

  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed);
  if (!WriteReport(stem + "-trace" + (options.trace ? "1" : "0") + ".json", options,
                   fingerprint, result)) {
    std::fprintf(stderr, "cannot write the run report under %s\n", options.out_dir.c_str());
    return 1;
  }
  if (options.trace && !spans.WriteChromeTrace(stem + "-spans.json")) {
    std::fprintf(stderr, "cannot write the span file under %s\n", options.out_dir.c_str());
    return 1;
  }
  for (const Metric& detail : result.details) {
    std::fprintf(stderr, "  %-40s %.6g %s\n", detail.name.c_str(), detail.value,
                 detail.unit.c_str());
  }
  for (const std::string& failure : result.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  if (result.metrics.empty()) {
    return 1;  // set-up failed: there is nothing to report
  }
  std::printf("%s\n", ResultLine(result).c_str());
  return 0;
}
