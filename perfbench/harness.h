// Shared machinery of the end-to-end benchmark: command-line options, the
// clock, the per-phase call log, the in-memory span log of traced runs,
// resident-memory readings, the machine fingerprint, and the one-line JSON
// result.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/stats.h"

namespace perfbench {

// Seed the committed claims must also hold on: a change is tuned on other
// seeds and then confirmed on this one.
inline constexpr uint64_t kHeldOutSeed = 20211;

// Every timed phase makes at least this many calls, so a p99 has at least
// ten samples beyond it.
inline constexpr uint64_t kMinCalls = 1000;

// A traced phase keeps a span for each of its first kMaxCallSpans calls
// (every call is still timed); probe spans are always kept.
inline constexpr uint64_t kMaxCallSpans = 1 << 16;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/reports";  // per-run report and span files
};

// Parses `--workload W --seed N --seconds S --trace 0|1 [--out-dir D]`.
// Returns false (after printing usage to stderr) on any malformed argument.
bool ParseOptions(int argc, char** argv, Options* options);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// One benchmark-recorded span: a call of the timed loop or of a probe.
// Spans are kept in memory and written once, when the run ends. `arg` is
// the flow-table writes of a net call, the tracer-sampled flag of an
// OnFault call, and the iteration index of a probe call.
struct Span {
  const char* name;  // static string
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t arg;
};

class SpanLog {
 public:
  void Reserve(size_t n) { spans_.reserve(n); }
  void Add(const char* name, uint64_t start_ns, uint64_t end_ns, uint64_t arg) {
    spans_.push_back(Span{name, start_ns, end_ns, arg});
  }
  // Chrome trace-event JSON (loads in Perfetto). Returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Resident set size and its high-water mark from /proc/self/status, in KiB
// (0 when unavailable).
uint64_t ResidentKb();
uint64_t PeakResidentKb();

struct Fingerprint {
  unsigned nproc = 0;
  std::string build_type;
  std::string compiler;
  double clock_read_ns = 0.0;  // median cost of one steady_clock::now()
};
Fingerprint MeasureFingerprint();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports. `details` holds extra key/value facts that go into
// the per-run report file, not into the result line.
struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  std::vector<std::string> check_failures;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Detail(std::string name, double value, std::string unit) {
    details.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  // Records a failed output check; the run then reports correct = false.
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
    }
  }
};

// The timing of one timed phase: every call's latency, and the phase cut
// into chunks that each replay the same inputs (a whole number of trace
// cycles). The run report keeps each chunk's rate, which shows drift within
// a run and the host's slow and fast regimes (a shared host can alternate,
// for seconds to tens of seconds at a time, between a fast regime and one
// about 1.5x slower; seen on a 4-vCPU KVM guest).
class PhaseLog {
 public:
  // Room for `capacity` calls, allocated and touched here so that recording
  // adds nothing to peak_rss_mb (build it before reading the baseline).
  explicit PhaseLog(size_t capacity) : ns_(capacity, 0) {}

  void Start(uint64_t now_ns);
  // Calls beyond capacity are not recorded.
  void AddCall(uint64_t ns) {
    if (calls_ < ns_.size()) {
      ns_[calls_] = ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns);
    }
    ++calls_;
  }
  void EndChunk(uint64_t now_ns, uint64_t events);

  // Every recorded call, in microseconds.
  rkd::Samples AllMicros() const;
  // Events per second of each chunk, in order.
  const std::vector<double>& chunk_rates() const { return chunk_rates_; }

 private:
  std::vector<uint32_t> ns_;
  std::vector<double> chunk_rates_;
  uint64_t calls_ = 0;
  uint64_t chunk_start_ns_ = 0;
};

// Capacity for a timed phase of `seconds`: above the fastest call rate any
// workload reaches on current hardware.
inline size_t PhaseLogCapacity(double seconds) {
  return static_cast<size_t>(seconds * 250'000.0) + kMinCalls;
}

// True when the fire-sequence range [before, after) holds a multiple of
// `every`, i.e. when the tracer samples part of the call. `every` == 0
// means sampling is off.
inline bool RangeSampled(uint64_t before, uint64_t after, uint32_t every) {
  if (every == 0 || after <= before) {
    return false;
  }
  const uint64_t next = (before + every - 1) / every * every;
  return next < after;
}

// Times `iterations` calls of `fn(i)`; each sample is the call's time
// divided by `ops` (the operations one call performs), in `scale` units per
// nanosecond (1e-3 for microseconds). Each call is a span named `name`.
template <typename Fn>
rkd::Samples TimeProbe(const char* name, SpanLog* spans, size_t iterations, double ops,
                       double scale, Fn&& fn) {
  rkd::Samples samples;
  for (size_t i = 0; i < iterations; ++i) {
    const uint64_t start = NowNs();
    fn(i);
    const uint64_t end = NowNs();
    spans->Add(name, start, end, i);
    samples.Add(static_cast<double>(end - start) / ops * scale);
  }
  return samples;
}

inline double MedianOf(rkd::Samples samples) { return samples.Percentile(50); }

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(const RunResult& result);

// Writes the per-run report (options, fingerprint, metrics, details, check
// failures) as JSON. Returns false on I/O error.
bool WriteReport(const std::string& path, const Options& options,
                 const Fingerprint& fingerprint, const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
