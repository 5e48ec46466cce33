#include "perfbench/harness.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/base/stats.h"

namespace perfbench {

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload net_steady|prefetch_online --seed N\n"
               "          --seconds S --trace 0|1 [--out-dir DIR]\n",
               argv0);
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

// JSON number with every digit a double carries; non-finite values (which
// no metric should produce) become null so the line still parses.
std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += Quoted(metrics[i].name) + ": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": " + Quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

uint64_t StatusFieldKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len && line[len] == ':') {
      return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(argv[0]);
      return false;
    }
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUnsigned(value, &n)) {
      options->seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, &n) && n >= 1 && n <= 600) {
      options->seconds = static_cast<double>(n);
    } else if (flag == "--trace" && ParseUnsigned(value, &n) && n <= 1) {
      options->trace = n == 1;
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  if (!have_workload || !have_seed) {
    Usage(argv[0]);
    return false;
  }
  return true;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"arg\": %" PRIu64 "}}%s\n",
                 s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.arg,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

void PhaseLog::Start(uint64_t now_ns) {
  chunk_rates_.clear();
  calls_ = 0;
  chunk_start_ns_ = now_ns;
}

void PhaseLog::EndChunk(uint64_t now_ns, uint64_t events) {
  if (now_ns > chunk_start_ns_) {
    chunk_rates_.push_back(static_cast<double>(events) * 1e9 /
                           static_cast<double>(now_ns - chunk_start_ns_));
  }
  chunk_start_ns_ = now_ns;
}

rkd::Samples PhaseLog::AllMicros() const {
  rkd::Samples samples;
  const uint64_t n = std::min<uint64_t>(calls_, ns_.size());
  for (uint64_t i = 0; i < n; ++i) {
    samples.Add(static_cast<double>(ns_[i]) * 1e-3);
  }
  return samples;
}

uint64_t ResidentKb() { return StatusFieldKb("VmRSS"); }
uint64_t PeakResidentKb() { return StatusFieldKb("VmHWM"); }

Fingerprint MeasureFingerprint() {
  Fingerprint fp;
  fp.nproc = std::thread::hardware_concurrency();
#ifdef PERFBENCH_BUILD_TYPE
  fp.build_type = PERFBENCH_BUILD_TYPE;
#endif
#ifdef PERFBENCH_COMPILER
  fp.compiler = PERFBENCH_COMPILER;
#endif
  // 64 rounds of 1024 back-to-back reads; the median round is the figure.
  rkd::Samples rounds;
  constexpr int kReads = 1024;
  for (int round = 0; round < 64; ++round) {
    uint64_t sink = 0;
    const uint64_t start = NowNs();
    for (int i = 0; i < kReads; ++i) {
      sink += NowNs();
    }
    const uint64_t end = NowNs();
    if (sink == 0) {
      std::fprintf(stderr, "clock read 0\n");  // keeps the reads observable
    }
    rounds.Add(static_cast<double>(end - start) / kReads);
  }
  fp.clock_read_ns = rounds.Percentile(50);
  return fp;
}

std::string ResultLine(const RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
      << ", \"metrics\": " << MetricsObject(result.metrics) << "}";
  return out.str();
}

bool WriteReport(const std::string& path, const Options& options,
                 const Fingerprint& fingerprint, const RunResult& result) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::string failures = "[";
  for (size_t i = 0; i < result.check_failures.size(); ++i) {
    failures += (i > 0 ? ", " : "") + Quoted(result.check_failures[i]);
  }
  failures += "]";
  std::fprintf(out,
               "{\n  \"workload\": %s,\n  \"seed\": %" PRIu64 ",\n  \"held_out_seed\": %" PRIu64
               ",\n  \"seconds\": %s,\n  \"trace\": %s,\n"
               "  \"machine\": {\"nproc\": %u, \"build_type\": %s, \"compiler\": %s, "
               "\"clock_read_ns\": %s},\n"
               "  \"result\": %s,\n  \"details\": %s,\n  \"check_failures\": %s\n}\n",
               Quoted(options.workload).c_str(), options.seed, kHeldOutSeed,
               Number(options.seconds).c_str(), options.trace ? "true" : "false",
               fingerprint.nproc, Quoted(fingerprint.build_type).c_str(),
               Quoted(fingerprint.compiler).c_str(), Number(fingerprint.clock_read_ns).c_str(),
               ResultLine(result).c_str(), MetricsObject(result.details).c_str(),
               failures.c_str());
  return std::fclose(out) == 0;
}

}  // namespace perfbench
