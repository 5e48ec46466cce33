// M: span-tracing overhead microbenchmark.
//
// The tracer's cost contract (src/telemetry/span.h) has two halves:
//
//   1. An *untraced* fire pays one relaxed load and one branch in
//      ShouldSample — at the default 1-in-1024 sampling rate, hook dispatch
//      must show no measurable regression over a tracer-disabled baseline.
//   2. A *traced* fire pays the full span tree (root + table.lookup +
//      vm.exec, two clock reads and one ring store per span) plus opcode
//      profiling in the VM. That cost is real but bounded: it must stay
//      under a generous per-fire budget, far below anything that could
//      matter at a 1-in-1024 duty cycle.
//
//   3. A *sampled batch* traces only its sampled events: a 64-event
//      FireBatch holding one sampled event may cost at most two traced
//      single fires more than an unsampled one. Tracing the whole batch
//      (every event through the profiled VM loop) breaks this bound.
//
// All three are *asserted*, not just reported: a regression that drags a
// lock, an allocation, or an unconditional clock read onto the untraced
// path fails the binary. Results land in BENCH_trace_overhead.json
// (override with --out=FILE); pass --benchmark to run the google-benchmark
// reporters instead.
//
// Budget rationale: a fully traced fire measured ~2-8 us on the reference
// container (dominated by the VM exec span's per-opcode clock reads). The
// 25 us budget is ~3-10x headroom for CI noise while still an order of
// magnitude below a pathological implementation. The untraced bound is
// max(25 ns, 20% of baseline): absolute floor for fast machines where 20%
// of a ~60 ns fire is within clock jitter, relative bound for slow ones.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/base/stats.h"
#include "src/bytecode/assembler.h"
#include "src/rmt/control_plane.h"
#include "src/telemetry/span.h"
#include "src/telemetry/telemetry.h"

namespace rkd {
namespace {

constexpr double kTracedBudgetNs = 25'000.0;   // median fully-traced fire
constexpr double kUntracedSlackNs = 25.0;      // absolute regression floor
constexpr double kUntracedSlackRatio = 0.20;   // relative regression bound
constexpr size_t kBatchEvents = 64;            // one FireBatch, a NAPI-sized window
constexpr double kSampledBatchTracedFires = 2.0;  // sampled-batch delta bound

// One hook + one installed two-instruction action, the bench dispatch rig.
struct FireRig {
  HookRegistry hooks;
  ControlPlane control_plane{&hooks};
  HookId hook = -1;

  bool Init() {
    Result<HookId> registered = hooks.Register("bench.hook", HookKind::kGeneric);
    if (!registered.ok()) {
      return false;
    }
    hook = *registered;
    Assembler as("bench_action", HookKind::kGeneric);
    as.MovImm(0, 1);
    as.Exit();
    RmtProgramSpec spec;
    spec.name = "bench_prog";
    RmtTableSpec table;
    table.name = "bench_tab";
    table.hook_point = "bench.hook";
    table.actions.push_back(std::move(as.Build()).value());
    table.default_action = 0;
    spec.tables.push_back(std::move(table));
    return control_plane.Install(spec).ok();
  }
};

// Median ns/fire over kBatches batches of kFiresPerBatch fires. Median over
// batches (Samples::PercentileSorted) shrugs off scheduler blips.
double MedianFireNs(FireRig& rig, uint32_t sample_every) {
  rig.hooks.telemetry().tracer().set_sample_every(sample_every);
  constexpr int kBatches = 48;
  constexpr uint64_t kFiresPerBatch = 4'000;
  int64_t key = 0;
  // Warm the icache, the thread-local tracer state, and the branch history.
  for (uint64_t i = 0; i < kFiresPerBatch; ++i) {
    benchmark::DoNotOptimize(rig.hooks.Fire(rig.hook, key++));
  }
  Samples per_fire_ns;
  for (int b = 0; b < kBatches; ++b) {
    const uint64_t start = MonotonicNowNs();
    for (uint64_t i = 0; i < kFiresPerBatch; ++i) {
      benchmark::DoNotOptimize(rig.hooks.Fire(rig.hook, key++));
    }
    const uint64_t elapsed = MonotonicNowNs() - start;
    per_fire_ns.Add(static_cast<double>(elapsed) / static_cast<double>(kFiresPerBatch));
  }
  per_fire_ns.Sort();
  return per_fire_ns.PercentileSorted(50);
}

// Median ns per kBatchEvents-event FireBatch call, untraced and with exactly
// one sampled event per call (sample_every == kBatchEvents, wherever the fire
// sequence starts). The two kinds of sample alternate, so a shift in host
// speed lands on both medians alike.
struct BatchMedians {
  double untraced_ns = 0;
  double one_sampled_ns = 0;
};

BatchMedians MedianBatchNs(FireRig& rig) {
  Tracer& tracer = rig.hooks.telemetry().tracer();
  constexpr int kSamplesPerSide = 48;
  constexpr int kCallsPerSample = 200;
  constexpr uint32_t kSampleEvery[2] = {0, kBatchEvents};
  std::vector<HookEvent> events;
  for (uint64_t i = 0; i < kBatchEvents; ++i) {
    events.emplace_back(i, std::initializer_list<int64_t>{});
  }
  std::vector<int64_t> results(kBatchEvents);
  Samples per_batch_ns[2];
  // Sample s measures side s % 2; the first sample of each side warms up.
  for (int s = 0; s < 2 * (kSamplesPerSide + 1); ++s) {
    const int side = s % 2;
    tracer.set_sample_every(kSampleEvery[side]);
    const uint64_t start = MonotonicNowNs();
    for (int c = 0; c < kCallsPerSample; ++c) {
      rig.hooks.FireBatch(rig.hook, events, results);
      benchmark::DoNotOptimize(results.data());
    }
    const uint64_t elapsed = MonotonicNowNs() - start;
    if (s >= 2) {
      per_batch_ns[side].Add(static_cast<double>(elapsed) / kCallsPerSample);
    }
  }
  BatchMedians medians;
  per_batch_ns[0].Sort();
  per_batch_ns[1].Sort();
  medians.untraced_ns = per_batch_ns[0].PercentileSorted(50);
  medians.one_sampled_ns = per_batch_ns[1].PercentileSorted(50);
  return medians;
}

// Median cost of one bare span (Begin + 2 tags + End), outside any hook.
double MedianSpanNs() {
  Tracer tracer;
  constexpr int kBatches = 48;
  constexpr uint64_t kSpansPerBatch = 10'000;
  Samples per_span_ns;
  for (int b = 0; b < kBatches; ++b) {
    const uint64_t start = MonotonicNowNs();
    for (uint64_t i = 0; i < kSpansPerBatch; ++i) {
      ScopedSpan span(&tracer, "bench.span");
      span.Tag("i", static_cast<int64_t>(i));
      span.Tag("b", b);
    }
    const uint64_t elapsed = MonotonicNowNs() - start;
    per_span_ns.Add(static_cast<double>(elapsed) / static_cast<double>(kSpansPerBatch));
  }
  per_span_ns.Sort();
  return per_span_ns.PercentileSorted(50);
}

// --- google-benchmark reporting (--benchmark) ------------------------------

void BM_ShouldSample(benchmark::State& state) {
  Tracer tracer;
  uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracer.ShouldSample(seq++));
  }
}
BENCHMARK(BM_ShouldSample);

void BM_ScopedSpan(benchmark::State& state) {
  Tracer tracer;
  for (auto _ : state) {
    ScopedSpan span(&tracer, "bench.span");
    span.Tag("k", 1);
  }
  benchmark::DoNotOptimize(tracer.spans_recorded());
}
BENCHMARK(BM_ScopedSpan);

void BM_FireUntraced(benchmark::State& state) {
  FireRig rig;
  if (!rig.Init()) {
    state.SkipWithError("install failed");
    return;
  }
  rig.hooks.telemetry().tracer().set_sample_every(0);
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.hooks.Fire(rig.hook, key++));
  }
}
BENCHMARK(BM_FireUntraced);

void BM_FireTraced(benchmark::State& state) {
  FireRig rig;
  if (!rig.Init()) {
    state.SkipWithError("install failed");
    return;
  }
  rig.hooks.telemetry().tracer().set_sample_every(1);
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.hooks.Fire(rig.hook, key++));
  }
}
BENCHMARK(BM_FireTraced);

// --- asserted budgets + JSON emission --------------------------------------

int RunBudgetCheck(const std::string& out_path) {
  FireRig rig;
  if (!rig.Init()) {
    std::fprintf(stderr, "FAIL: bench rig install failed\n");
    return 1;
  }

  const double span_ns = MedianSpanNs();
  const double untraced_ns = MedianFireNs(rig, /*sample_every=*/0);
  const double sampled_ns =
      MedianFireNs(rig, /*sample_every=*/Tracer::kDefaultSampleEvery);
  const double traced_ns = MedianFireNs(rig, /*sample_every=*/1);
  const BatchMedians batch = MedianBatchNs(rig);

  const double untraced_delta = sampled_ns - untraced_ns;
  const double untraced_bound =
      untraced_ns * kUntracedSlackRatio > kUntracedSlackNs
          ? untraced_ns * kUntracedSlackRatio
          : kUntracedSlackNs;
  const double batch_delta = batch.one_sampled_ns - batch.untraced_ns;
  const double batch_bound = kSampledBatchTracedFires * traced_ns;

  std::printf("span (begin+2 tags+end):   %8.1f ns median\n", span_ns);
  std::printf("fire, tracer disabled:     %8.1f ns median\n", untraced_ns);
  std::printf("fire, 1-in-%u sampling:  %8.1f ns median (delta %+.1f ns, bound %.1f ns)\n",
              Tracer::kDefaultSampleEvery, sampled_ns, untraced_delta, untraced_bound);
  std::printf("fire, every fire traced:   %8.1f ns median (budget %.0f ns)\n", traced_ns,
              kTracedBudgetNs);
  std::printf("%zu-event batch, untraced: %8.1f ns median\n", kBatchEvents, batch.untraced_ns);
  std::printf("%zu-event batch, 1 sampled: %7.1f ns median (delta %+.1f ns, bound %.1f ns)\n",
              kBatchEvents, batch.one_sampled_ns, batch_delta, batch_bound);

  int failures = 0;
  if (traced_ns > kTracedBudgetNs) {
    std::fprintf(stderr,
                 "FAIL: traced fire median %.1f ns exceeds the %.0f ns budget — did the "
                 "span path grow a lock, an allocation, or extra clock reads?\n",
                 traced_ns, kTracedBudgetNs);
    ++failures;
  }
  if (untraced_delta > untraced_bound) {
    std::fprintf(stderr,
                 "FAIL: default-rate sampling costs %.1f ns/fire over the disabled "
                 "baseline (bound %.1f ns) — the untraced path must stay one relaxed "
                 "load and a branch\n",
                 untraced_delta, untraced_bound);
    ++failures;
  }
  if (batch_delta > batch_bound) {
    std::fprintf(stderr,
                 "FAIL: one sampled event costs its %zu-event batch %.1f ns over an "
                 "unsampled one (bound %.1f ns = %.0fx a traced fire) — only the sampled "
                 "event may run traced\n",
                 kBatchEvents, batch_delta, batch_bound, kSampledBatchTracedFires);
    ++failures;
  }
  if (failures == 0) {
    std::printf("budget checks: OK\n");
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"trace_overhead\",\n"
               "  \"span_ns\": %.2f,\n"
               "  \"untraced_fire_ns\": %.2f,\n"
               "  \"sampled_fire_ns\": %.2f,\n"
               "  \"traced_fire_ns\": %.2f,\n"
               "  \"sample_every\": %u,\n"
               "  \"untraced_delta_ns\": %.2f,\n"
               "  \"untraced_bound_ns\": %.2f,\n"
               "  \"traced_budget_ns\": %.0f,\n"
               "  \"batch_events\": %zu,\n"
               "  \"batch_untraced_ns\": %.2f,\n"
               "  \"batch_one_sampled_ns\": %.2f,\n"
               "  \"batch_sampled_delta_ns\": %.2f,\n"
               "  \"batch_sampled_bound_ns\": %.2f,\n"
               "  \"ok\": %s\n"
               "}\n",
               span_ns, untraced_ns, sampled_ns, traced_ns, Tracer::kDefaultSampleEvery,
               untraced_delta, untraced_bound, kTracedBudgetNs, kBatchEvents,
               batch.untraced_ns, batch.one_sampled_ns, batch_delta, batch_bound,
               failures == 0 ? "true" : "false");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rkd

int main(int argc, char** argv) {
  bool gbench = false;
  std::string out_path = "BENCH_trace_overhead.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
      gbench = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }
  if (gbench) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  return rkd::RunBudgetCheck(out_path);
}
