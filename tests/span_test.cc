// Tests for causal span tracing: nesting/parenting (direct API and through
// the Fire/FireBatch datapath), flight-recorder ring wraparound, sampling
// determinism, force-trace, the guardian's breach-triggered auto-dump, and
// the concurrent Begin/End vs Snapshot contract.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/failpoints.h"
#include "src/bytecode/assembler.h"
#include "src/rmt/control_plane.h"
#include "src/rmt/guardian.h"
#include "src/telemetry/span.h"
#include "src/telemetry/trace_export.h"

namespace rkd {
namespace {

const SpanRecord* Find(const std::vector<SpanRecord>& spans, const char* name) {
  for (const SpanRecord& span : spans) {
    if (std::strcmp(span.name, name) == 0) {
      return &span;
    }
  }
  return nullptr;
}

int64_t TagValue(const SpanRecord& span, const char* key) {
  for (uint8_t i = 0; i < span.num_tags; ++i) {
    if (std::strcmp(span.tags[i].key, key) == 0) {
      return span.tags[i].value;
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Direct span API: nesting, parenting, tags, depth overflow.
// ---------------------------------------------------------------------------

TEST(SpanTest, NestedSpansShareTraceAndParentCorrectly) {
  Tracer tracer;
  {
    ScopedSpan root(&tracer, "root");
    root.Tag("k", 7);
    {
      ScopedSpan child(&tracer, "child");
      ScopedSpan grandchild(&tracer, "grandchild");
    }
    ScopedSpan sibling(&tracer, "sibling");
  }
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);

  const SpanRecord* root = Find(spans, "root");
  const SpanRecord* child = Find(spans, "child");
  const SpanRecord* grandchild = Find(spans, "grandchild");
  const SpanRecord* sibling = Find(spans, "sibling");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  ASSERT_NE(grandchild, nullptr);
  ASSERT_NE(sibling, nullptr);

  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(root->depth, 0u);
  EXPECT_EQ(TagValue(*root, "k"), 7);
  EXPECT_EQ(child->parent_id, root->span_id);
  EXPECT_EQ(child->depth, 1u);
  EXPECT_EQ(grandchild->parent_id, child->span_id);
  EXPECT_EQ(grandchild->depth, 2u);
  EXPECT_EQ(sibling->parent_id, root->span_id);

  // Every span belongs to the same causal tree, and children are
  // time-contained in their parents.
  for (const SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, root->trace_id);
  }
  EXPECT_GE(child->start_ns, root->start_ns);
  EXPECT_LE(child->end_ns, root->end_ns);
  EXPECT_GE(grandchild->start_ns, child->start_ns);
  EXPECT_LE(grandchild->end_ns, child->end_ns);
}

TEST(SpanTest, SeparateRootsGetSeparateTraceIds) {
  Tracer tracer;
  { ScopedSpan a(&tracer, "a"); }
  { ScopedSpan b(&tracer, "b"); }
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].trace_id, spans[1].trace_id);
}

TEST(SpanTest, NullTracerIsANoOp) {
  ScopedSpan span(nullptr, "nothing");
  span.Tag("k", 1);  // must not crash
}

TEST(SpanTest, DepthOverflowIsCountedNotFatal) {
  Tracer tracer;
  for (size_t i = 0; i < kMaxSpanDepth + 4; ++i) {
    tracer.BeginSpan("deep");
  }
  for (size_t i = 0; i < kMaxSpanDepth + 4; ++i) {
    tracer.EndSpan();
  }
  EXPECT_EQ(tracer.Snapshot().size(), kMaxSpanDepth);
  EXPECT_GE(tracer.spans_dropped(), 4u);
}

// ---------------------------------------------------------------------------
// Flight-recorder ring wraparound.
// ---------------------------------------------------------------------------

TEST(SpanTest, RingWraparoundKeepsNewestSpansInOrder) {
  Tracer tracer(/*ring_capacity=*/8);
  constexpr int64_t kSpans = 20;
  for (int64_t i = 0; i < kSpans; ++i) {
    ScopedSpan span(&tracer, "s");
    span.Tag("i", i);
  }
  EXPECT_EQ(tracer.spans_recorded(), static_cast<uint64_t>(kSpans));

  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 8u);
  // The survivors are exactly the newest 8, returned sorted by start time.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(TagValue(spans[i], "i"), kSpans - 8 + static_cast<int64_t>(i));
    if (i > 0) {
      EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
    }
  }
}

// ---------------------------------------------------------------------------
// Sampling determinism.
// ---------------------------------------------------------------------------

TEST(SpanTest, SamplingIsDeterministicInSeq) {
  Tracer tracer;
  tracer.set_sample_every(4);
  for (uint64_t seq = 0; seq < 64; ++seq) {
    EXPECT_EQ(tracer.ShouldSample(seq), seq % 4 == 0) << "seq " << seq;
  }
  // Re-evaluating the same seqs gives the same traced set: no hidden state.
  for (uint64_t seq = 0; seq < 64; ++seq) {
    EXPECT_EQ(tracer.ShouldSample(seq), seq % 4 == 0) << "seq " << seq;
  }
  tracer.set_sample_every(0);
  for (uint64_t seq = 0; seq < 64; ++seq) {
    EXPECT_FALSE(tracer.ShouldSample(seq));
  }
  tracer.set_sample_every(1);
  for (uint64_t seq = 0; seq < 64; ++seq) {
    EXPECT_TRUE(tracer.ShouldSample(seq));
  }
}

// ---------------------------------------------------------------------------
// Fire / FireBatch datapath integration.
// ---------------------------------------------------------------------------

// A one-table program on "test.hook" whose only action returns `value`.
RmtProgramSpec ConstantProgram(const std::string& name, int64_t value,
                               bool with_helper_call = false) {
  Assembler as("test_action", HookKind::kGeneric);
  if (with_helper_call) {
    as.Call(HelperId::kGetTime);  // the "vm.helper" failpoint site
  }
  as.MovImm(0, value);
  as.Exit();
  RmtProgramSpec spec;
  spec.name = name;
  RmtTableSpec table;
  table.name = name + "_tab";
  table.hook_point = "test.hook";
  table.actions.push_back(std::move(as.Build()).value());
  table.default_action = 0;
  spec.tables.push_back(std::move(table));
  return spec;
}

// One hook + one installed trivial action (r0 = 1).
struct FireRig {
  HookRegistry hooks;
  ControlPlane control_plane{&hooks};
  HookId hook = -1;
  ControlPlane::ProgramHandle handle = -1;

  void Init(bool with_helper_call = false) {
    hook = *hooks.Register("test.hook", HookKind::kGeneric);
    handle = *control_plane.Install(ConstantProgram("span_test_prog", 1, with_helper_call));
  }
};

std::vector<HookEvent> KeyedEvents(size_t n) {
  std::vector<HookEvent> events;
  for (uint64_t i = 0; i < n; ++i) {
    events.emplace_back(i, std::initializer_list<int64_t>{});
  }
  return events;
}

TEST(SpanFireTest, SampledFireEmitsCausalTree) {
  FireRig rig;
  rig.Init();
  Tracer& tracer = rig.hooks.telemetry().tracer();
  tracer.set_sample_every(1);
  const uint64_t before = tracer.spans_recorded();
  (void)rig.hooks.Fire(rig.hook, 42);

  const std::vector<SpanRecord> spans = tracer.Snapshot();
  const SpanRecord* root = Find(spans, "hook.test.hook");
  const SpanRecord* lookup = Find(spans, "table.lookup");
  const SpanRecord* exec = Find(spans, "vm.exec");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(lookup, nullptr);
  ASSERT_NE(exec, nullptr);
  EXPECT_GT(tracer.spans_recorded(), before);

  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(lookup->parent_id, root->span_id);
  EXPECT_EQ(exec->parent_id, root->span_id);
  EXPECT_EQ(lookup->trace_id, root->trace_id);
  EXPECT_EQ(exec->trace_id, root->trace_id);
  EXPECT_EQ(TagValue(*root, "key"), 42);
  EXPECT_EQ(TagValue(*root, "result"), 1);
  EXPECT_EQ(TagValue(*exec, "err"), 0);
  EXPECT_EQ(TagValue(*exec, "tier"), 2);  // the control plane installs on the JIT
}

TEST(SpanFireTest, UntracedFireEmitsNothing) {
  FireRig rig;
  rig.Init();
  Tracer& tracer = rig.hooks.telemetry().tracer();
  tracer.set_sample_every(0);
  // cp.install / cp.verify spans from Init() are already in the ring.
  const uint64_t before = tracer.spans_recorded();
  for (uint64_t i = 0; i < 100; ++i) {
    (void)rig.hooks.Fire(rig.hook, i);
  }
  EXPECT_EQ(tracer.spans_recorded(), before);
}

TEST(SpanFireTest, ForceTraceOverridesDisabledSampling) {
  FireRig rig;
  rig.Init();
  Tracer& tracer = rig.hooks.telemetry().tracer();
  tracer.set_sample_every(0);
  rig.hooks.AdjustForceTrace(rig.hook, +1);
  EXPECT_TRUE(rig.hooks.ForceTraced(rig.hook));
  const uint64_t before = tracer.spans_recorded();
  (void)rig.hooks.Fire(rig.hook, 1);
  EXPECT_GT(tracer.spans_recorded(), before);

  rig.hooks.AdjustForceTrace(rig.hook, -1);
  EXPECT_FALSE(rig.hooks.ForceTraced(rig.hook));
  const uint64_t after_release = tracer.spans_recorded();
  (void)rig.hooks.Fire(rig.hook, 2);
  EXPECT_EQ(tracer.spans_recorded(), after_release);

  // Releasing below zero clamps instead of wrapping to "forced forever".
  rig.hooks.AdjustForceTrace(rig.hook, -5);
  EXPECT_FALSE(rig.hooks.ForceTraced(rig.hook));
}

TEST(SpanFireTest, FireBatchEmitsOneTreePerBatch) {
  FireRig rig;
  rig.Init();
  Tracer& tracer = rig.hooks.telemetry().tracer();
  tracer.set_sample_every(1);

  std::vector<HookEvent> events;
  for (uint64_t i = 0; i < 5; ++i) {
    events.emplace_back(i, std::initializer_list<int64_t>{});
  }
  std::vector<int64_t> results(events.size(), 0);
  const uint64_t before = tracer.spans_recorded();
  rig.hooks.FireBatch(rig.hook, events, results);
  for (const int64_t r : results) {
    EXPECT_EQ(r, 1);
  }

  const std::vector<SpanRecord> spans = tracer.Snapshot();
  const SpanRecord* root = Find(spans, "hook.test.hook");
  const SpanRecord* lookup = Find(spans, "table.lookup");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(TagValue(*root, "batch"), 5);
  EXPECT_EQ(lookup->parent_id, root->span_id);
  EXPECT_EQ(TagValue(*lookup, "events"), 5);
  EXPECT_EQ(TagValue(*lookup, "execs"), 5);
  EXPECT_EQ(TagValue(*lookup, "errors"), 0);
  // One tree for the whole batch: the per-batch overhead contract.
  EXPECT_EQ(tracer.spans_recorded() - before, 2u);
}

TEST(SpanFireTest, FireBatchTracesOnlySampledEvents) {
  const std::vector<HookEvent> events = KeyedEvents(10);  // seqs 0..9 on a fresh hook
  FireRig untraced;
  untraced.Init();
  untraced.hooks.telemetry().tracer().set_sample_every(0);
  std::vector<int64_t> expected(events.size(), 0);
  untraced.hooks.FireBatch(untraced.hook, events, expected);

  FireRig rig;
  rig.Init();
  Tracer& tracer = rig.hooks.telemetry().tracer();
  tracer.set_sample_every(4);
  std::vector<int64_t> results(events.size(), 0);
  rig.hooks.FireBatch(rig.hook, events, results);
  EXPECT_EQ(results, expected);

  // Seqs 0, 4 and 8 sample: each is its own one-event tree, and the seven
  // events between them leave no span at all.
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord& span : spans) {
    if (std::strcmp(span.name, "hook.test.hook") == 0) {
      roots.push_back(&span);
    }
  }
  ASSERT_EQ(roots.size(), 3u);
  for (size_t r = 0; r < roots.size(); ++r) {
    EXPECT_EQ(roots[r]->parent_id, 0u);
    EXPECT_EQ(TagValue(*roots[r], "seq"), static_cast<int64_t>(4 * r));
    EXPECT_EQ(TagValue(*roots[r], "batch"), 1);
    size_t children = 0;
    for (const SpanRecord& span : spans) {
      if (span.parent_id == roots[r]->span_id) {
        ++children;
        EXPECT_STREQ(span.name, "table.lookup");
        EXPECT_EQ(span.trace_id, roots[r]->trace_id);
        EXPECT_EQ(TagValue(span, "events"), 1);
        EXPECT_EQ(TagValue(span, "execs"), 1);
      }
    }
    EXPECT_EQ(children, 1u);
  }
  EXPECT_NE(roots[0]->trace_id, roots[1]->trace_id);
  EXPECT_NE(roots[1]->trace_id, roots[2]->trace_id);
}

TEST(SpanFireTest, SampledBatchKeepsCanaryRouting) {
  // Per-event results of one batch across a 500-permille canary split: seqs
  // 0..499 route to the canary (r0 = 2), 500..999 to the incumbent (r0 = 1).
  const auto fire_batch = [](uint32_t sample_every) {
    FireRig rig;
    rig.Init();
    ControlPlane::CanaryConfig config;
    config.canary_permille = 500;
    EXPECT_TRUE(rig.control_plane
                    .InstallCanary(rig.handle, ConstantProgram("span_test_canary", 2), config)
                    .ok());
    // The rollout force-traces its hook; drop that so sampling alone decides.
    rig.hooks.AdjustForceTrace(rig.hook, -1);
    rig.hooks.telemetry().tracer().set_sample_every(sample_every);
    const std::vector<HookEvent> events = KeyedEvents(1000);
    std::vector<int64_t> results(events.size(), 0);
    rig.hooks.FireBatch(rig.hook, events, results);
    return results;
  };
  const std::vector<int64_t> untraced = fire_batch(0);
  ASSERT_EQ(untraced.size(), 1000u);
  for (size_t seq = 0; seq < untraced.size(); ++seq) {
    EXPECT_EQ(untraced[seq], seq < 500 ? 2 : 1) << "seq " << seq;
  }
  EXPECT_EQ(fire_batch(4), untraced);
}

// ---------------------------------------------------------------------------
// Guardian flight-recorder auto-dump.
// ---------------------------------------------------------------------------

TEST(SpanGuardianTest, BreachDumpsFlightRecorderNamingTheProgram) {
  FireRig rig;
  rig.Init(/*with_helper_call=*/true);
  rig.hooks.telemetry().tracer().set_sample_every(4);

  PolicyGuardian guardian(&rig.control_plane);
  guardian.set_flight_recorder_dir(::testing::TempDir());
  BreakerConfig breaker;
  breaker.window_execs = 16;
  breaker.max_trips = 1;  // first trip quarantines -> containment decision
  ASSERT_TRUE(guardian.Guard(rig.handle, breaker).ok());
  EXPECT_EQ(guardian.flight_dumps(), 0u);

  {
    FailpointSpec fault;
    fault.mode = FailpointMode::kAlways;
    fault.force_error = true;
    ScopedFailpoint burst("vm.helper", fault);
    for (uint64_t i = 0; i < 32; ++i) {
      (void)rig.hooks.Fire(rig.hook, i);
    }
    guardian.Tick();
  }

  EXPECT_EQ(guardian.StateOf(rig.handle), GuardState::kQuarantined);
  EXPECT_EQ(guardian.flight_dumps(), 1u);
  ASSERT_FALSE(guardian.last_flight_dump().empty());

  std::ifstream dump(guardian.last_flight_dump());
  ASSERT_TRUE(dump.good()) << guardian.last_flight_dump();
  std::stringstream contents;
  contents << dump.rdbuf();
  const std::string text = contents.str();
  // The dump is a trace-event JSON tagged with the quarantined program and
  // the breach reason, and it carries the recorded spans.
  EXPECT_NE(text.find("traceEvents"), std::string::npos);
  EXPECT_NE(text.find("span_test_prog"), std::string::npos);
  EXPECT_NE(text.find("error rate"), std::string::npos);
  EXPECT_NE(text.find("hook.test.hook"), std::string::npos);
  std::remove(guardian.last_flight_dump().c_str());
}

TEST(SpanGuardianTest, NoDumpWhenDirUnset) {
  FireRig rig;
  rig.Init(/*with_helper_call=*/true);
  PolicyGuardian guardian(&rig.control_plane);
  BreakerConfig breaker;
  breaker.window_execs = 16;
  breaker.max_trips = 1;
  ASSERT_TRUE(guardian.Guard(rig.handle, breaker).ok());
  {
    FailpointSpec fault;
    fault.mode = FailpointMode::kAlways;
    fault.force_error = true;
    ScopedFailpoint burst("vm.helper", fault);
    for (uint64_t i = 0; i < 32; ++i) {
      (void)rig.hooks.Fire(rig.hook, i);
    }
    guardian.Tick();
  }
  EXPECT_EQ(guardian.StateOf(rig.handle), GuardState::kQuarantined);
  EXPECT_EQ(guardian.flight_dumps(), 0u);
  EXPECT_TRUE(guardian.last_flight_dump().empty());
}

// ---------------------------------------------------------------------------
// Concurrency: per-thread rings, and Snapshot racing live writers.
// ---------------------------------------------------------------------------

TEST(SpanConcurrencyTest, ThreadsGetIndependentStacksAndRings) {
  Tracer tracer;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan outer(&tracer, "outer");
        outer.Tag("thread", t);
        ScopedSpan inner(&tracer, "inner");
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads * kSpansPerThread * 2));
  // Parenting never crosses threads: every inner's parent is an outer from
  // the same thread.
  for (const SpanRecord& span : spans) {
    if (std::strcmp(span.name, "inner") != 0) {
      continue;
    }
    bool found_parent = false;
    for (const SpanRecord& candidate : spans) {
      if (candidate.span_id == span.parent_id) {
        EXPECT_STREQ(candidate.name, "outer");
        EXPECT_EQ(candidate.thread_index, span.thread_index);
        EXPECT_EQ(candidate.trace_id, span.trace_id);
        found_parent = true;
        break;
      }
    }
    EXPECT_TRUE(found_parent);
  }
}

TEST(SpanConcurrencyTest, SnapshotNeverReturnsTornRecordsUnderLoad) {
  Tracer tracer(/*ring_capacity=*/32);  // small ring -> constant wraparound
  std::atomic<bool> stop{false};
  constexpr int kWriters = 3;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&tracer, &stop] {
      int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ScopedSpan span(&tracer, "writer.span.with.a.long.name");
        span.Tag("i", i++);
      }
    });
  }
  // Snapshot repeatedly while the writers hammer the rings; every record
  // returned must be internally consistent (the seqlock contract).
  for (int round = 0; round < 200; ++round) {
    const std::vector<SpanRecord> spans = tracer.Snapshot();
    for (const SpanRecord& span : spans) {
      EXPECT_STREQ(span.name, "writer.span.with.a.long.name");
      EXPECT_GE(span.end_ns, span.start_ns);
      EXPECT_NE(span.span_id, 0u);
      EXPECT_LE(span.num_tags, kMaxSpanTags);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) {
    t.join();
  }
}

// ---------------------------------------------------------------------------
// Exporters over real snapshots.
// ---------------------------------------------------------------------------

TEST(TraceExportTest, PerfettoJsonCarriesSpansAndMetadata) {
  Tracer tracer;
  {
    ScopedSpan root(&tracer, "root");
    root.Tag("k", 3);
    ScopedSpan child(&tracer, "child");
  }
  TraceExportOptions options;
  options.program = "progX";
  options.reason = "test reason";
  const std::string json = ExportPerfettoTrace(tracer.Snapshot(), options);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"root\""), std::string::npos);
  EXPECT_NE(json.find("\"child\""), std::string::npos);
  EXPECT_NE(json.find("\"k\""), std::string::npos);
  EXPECT_NE(json.find("progX"), std::string::npos);
  EXPECT_NE(json.find("test reason"), std::string::npos);
}

TEST(TraceExportTest, TreeRenderIndentsChildren) {
  Tracer tracer;
  {
    ScopedSpan root(&tracer, "root");
    ScopedSpan child(&tracer, "child");
  }
  const std::string tree = RenderSpanTree(tracer.Snapshot());
  const size_t root_pos = tree.find("root");
  const size_t child_pos = tree.find("child");
  ASSERT_NE(root_pos, std::string::npos);
  ASSERT_NE(child_pos, std::string::npos);
  EXPECT_GT(child_pos, root_pos);
}

TEST(TraceExportTest, AggregateSpansRollsUpByName) {
  Tracer tracer;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(&tracer, "hot");
  }
  { ScopedSpan span(&tracer, "cold"); }
  const std::vector<SpanAggregate> aggregates = AggregateSpans(tracer.Snapshot());
  ASSERT_EQ(aggregates.size(), 2u);
  const SpanAggregate* hot = nullptr;
  for (const SpanAggregate& agg : aggregates) {
    if (agg.name == "hot") {
      hot = &agg;
    }
  }
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->count, 3u);
  EXPECT_GE(hot->total_ns, hot->max_ns);
}

}  // namespace
}  // namespace rkd
