// net_steady: the learned RX datapath (LPM route, ternary ACL, exact flow
// cache with a random-forest steering action) driven by NetRxSim in 64-packet
// FireBatch windows, the size of one NAPI poll. 512 Zipf(1.1) flows fit the
// 1024-entry flow cache, so the timed phase writes no table entry and most of
// a call is DecideBatch: fire-path, tier-3 and ML-eval changes show here.
#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/base/epoch.h"
#include "src/base/rng.h"
#include "src/ml/dataset.h"
#include "src/rmt/control_plane.h"
#include "src/sim/net/net_sim.h"
#include "src/sim/net/rx_datapath.h"
#include "src/verifier/verifier.h"
#include "src/workloads/packet_trace.h"

namespace perfbench {
namespace {

using rkd::PacketEvent;
using rkd::PacketTrace;

constexpr size_t kWindow = 64;            // packets per FireBatch window (one NAPI poll)
constexpr size_t kTracePackets = 1 << 16;  // replayed cyclically
constexpr size_t kFlows = 512;
constexpr size_t kCapturePackets = 32768;  // heuristic capture the forest trains on
constexpr int kSetups = 7;                 // setup_s is their median
constexpr size_t kChunkCycles = 4;         // trace cycles per chunk (see PhaseLog)
constexpr size_t kProbeWindows = 256;      // windows each layer probe replays

// Shipped NetConfig defaults except the window: 2048-packet windows would
// hold a sampled fire in every window (1-in-1024 sampling), so tier 3 would
// never serve.
rkd::NetConfig MakeNetConfig(bool tiering) {
  rkd::NetConfig config;
  config.batch_size = kWindow;
  config.enable_tiering = tiering;
  return config;
}

PacketTrace MakeTrace(uint64_t seed) {
  rkd::PacketTraceConfig config;
  config.packets = kTracePackets;
  config.flows = kFlows;
  config.zipf_skew = 1.1;
  config.churn_interval = 0;  // no flow churn; the flood is off by default
  rkd::Rng rng(seed);
  return rkd::MakePacketTrace(config, rng);
}

std::span<const PacketEvent> WindowAt(const PacketTrace& trace, uint64_t index) {
  const size_t offset = static_cast<size_t>(index * kWindow % trace.size());
  return std::span<const PacketEvent>(trace).subspan(offset, kWindow);
}

struct NetInstance {
  std::unique_ptr<rkd::RmtRxDatapath> datapath;
  std::unique_ptr<rkd::NetRxSim> sim;  // points into datapath; reset first
  rkd::ModelPtr model;
  double train_s = 0.0;
  uint64_t windows = 0;  // windows fed so far, warm-up included
  rkd::ControlPlane::TierReport tier;  // at the end of set-up

  void Reset() {
    sim.reset();
    datapath.reset();
    model.reset();
    windows = 0;
  }
};

// Hook registration, program verify and install (Init), the heuristic
// capture run, forest training, model install and the warm-up prefix.
rkd::Status SetUp(const PacketTrace& trace, uint64_t seed, NetInstance* inst) {
  inst->Reset();
  rkd::Dataset training(rkd::kNetFeatureCount);
  {
    rkd::RmtRxDatapath capture(MakeNetConfig(true), rkd::RxPolicyKind::kHeuristic);
    RKD_RETURN_IF_ERROR(capture.Init());
    rkd::NetRxSim sim(&capture);
    sim.set_training_sink(&training);
    sim.Run(std::span<const PacketEvent>(trace).first(kCapturePackets));
  }
  const uint64_t train_start = NowNs();
  RKD_ASSIGN_OR_RETURN(inst->model,
                       rkd::TrainNetModel(training, rkd::NetModelFamily::kRandomForest, seed));
  inst->train_s = static_cast<double>(NowNs() - train_start) * 1e-9;

  inst->datapath =
      std::make_unique<rkd::RmtRxDatapath>(MakeNetConfig(true), rkd::RxPolicyKind::kLearned);
  RKD_RETURN_IF_ERROR(inst->datapath->Init());
  RKD_RETURN_IF_ERROR(inst->datapath->InstallModel(inst->model));
  inst->sim = std::make_unique<rkd::NetRxSim>(inst->datapath.get());
  // Warm-up: one whole pass of the trace, so every flow has been seen and
  // cached, tier 3 is live, and the sim's per-flow state no longer grows.
  while (inst->windows * kWindow < trace.size()) {
    inst->sim->Run(WindowAt(trace, inst->windows++));
  }
  RKD_ASSIGN_OR_RETURN(inst->tier,
                       inst->datapath->control_plane().TickTiering(inst->datapath->handle()));
  return rkd::OkStatus();
}

// Failed operations, cumulative: fires that returned an error, governor-
// degraded or shed fires, sim fallback decisions, context publish failures.
uint64_t FailedOps(rkd::RmtRxDatapath& dp, const rkd::NetRxSim& sim) {
  uint64_t failed = sim.metrics().fallback_decisions + dp.context_publish_failures();
  for (const rkd::HookId hook : {dp.route_hook(), dp.classify_hook(), dp.packet_hook()}) {
    const rkd::HookMetrics m = dp.hooks().MetricsOf(hook);
    failed += m.exec_errors() + m.degraded_fires() + m.shed_fires();
  }
  return failed;
}

rkd::RmtTable& FlowTable(NetInstance& inst) {
  rkd::InstalledProgram* program =
      inst.datapath->control_plane().Get(inst.datapath->handle());
  return program->FindTable("rx_flow")->table();
}

struct Phase {
  uint64_t calls = 0;
  uint64_t events = 0;
  uint64_t elapsed_ns = 0;
  // Sim counters and windows fed at the end of each chunk (output check).
  std::vector<std::pair<uint64_t, rkd::NetMetrics>> chunk_ends;
  // Traced phase only.
  uint64_t sampled_calls = 0;
  rkd::Samples sampled_us;
  rkd::Samples unsampled_us;
};

// The closed loop: one NetRxSim::Run per 64-packet window, in chunks of
// kChunkCycles whole trace cycles, until `seconds` have passed (at least
// one chunk, and kMinCalls calls). With `spans` set, every call is a span
// and the hooks' fire counts are read around it to tell whether the tracer
// sampled part of the call.
Phase RunTimed(NetInstance& inst, const PacketTrace& trace, double seconds, PhaseLog* log,
               SpanLog* spans, rkd::NetMetrics* quality) {
  Phase phase;
  rkd::RmtRxDatapath& dp = *inst.datapath;
  const std::array<rkd::HookId, 3> hooks = {dp.route_hook(), dp.classify_hook(),
                                            dp.packet_hook()};
  const uint32_t every = dp.hooks().telemetry().tracer().sample_every();
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  const uint64_t chunk_windows = kChunkCycles * (trace.size() / kWindow);
  const rkd::RmtTable& flow_table = FlowTable(inst);
  std::array<uint64_t, 3> fires_before{};
  uint64_t version_before = 0;
  uint64_t chunk_events = 0;
  const uint64_t start = NowNs();
  log->Start(start);
  for (;;) {
    const std::span<const PacketEvent> window = WindowAt(trace, inst.windows++);
    if (spans != nullptr) {
      for (size_t h = 0; h < hooks.size(); ++h) {
        fires_before[h] = dp.hooks().MetricsOf(hooks[h]).fires();
      }
      version_before = flow_table.version();
    }
    const uint64_t t0 = NowNs();
    inst.sim->Run(window);
    const uint64_t t1 = NowNs();
    log->AddCall(t1 - t0);
    if (spans != nullptr) {
      const uint64_t wrote = flow_table.version() - version_before;
      if (phase.calls < kMaxCallSpans) {
        spans->Add("call.net_rx_window", t0, t1, wrote);
      }
      bool sampled = false;
      for (size_t h = 0; h < hooks.size(); ++h) {
        sampled |= RangeSampled(fires_before[h], dp.hooks().MetricsOf(hooks[h]).fires(), every);
      }
      phase.sampled_calls += sampled ? 1 : 0;
      (sampled ? phase.sampled_us : phase.unsampled_us).Add(static_cast<double>(t1 - t0) * 1e-3);
    }
    ++phase.calls;
    phase.events += window.size();
    chunk_events += window.size();
    if (phase.calls == kMinCalls && quality != nullptr) {
      *quality = inst.sim->metrics();
    }
    if (inst.windows % chunk_windows != 0) {
      continue;
    }
    log->EndChunk(t1, chunk_events);
    chunk_events = 0;
    phase.chunk_ends.emplace_back(inst.windows, inst.sim->metrics());
    if (t1 - start >= budget_ns && phase.calls >= kMinCalls) {
      phase.elapsed_ns = t1 - start;
      return phase;
    }
  }
}

// The output check: a tiering-off datapath with the same model, fed the
// same windows from the start of set-up's warm-up through the end of the
// first quarter of the timed phase's chunks, must end with identical domain
// counters. (Replaying the whole phase would double the run's length.)
void CheckAgainstReference(const NetInstance& inst, const PacketTrace& trace, const Phase& phase,
                           RunResult* result) {
  const auto& checkpoint = phase.chunk_ends[(phase.chunk_ends.size() - 1) / 4];
  const uint64_t windows = checkpoint.first;
  const rkd::NetMetrics& got = checkpoint.second;
  result->Detail("check.windows_compared", static_cast<double>(windows), "count");
  rkd::RmtRxDatapath ref(MakeNetConfig(false), rkd::RxPolicyKind::kLearned);
  rkd::Status status = ref.Init();
  if (status.ok()) {
    status = ref.InstallModel(inst.model);
  }
  result->Check(status.ok(), "reference datapath set-up: " + status.ToString());
  if (!status.ok()) {
    return;
  }
  rkd::NetRxSim sim(&ref);
  for (uint64_t w = 0; w < windows; ++w) {
    sim.Run(WindowAt(trace, w));
  }
  const rkd::NetMetrics& want = sim.metrics();
  const auto same = [&](const char* name, const auto& a, const auto& b) {
    result->Check(a == b, std::string("net counter ") + name +
                              " differs from the tiering-off reference");
  };
  same("packets", got.packets, want.packets);
  same("bytes", got.bytes, want.bytes);
  same("queue_packets", got.queue_packets, want.queue_packets);
  same("queue_bytes", got.queue_bytes, want.queue_bytes);
  same("cache_hits", got.cache_hits, want.cache_hits);
  same("cache_misses", got.cache_misses, want.cache_misses);
  same("policy_drops", got.policy_drops, want.policy_drops);
  same("overflow_drops", got.overflow_drops, want.overflow_drops);
  same("redirects", got.redirects, want.redirects);
  same("legit_delivered", got.legit_delivered, want.legit_delivered);
  same("legit_dropped", got.legit_dropped, want.legit_dropped);
  same("fallback_decisions", got.fallback_decisions, want.fallback_decisions);
}

struct Deltas {
  rkd::ControlPlane::TierReport tier_before;
  rkd::ControlPlane::TierReport tier_after;
  uint64_t flow_version_before = 0;
  uint64_t flow_version_after = 0;
  rkd::NetMetrics sim_before;
  rkd::NetMetrics sim_after;
};

// Per-layer probes: each layer's public entry point, called on this
// workload's own windows, feature rows, keys, model and program spec.
void Probe(NetInstance& inst, const PacketTrace& trace, const Phase& timed, const Deltas& deltas,
           double train_us, RunResult* r, SpanLog* spans) {
  rkd::RmtRxDatapath& dp = *inst.datapath;
  rkd::ControlPlane& cp = dp.control_plane();
  rkd::InstalledProgram* program = cp.Get(dp.handle());
  rkd::HookRegistry& hooks = dp.hooks();

  // The feature rows NetRxSim builds for the next kProbeWindows windows,
  // with the route and ACL lanes DecideBatch fills in.
  rkd::Dataset rows(rkd::kNetFeatureCount);
  const uint64_t first = inst.windows;
  inst.sim->set_training_sink(&rows);
  for (size_t w = 0; w < kProbeWindows; ++w) {
    inst.sim->Run(WindowAt(trace, inst.windows++));
  }
  inst.sim->set_training_sink(nullptr);
  r->Check(rows.size() == kProbeWindows * kWindow, "probe feature rows captured");
  if (rows.size() != kProbeWindows * kWindow) {
    return;
  }
  const auto packet = [&](size_t k) -> const PacketEvent& {
    return WindowAt(trace, first + k / kWindow)[k % kWindow];
  };
  std::vector<rkd::NetFeatureRow> features(rows.size());
  for (size_t k = 0; k < rows.size(); ++k) {
    std::copy_n(rows.row(k).begin(), rkd::kNetFeatureCount, features[k].begin());
  }

  // sim.net: DecideBatch per window.
  std::vector<int64_t> decisions(kWindow);
  rkd::Samples decide =
      TimeProbe("probe.decide_batch", spans, kProbeWindows, 1.0, 1e-3, [&](size_t w) {
        dp.DecideBatch(WindowAt(trace, first + w),
                       std::span(features).subspan(w * kWindow, kWindow), {}, decisions);
      });

  // rmt.hooks: one FireBatch per stage per window, and single fires.
  std::vector<rkd::HookEvent> hook_events(kWindow);
  std::vector<int64_t> results(kWindow);
  rkd::Samples route_us, classify_us, flow_us, stages_us;
  for (size_t w = 0; w < kProbeWindows; ++w) {
    const auto stage = [&](const char* name, rkd::HookId hook, rkd::Samples* out,
                           const auto& make_event) {
      for (size_t i = 0; i < kWindow; ++i) {
        hook_events[i] = make_event(w * kWindow + i);
      }
      const uint64_t t0 = NowNs();
      hooks.FireBatch(hook, hook_events, results);
      const uint64_t t1 = NowNs();
      spans->Add(name, t0, t1, w);
      out->Add(static_cast<double>(t1 - t0) * 1e-3);
      return static_cast<double>(t1 - t0) * 1e-3;
    };
    double total = stage("probe.fire_batch.route", dp.route_hook(), &route_us, [&](size_t k) {
      return rkd::HookEvent(packet(k).dst_ip, {});
    });
    total += stage("probe.fire_batch.classify", dp.classify_hook(), &classify_us,
                   [&](size_t k) { return rkd::HookEvent(rkd::ClassifyKey(packet(k)), {}); });
    total += stage("probe.fire_batch.flow", dp.packet_hook(), &flow_us, [&](size_t k) {
      return rkd::HookEvent(packet(k).flow_id,
                            {features[k][rkd::kNfAclVerdict], features[k][rkd::kNfRouteClass],
                             packet(k).length});
    });
    stages_us.Add(total);
  }
  constexpr size_t kFireGroup = 16;
  rkd::Samples fire = TimeProbe("probe.fire", spans, kProbeWindows, kFireGroup, 1e-3,
                                [&](size_t g) {
                                  for (size_t j = 0; j < kFireGroup; ++j) {
                                    const size_t k = g * kFireGroup + j;
                                    hooks.Fire(dp.packet_hook(), packet(k).flow_id,
                                               std::array<int64_t, 3>{
                                                   features[k][rkd::kNfAclVerdict],
                                                   features[k][rkd::kNfRouteClass],
                                                   packet(k).length});
                                  }
                                });

  // rmt.table: Match on every installed table with the keys its stage uses.
  double match_ns = 0.0;
  {
    rkd::EpochGuard guard(rkd::GlobalEpochDomain());
    for (const auto& attached : program->tables()) {
      rkd::RmtTable& table = attached->table();
      const rkd::MatchKind kind = table.match_kind();
      const char* name = kind == rkd::MatchKind::kLpm       ? "probe.match.lpm"
                         : kind == rkd::MatchKind::kTernary ? "probe.match.ternary"
                         : kind == rkd::MatchKind::kExact   ? "probe.match.exact"
                                                            : "probe.match.range";
      size_t hits = 0;
      rkd::Samples match = TimeProbe(name, spans, kProbeWindows, kWindow, 1.0, [&](size_t w) {
        for (size_t i = 0; i < kWindow; ++i) {
          const PacketEvent& p = packet(w * kWindow + i);
          const uint64_t key = kind == rkd::MatchKind::kLpm       ? p.dst_ip
                               : kind == rkd::MatchKind::kTernary ? rkd::ClassifyKey(p)
                                                                  : p.flow_id;
          hits += table.Match(key) != nullptr ? 1 : 0;
        }
      });
      const double median = MedianOf(match);
      match_ns += median;
      r->Detail(std::string("rmt.table.") + std::string(rkd::MatchKindName(kind)) +
                    "_match_ns",
                median, "ns");
      r->Detail(std::string("rmt.table.") + std::string(rkd::MatchKindName(kind)) +
                    "_hit_ratio",
                static_cast<double>(hits) / static_cast<double>(kProbeWindows * kWindow),
                "ratio");
    }
  }

  // vm: context publish (FindOrCreate plus the lane copy), per flow.
  rkd::ContextStore& context = program->context();
  rkd::Samples publish = TimeProbe("probe.context_publish", spans, kProbeWindows, kWindow, 1.0,
                                   [&](size_t w) {
                                     for (size_t i = 0; i < kWindow; ++i) {
                                       const size_t k = w * kWindow + i;
                                       rkd::ContextEntry* entry =
                                           context.FindOrCreate(packet(k).flow_id);
                                       if (entry != nullptr) {
                                         entry->features.fill(0);
                                         std::copy(features[k].begin(), features[k].end(),
                                                   entry->features.begin());
                                       }
                                     }
                                   });

  // rmt.table writes: EvictFlow then InsertFlow of a cached flow, each
  // republishing the flow table's index.
  rkd::RmtTable& flow_table = FlowTable(inst);
  std::vector<uint64_t> cached;
  for (const rkd::TableEntry& entry : flow_table.entries()) {
    if (cached.size() < 32) {
      cached.push_back(entry.key);
    }
  }
  rkd::Samples mutate;
  for (size_t i = 0; i < cached.size(); ++i) {
    uint64_t t0 = NowNs();
    const rkd::Status evicted = dp.EvictFlow(cached[i]);
    uint64_t t1 = NowNs();
    spans->Add("probe.evict_flow", t0, t1, i);
    mutate.Add(static_cast<double>(t1 - t0) * 1e-3);
    t0 = NowNs();
    const rkd::Status inserted = dp.InsertFlow(cached[i]);
    t1 = NowNs();
    spans->Add("probe.insert_flow", t0, t1, i);
    mutate.Add(static_cast<double>(t1 - t0) * 1e-3);
    r->Check(evicted.ok() && inserted.ok(), "probe flow-table write: " + evicted.ToString() +
                                                " / " + inserted.ToString());
  }

  // rmt.control_plane: TickTiering right after a table-mutation deopt,
  // InstallModel (with its cost-model re-check), and Install of the spec.
  rkd::Samples respecialize;
  for (size_t i = 0; i < 16 && !cached.empty(); ++i) {
    (void)dp.EvictFlow(cached[i % cached.size()]);
    (void)dp.InsertFlow(cached[i % cached.size()]);
    const uint64_t t0 = NowNs();
    const auto report = cp.TickTiering(dp.handle());
    const uint64_t t1 = NowNs();
    spans->Add("probe.respecialize", t0, t1, i);
    respecialize.Add(static_cast<double>(t1 - t0) * 1e-3);
    r->Check(report.ok(), "probe TickTiering: " + report.status().ToString());
  }
  rkd::Samples install_model =
      TimeProbe("probe.install_model", spans, 16, 1.0, 1e-3, [&](size_t) {
        r->Check(cp.InstallModel(dp.handle(), 0, inst.model).ok(), "probe InstallModel");
      });
  const rkd::RmtProgramSpec spec = dp.BuildProgramSpec();
  rkd::Samples install;
  for (size_t i = 0; i < 8; ++i) {
    rkd::HookRegistry fresh;
    rkd::SubsystemBindings bindings;
    bindings.now = [] { return uint64_t{0}; };
    for (const rkd::HookId id : {dp.route_hook(), dp.classify_hook(), dp.packet_hook()}) {
      (void)fresh.Register(hooks.NameOf(id), rkd::HookKind::kNetRx, bindings);
    }
    rkd::ControlPlane plane(&fresh);
    const uint64_t t0 = NowNs();
    const auto handle = plane.Install(spec, rkd::ExecTier::kJit);
    const uint64_t t1 = NowNs();
    spans->Add("probe.install", t0, t1, i);
    install.Add(static_cast<double>(t1 - t0) * 1e-3);
    r->Check(handle.ok(), "probe Install: " + handle.status().ToString());
  }

  // verifier: Verify on each action of the spec; one sample is the spec.
  const rkd::Verifier verifier;
  rkd::Samples verify = TimeProbe("probe.verify_spec", spans, 16, 1.0, 1e-3, [&](size_t) {
    for (const rkd::RmtTableSpec& table : spec.tables) {
      for (const rkd::BytecodeProgram& action : table.actions) {
        r->Check(verifier.Verify(action, &program->models()).ok(), "probe Verify");
      }
    }
  });

  // ml: forest predict on the captured feature rows.
  int64_t predicted = 0;
  rkd::Samples predict = TimeProbe("probe.predict", spans, kProbeWindows, kWindow, 1.0,
                                   [&](size_t w) {
                                     for (size_t i = 0; i < kWindow; ++i) {
                                       predicted += inst.model->Predict(rows.row(w * kWindow + i));
                                     }
                                   });
  r->Detail("ml.predict_class_sum", static_cast<double>(predicted), "count");

  // Accounting of the untraced timed phase.
  const double elapsed_ns = static_cast<double>(timed.elapsed_ns);
  const double mutations =
      static_cast<double>(deltas.flow_version_after - deltas.flow_version_before);
  const double decide_share =
      static_cast<double>(timed.calls) * decide.Mean() * 1e3 / elapsed_ns;
  const double events = static_cast<double>(timed.events);
  const uint64_t hits = deltas.sim_after.cache_hits - deltas.sim_before.cache_hits;
  const uint64_t misses = deltas.sim_after.cache_misses - deltas.sim_before.cache_misses;
  const auto& tb = deltas.tier_before;
  const auto& ta = deltas.tier_after;
  const auto deopts = [&](rkd::DeoptReason reason) {
    const size_t i = static_cast<size_t>(reason);
    return static_cast<double>(ta.deopts_by_reason[i] - tb.deopts_by_reason[i]) / events * 1e3;
  };

  r->Add("sim.self_share", 1.0 - decide_share, "ratio");
  r->Add("sim.decide_share", decide_share, "ratio");
  r->Add("sim.decide_us", MedianOf(decide), "us");
  r->Add("sim.flow_cache_miss_ratio",
         hits + misses > 0 ? static_cast<double>(misses) / static_cast<double>(hits + misses)
                           : 0.0,
         "ratio");
  r->Add("sim.faults_per_kaccess", 0.0, "count");  // no paging in the net domain
  r->Add("rmt.hooks.fire_us", MedianOf(fire), "us");
  r->Add("rmt.hooks.batch_us", MedianOf(stages_us), "us");
  r->Detail("rmt.hooks.route_batch_us", MedianOf(route_us), "us");
  r->Detail("rmt.hooks.classify_batch_us", MedianOf(classify_us), "us");
  r->Detail("rmt.hooks.flow_batch_us", MedianOf(flow_us), "us");
  r->Add("rmt.table.match_ns", match_ns, "ns");
  r->Add("rmt.table.mutate_us", MedianOf(mutate), "us");
  r->Add("rmt.table.mutations_per_kevent", mutations / events * 1e3, "count");
  r->Add("vm.tier3_share",
         ta.execs > tb.execs ? static_cast<double>(ta.tier3_execs - tb.tier3_execs) /
                                   static_cast<double>(ta.execs - tb.execs)
                             : 0.0,
         "ratio");
  r->Add("vm.deopts_per_kevent.table_mutation", deopts(rkd::DeoptReason::kTableMutation),
         "count");
  r->Add("vm.deopts_per_kevent.model_install", deopts(rkd::DeoptReason::kModelInstall),
         "count");
  r->Add("vm.deopts_per_kevent.map_write", deopts(rkd::DeoptReason::kMapWrite), "count");
  r->Add("vm.context_publish_ns", MedianOf(publish), "ns");
  r->Add("rmt.control_plane.respecialize_us", MedianOf(respecialize), "us");
  r->Add("rmt.control_plane.install_model_us", MedianOf(install_model), "us");
  r->Add("rmt.control_plane.install_us", MedianOf(install), "us");
  r->Add("verifier.verify_us", MedianOf(verify), "us");
  r->Add("ml.predict_ns", MedianOf(predict), "ns");
  r->Add("ml.train_us", train_us, "us");
  r->Add("ml.windows_per_kevent", 0.0, "count");  // the forest is trained once, in set-up
}

}  // namespace

RunResult RunNetWorkload(const Options& options, SpanLog* spans) {
  RunResult result;
  const PacketTrace trace = MakeTrace(options.seed);
  if (trace.size() % kWindow != 0 || trace.size() < kCapturePackets) {
    result.Check(false, "packet trace has an unexpected size");
    return result;
  }
  PhaseLog log(PhaseLogCapacity(options.seconds));
  if (options.trace) {
    spans->Reserve(kMaxCallSpans + 8192);
  }
  const uint64_t baseline_kb = ResidentKb();
  result.Detail("rss.baseline_mb", static_cast<double>(baseline_kb) / 1024.0, "MiB");
  result.Detail("rss.peak_before_setup_mb", static_cast<double>(PeakResidentKb()) / 1024.0,
                "MiB");

  NetInstance inst;
  rkd::Samples setup_s;
  rkd::Samples train_s;
  for (int i = 0; i < kSetups; ++i) {
    const uint64_t t0 = NowNs();
    const rkd::Status status = SetUp(trace, options.seed, &inst);
    setup_s.Add(static_cast<double>(NowNs() - t0) * 1e-9);
    train_s.Add(inst.train_s);
    if (!status.ok()) {
      result.Check(false, "set-up: " + status.ToString());
      return result;
    }
  }
  result.Detail("vm.tier_at_ready", inst.tier.tier, "count");

  // A traced run splits its seconds between an untraced and a traced phase.
  const double phase_seconds = options.trace ? options.seconds / 2 : options.seconds;
  rkd::RmtRxDatapath& dp = *inst.datapath;
  Deltas deltas;
  deltas.tier_before = inst.tier;
  deltas.flow_version_before = FlowTable(inst).version();
  deltas.sim_before = inst.sim->metrics();
  const uint64_t failed_before = FailedOps(dp, *inst.sim);
  rkd::NetMetrics quality;
  const Phase timed = RunTimed(inst, trace, phase_seconds, &log, nullptr, &quality);
  const uint64_t peak_kb = PeakResidentKb();
  deltas.flow_version_after = FlowTable(inst).version();
  deltas.sim_after = inst.sim->metrics();
  const auto tier_after = dp.control_plane().TickTiering(dp.handle());
  result.Check(tier_after.ok(), "TickTiering after the timed phase");
  if (tier_after.ok()) {
    deltas.tier_after = *tier_after;
  }
  rkd::Samples latency = log.AllMicros();
  const double untraced_p50_us = latency.Percentile(50);
  result.attempted = timed.events;
  result.Detail("calls", static_cast<double>(timed.calls), "count");
  for (size_t i = 0; i < log.chunk_rates().size(); ++i) {
    result.Detail("chunk_events_per_s." + std::to_string(i), log.chunk_rates()[i], "events/s");
  }

  if (!options.trace) {
    result.Add("events_per_s",
               static_cast<double>(timed.events) * 1e9 / static_cast<double>(timed.elapsed_ns),
               "events/s");
    result.Add("call_p50_us", latency.Percentile(50), "us");
    result.Add("call_p99_us", latency.Percentile(99), "us");
    result.Add("setup_s", MedianOf(setup_s), "s");
    result.Add("peak_rss_mb",
               static_cast<double>(peak_kb - std::min(peak_kb, baseline_kb)) / 1024.0, "MiB");
    result.Add("decision_quality", quality.LegitDeliveryRate(), "ratio");
  } else {
    Phase traced = RunTimed(inst, trace, phase_seconds, &log, spans, nullptr);
    result.attempted += traced.events;
    result.Add("rmt.hooks.sampled_call_share",
               static_cast<double>(traced.sampled_calls) / static_cast<double>(traced.calls),
               "ratio");
    result.Add("bench.trace_overhead_us", log.AllMicros().Percentile(50) - untraced_p50_us,
               "us");
    result.Detail("call_sampled_p50_us", traced.sampled_us.Percentile(50), "us");
    result.Detail("call_unsampled_p50_us", traced.unsampled_us.Percentile(50), "us");
    result.Detail("call_unsampled_p99_us", traced.unsampled_us.Percentile(99), "us");
  }

  // Every packet decided, failures counted, then the reference comparison.
  result.failed = FailedOps(dp, *inst.sim) - failed_before;
  result.Check(dp.packets_decided() == inst.windows * kWindow &&
                   inst.sim->metrics().packets == inst.windows * kWindow,
               "every packet decided");

  if (options.trace) {
    Probe(inst, trace, timed, deltas, MedianOf(train_s) * 1e6, &result, spans);
  }
  CheckAgainstReference(inst, trace, timed, &result);
  result.correct = result.check_failures.empty();
  return result;
}

}  // namespace perfbench
