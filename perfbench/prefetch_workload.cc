// prefetch_online: the paper's case study 1. RmtMlPrefetcher with its
// shipped defaults (decision tree retrained online every 256 samples,
// adaptation and tiering on) under MemorySim with 192 frames, on the
// interleaved video-resize and matrix-conv traces. The call unit is one
// Prefetcher::OnFault, timed by a forwarding Prefetcher. Every fault does a
// single Fire on the prefetch hook plus a FireBatch of the buffered
// accesses; a few faults also retrain a window, install the model and
// respecialize, which sets p99. Neither net workload makes single fires or
// model installs under load.
#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/workloads.h"
#include "src/base/epoch.h"
#include "src/base/rng.h"
#include "src/ml/dataset.h"
#include "src/ml/decision_tree.h"
#include "src/rmt/control_plane.h"
#include "src/sim/mem/memory_sim.h"
#include "src/sim/mem/ml_prefetcher.h"
#include "src/verifier/verifier.h"
#include "src/workloads/access_trace.h"

namespace perfbench {
namespace {

using rkd::AccessTrace;

constexpr size_t kFrames = 192;
constexpr int kWarmupPasses = 4;  // untimed: models trained and installed, tier 3 live
constexpr int kSetups = 15;       // setup_s is the median
constexpr size_t kChunkPasses = 8;  // trace passes per timing chunk (see PhaseLog)
constexpr size_t kProbeIterations = 256;
constexpr size_t kFeatureDeltas = 4;  // MlPrefetcherConfig::feature_deltas
constexpr size_t kWindowSamples = 256;  // MlPrefetcherConfig::window_size
constexpr const char* kAccessHook = "mm.lookup_swap_cache";
constexpr const char* kPrefetchHook = "mm.swap_cluster_readahead";

AccessTrace MakeTrace(uint64_t seed) {
  rkd::Rng rng(seed);
  const AccessTrace video = rkd::MakeVideoResizeTrace(rkd::VideoResizeConfig{}, rng);
  const AccessTrace conv = rkd::MakeMatrixConvTrace(rkd::MatrixConvConfig{}, rng);
  return rkd::Interleave({video, conv});
}

rkd::MemSimConfig SimConfig() {
  rkd::MemSimConfig config;
  config.frame_capacity = kFrames;
  return config;
}

// Forwards every call to the RMT prefetcher. While armed it times each
// OnFault into the call log; while traced it also records a span per
// OnFault, times OnAccess, and reads both hooks' fire counts around each
// OnFault to tell whether the tracer sampled part of it.
class TimedPrefetcher final : public rkd::Prefetcher {
 public:
  explicit TimedPrefetcher(rkd::RmtMlPrefetcher* inner) : inner_(inner) {
    auto& hooks = inner_->hooks();
    hooks_ = {hooks.Lookup(kAccessHook).value(), hooks.Lookup(kPrefetchHook).value()};
    every_ = hooks.telemetry().tracer().sample_every();
  }

  std::string_view name() const override { return inner_->name(); }

  void OnAccess(uint64_t pid, int64_t page, bool hit) override {
    if (spans_ == nullptr) {
      inner_->OnAccess(pid, page, hit);
      return;
    }
    const uint64_t t0 = NowNs();
    inner_->OnAccess(pid, page, hit);
    access_ns_ += NowNs() - t0;
  }

  void OnFault(uint64_t pid, int64_t page, std::vector<int64_t>& out_pages) override {
    ++faults_;
    if (log_ == nullptr) {
      inner_->OnFault(pid, page, out_pages);
      return;
    }
    std::array<uint64_t, 2> before{};
    if (spans_ != nullptr) {
      for (size_t h = 0; h < hooks_.size(); ++h) {
        before[h] = inner_->hooks().MetricsOf(hooks_[h]).fires();
      }
    }
    const uint64_t t0 = NowNs();
    inner_->OnFault(pid, page, out_pages);
    const uint64_t t1 = NowNs();
    log_->AddCall(t1 - t0);
    ++calls_;
    if (spans_ != nullptr) {
      fault_ns_ += t1 - t0;
      bool sampled = false;
      for (size_t h = 0; h < hooks_.size(); ++h) {
        sampled |= RangeSampled(before[h], inner_->hooks().MetricsOf(hooks_[h]).fires(), every_);
      }
      sampled_calls_ += sampled ? 1 : 0;
      if (calls_ <= kMaxCallSpans) {
        spans_->Add("call.on_fault", t0, t1, sampled ? 1 : 0);
      }
    }
  }

  void OnRunEnd() override { inner_->OnRunEnd(); }

  void Arm(PhaseLog* log, SpanLog* spans) {
    log_ = log;
    spans_ = spans;
    calls_ = sampled_calls_ = access_ns_ = fault_ns_ = 0;
  }
  void Disarm() {
    log_ = nullptr;
    spans_ = nullptr;
  }

  uint64_t faults() const { return faults_; }          // every OnFault, armed or not
  uint64_t calls() const { return calls_; }            // OnFault calls since Arm
  uint64_t sampled_calls() const { return sampled_calls_; }
  uint64_t access_ns() const { return access_ns_; }    // traced only
  uint64_t fault_ns() const { return fault_ns_; }      // traced only
  const std::array<rkd::HookId, 2>& hook_ids() const { return hooks_; }

 private:
  rkd::RmtMlPrefetcher* inner_;
  std::array<rkd::HookId, 2> hooks_{};
  uint32_t every_ = 0;
  PhaseLog* log_ = nullptr;
  SpanLog* spans_ = nullptr;
  uint64_t faults_ = 0;
  uint64_t calls_ = 0;
  uint64_t sampled_calls_ = 0;
  uint64_t access_ns_ = 0;
  uint64_t fault_ns_ = 0;
};

struct PrefetchInstance {
  std::unique_ptr<rkd::RmtMlPrefetcher> prefetcher;
  std::unique_ptr<TimedPrefetcher> forwarder;  // wraps prefetcher
  std::unique_ptr<rkd::MemorySim> sim;         // calls forwarder
  std::vector<rkd::MemMetrics> passes;         // one per trace pass, warm-up included
  rkd::ControlPlane::TierReport tier;          // at the end of set-up

  void Reset() {
    sim.reset();
    forwarder.reset();
    prefetcher.reset();
    passes.clear();
  }
};

// Hook registration, program verify and install (Init), then the warm-up
// passes: models trained and installed online, tier 3 promoted.
rkd::Status SetUp(const AccessTrace& trace, bool tiering, PrefetchInstance* inst) {
  inst->Reset();
  rkd::MlPrefetcherConfig config;  // shipped defaults
  config.enable_tiering = tiering;
  inst->prefetcher = std::make_unique<rkd::RmtMlPrefetcher>(config);
  RKD_RETURN_IF_ERROR(inst->prefetcher->Init());
  inst->forwarder = std::make_unique<TimedPrefetcher>(inst->prefetcher.get());
  inst->sim = std::make_unique<rkd::MemorySim>(SimConfig(), inst->forwarder.get());
  for (int p = 0; p < kWarmupPasses; ++p) {
    inst->passes.push_back(inst->sim->Run(trace));
  }
  if (tiering) {
    RKD_ASSIGN_OR_RETURN(inst->tier, inst->prefetcher->control_plane().TickTiering(
                                         inst->prefetcher->handle()));
  }
  return rkd::OkStatus();
}

// Failed operations, cumulative: fires that returned an error and
// governor-degraded or shed fires, on both hooks.
uint64_t FailedOps(const PrefetchInstance& inst) {
  uint64_t failed = 0;
  for (const rkd::HookId hook : inst.forwarder->hook_ids()) {
    const rkd::HookMetrics m = inst.prefetcher->hooks().MetricsOf(hook);
    failed += m.exec_errors() + m.degraded_fires() + m.shed_fires();
  }
  return failed;
}

struct Phase {
  uint64_t calls = 0;
  uint64_t events = 0;  // page accesses
  uint64_t faults = 0;
  uint64_t elapsed_ns = 0;
  size_t first_pass = 0;
  size_t chunks = 0;
};

// The closed loop: whole trace passes, in chunks of kChunkPasses, until
// `seconds` have passed (at least one chunk, and kMinCalls OnFault calls).
Phase RunTimed(PrefetchInstance& inst, const AccessTrace& trace, double seconds, PhaseLog* log,
               SpanLog* spans) {
  Phase phase;
  phase.first_pass = inst.passes.size();
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  inst.forwarder->Arm(log, spans);
  uint64_t chunk_events = 0;
  const uint64_t start = NowNs();
  log->Start(start);
  for (;;) {
    const rkd::MemMetrics pass = inst.sim->Run(trace);
    inst.passes.push_back(pass);
    phase.events += pass.accesses;
    phase.faults += pass.faults;
    chunk_events += pass.accesses;
    if ((inst.passes.size() - phase.first_pass) % kChunkPasses != 0) {
      continue;
    }
    const uint64_t now = NowNs();
    log->EndChunk(now, chunk_events);
    chunk_events = 0;
    ++phase.chunks;
    if (now - start >= budget_ns && inst.forwarder->calls() >= kMinCalls) {
      phase.elapsed_ns = now - start;
      break;
    }
  }
  phase.calls = inst.forwarder->calls();
  inst.forwarder->Disarm();
  return phase;
}

// The output check: a tiering-off prefetcher over the same passes, from
// set-up's warm-up through the first quarter of the timed phase's chunks,
// must produce identical MemMetrics, pass by pass. (Replaying the whole
// phase would double the run's length.)
void CheckAgainstReference(const AccessTrace& trace, const std::vector<rkd::MemMetrics>& passes,
                           const Phase& phase, RunResult* result) {
  const size_t compared = phase.first_pass + (phase.chunks + 3) / 4 * kChunkPasses;
  const std::span<const rkd::MemMetrics> got(passes.data(), std::min(compared, passes.size()));
  result->Detail("check.passes_compared", static_cast<double>(got.size()), "count");
  PrefetchInstance ref;
  const rkd::Status status = SetUp(trace, /*tiering=*/false, &ref);
  result->Check(status.ok(), "reference prefetcher set-up: " + status.ToString());
  if (!status.ok()) {
    return;
  }
  while (ref.passes.size() < got.size()) {
    ref.passes.push_back(ref.sim->Run(trace));
  }
  for (size_t p = 0; p < got.size(); ++p) {
    const rkd::MemMetrics& a = got[p];
    const rkd::MemMetrics& b = ref.passes[p];
    const bool same = a.accesses == b.accesses && a.hits == b.hits && a.faults == b.faults &&
                      a.prefetch_hits == b.prefetch_hits && a.prefetched == b.prefetched &&
                      a.prefetch_used == b.prefetch_used &&
                      a.prefetch_evicted_unused == b.prefetch_evicted_unused &&
                      a.total_ns == b.total_ns;
    if (!same) {
      result->Check(false, "MemMetrics of pass " + std::to_string(p) +
                               " differ from the tiering-off reference");
      return;
    }
  }
}

// Per-pid delta samples as the access action computes them: the last
// kFeatureDeltas deltas (newest first) and the delta that followed.
struct DeltaSample {
  std::array<int32_t, kFeatureDeltas> features{};
  int64_t next = 0;
};

std::vector<DeltaSample> DeltaSamples(const AccessTrace& trace, size_t limit) {
  std::vector<DeltaSample> samples;
  std::unordered_map<uint64_t, std::pair<int64_t, std::deque<int64_t>>> state;
  for (const rkd::AccessEvent& event : trace) {
    auto [it, fresh] = state.try_emplace(event.pid);
    auto& [last, deltas] = it->second;
    if (!fresh) {
      const int64_t delta = event.page - last;
      if (deltas.size() >= kFeatureDeltas) {
        DeltaSample sample;
        for (size_t i = 0; i < kFeatureDeltas; ++i) {
          sample.features[i] = static_cast<int32_t>(deltas[deltas.size() - 1 - i]);
        }
        sample.next = delta;
        samples.push_back(sample);
        if (samples.size() >= limit) {
          break;
        }
        deltas.pop_front();
      }
      deltas.push_back(delta);
    }
    last = event.page;
  }
  return samples;
}

// One training window as RmtMlPrefetcher builds it: the most frequent
// deltas become classes 1..31, everything else class 0.
rkd::Dataset TrainingWindow(std::span<const DeltaSample> window) {
  std::map<int64_t, uint32_t> frequency;
  for (const DeltaSample& s : window) {
    ++frequency[s.next];
  }
  std::vector<std::pair<int64_t, uint32_t>> ranked(frequency.begin(), frequency.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::unordered_map<int64_t, int32_t> vocab;
  for (size_t c = 0; c < std::min<size_t>(31, ranked.size()); ++c) {
    vocab[ranked[c].first] = static_cast<int32_t>(c + 1);
  }
  rkd::Dataset data(kFeatureDeltas);
  for (const DeltaSample& s : window) {
    const auto it = vocab.find(s.next);
    data.Add(s.features, it == vocab.end() ? 0 : it->second);
  }
  return data;
}

// Prefetch coverage over passes [first, first + count): demand faults
// avoided by prefetch over faults without any prefetch.
double Coverage(const std::vector<rkd::MemMetrics>& passes, size_t first, size_t count) {
  uint64_t prefetch_hits = 0;
  uint64_t faults = 0;
  for (size_t p = first; p < first + count && p < passes.size(); ++p) {
    prefetch_hits += passes[p].prefetch_hits;
    faults += passes[p].faults;
  }
  return prefetch_hits + faults > 0
             ? static_cast<double>(prefetch_hits) / static_cast<double>(prefetch_hits + faults)
             : 0.0;
}

struct Deltas {
  rkd::ControlPlane::TierReport tier_before;
  rkd::ControlPlane::TierReport tier_after;
  uint64_t table_versions_before = 0;
  uint64_t table_versions_after = 0;
  uint64_t windows_before = 0;
  uint64_t windows_after = 0;
};

uint64_t TableVersions(rkd::RmtMlPrefetcher& prefetcher) {
  uint64_t versions = 0;
  for (const auto& table :
       prefetcher.control_plane().Get(prefetcher.handle())->tables()) {
    versions += table->table().version();
  }
  return versions;
}

// Per-layer probes: each layer's public entry point on this workload's
// accesses, delta features, installed tree and program spec.
void Probe(PrefetchInstance& inst, const AccessTrace& trace, const Phase& timed,
           const Phase& traced, const Deltas& deltas, const rkd::Samples& traced_latency,
           RunResult* r, SpanLog* spans) {
  rkd::RmtMlPrefetcher& prefetcher = *inst.prefetcher;
  rkd::ControlPlane& cp = prefetcher.control_plane();
  rkd::InstalledProgram* program = cp.Get(prefetcher.handle());
  rkd::HookRegistry& hooks = prefetcher.hooks();
  const rkd::HookId access_hook = inst.forwarder->hook_ids()[0];
  const rkd::HookId prefetch_hook = inst.forwarder->hook_ids()[1];
  const auto access = [&](size_t k) -> const rkd::AccessEvent& {
    return trace[k % trace.size()];
  };

  // rmt.hooks: single Fire on the prefetch hook, FireBatch of one access buffer.
  constexpr size_t kFireGroup = 16;
  rkd::Samples fire = TimeProbe("probe.fire", spans, kProbeIterations, kFireGroup, 1e-3,
                                [&](size_t g) {
                                  for (size_t j = 0; j < kFireGroup; ++j) {
                                    const rkd::AccessEvent& e = access(g * kFireGroup + j);
                                    hooks.Fire(prefetch_hook, e.pid,
                                               std::array<int64_t, 1>{e.page});
                                  }
                                });
  const size_t batch = rkd::MlPrefetcherConfig{}.access_batch;
  std::vector<rkd::HookEvent> hook_events(batch);
  std::vector<int64_t> results(batch);
  rkd::Samples batch_us;
  for (size_t b = 0; b < kProbeIterations; ++b) {
    for (size_t i = 0; i < batch; ++i) {
      const rkd::AccessEvent& e = access(b * batch + i);
      hook_events[i] = rkd::HookEvent(e.pid, {e.page});
    }
    const uint64_t t0 = NowNs();
    hooks.FireBatch(access_hook, hook_events, results);
    const uint64_t t1 = NowNs();
    spans->Add("probe.fire_batch.access", t0, t1, b);
    batch_us.Add(static_cast<double>(t1 - t0) * 1e-3);
  }
  prefetcher.Flush();  // let the training plane drain what the probe fed it

  // rmt.table: Match on both exact tables with the workload's pids.
  double match_ns = 0.0;
  {
    rkd::EpochGuard guard(rkd::GlobalEpochDomain());
    for (const auto& attached : program->tables()) {
      rkd::RmtTable& table = attached->table();
      size_t hits = 0;
      rkd::Samples match =
          TimeProbe("probe.match.exact", spans, kProbeIterations, 64, 1.0, [&](size_t b) {
            for (size_t i = 0; i < 64; ++i) {
              hits += table.Match(access(b * 64 + i).pid) != nullptr ? 1 : 0;
            }
          });
      match_ns += MedianOf(match);
      r->Detail("rmt.table." + table.name() + ".hit_ratio",
                static_cast<double>(hits) / static_cast<double>(kProbeIterations * 64),
                "ratio");
    }
  }

  // vm: context publish (FindOrCreate plus the lane copy), per access.
  const std::vector<DeltaSample> samples = DeltaSamples(trace, kProbeIterations * 64);
  rkd::ContextStore& context = program->context();
  rkd::Samples publish = TimeProbe(
      "probe.context_publish", spans, samples.size() / 64, 64, 1.0, [&](size_t b) {
        for (size_t i = 0; i < 64; ++i) {
          rkd::ContextEntry* entry = context.FindOrCreate(access(b * 64 + i).pid);
          if (entry != nullptr) {
            entry->features.fill(0);
            std::copy(samples[b * 64 + i].features.begin(), samples[b * 64 + i].features.end(),
                      entry->features.begin());
          }
        }
      });

  // rmt.table writes: AddEntry then RemoveEntry on the access table.
  rkd::Samples mutate;
  for (size_t i = 0; i < 32; ++i) {
    rkd::TableEntry entry;
    entry.key = (uint64_t{1} << 40) + i;  // a pid no trace uses
    entry.action_index = 0;
    uint64_t t0 = NowNs();
    const rkd::Status added = cp.AddEntry(prefetcher.handle(), "page_access_tab", entry);
    uint64_t t1 = NowNs();
    spans->Add("probe.add_entry", t0, t1, i);
    mutate.Add(static_cast<double>(t1 - t0) * 1e-3);
    t0 = NowNs();
    const rkd::Status removed = cp.RemoveEntry(prefetcher.handle(), "page_access_tab", entry.key);
    t1 = NowNs();
    spans->Add("probe.remove_entry", t0, t1, i);
    mutate.Add(static_cast<double>(t1 - t0) * 1e-3);
    r->Check(added.ok() && removed.ok(),
             "probe table write: " + added.ToString() + " / " + removed.ToString());
  }

  // rmt.control_plane: TickTiering right after a model-install deopt,
  // InstallModel of the live tree, Install of the spec.
  const rkd::ModelPtr model = program->models().Get(0);
  r->Check(model != nullptr, "a model is installed after the warm-up");
  if (model == nullptr) {
    return;
  }
  rkd::Samples respecialize;
  for (size_t i = 0; i < 16; ++i) {
    (void)cp.InstallModel(prefetcher.handle(), 0, model);
    const uint64_t t0 = NowNs();
    const auto report = cp.TickTiering(prefetcher.handle());
    const uint64_t t1 = NowNs();
    spans->Add("probe.respecialize", t0, t1, i);
    respecialize.Add(static_cast<double>(t1 - t0) * 1e-3);
    r->Check(report.ok(), "probe TickTiering: " + report.status().ToString());
  }
  rkd::Samples install_model =
      TimeProbe("probe.install_model", spans, 16, 1.0, 1e-3, [&](size_t) {
        r->Check(cp.InstallModel(prefetcher.handle(), 0, model).ok(), "probe InstallModel");
      });
  const rkd::RmtProgramSpec spec = prefetcher.BuildProgramSpec();
  rkd::Samples install;
  for (size_t i = 0; i < 8; ++i) {
    rkd::HookRegistry fresh;
    rkd::SubsystemBindings bindings;
    bindings.now = [] { return uint64_t{0}; };
    bindings.prefetch_emit = [](int64_t, int64_t) {};
    (void)fresh.Register(kAccessHook, rkd::HookKind::kMemAccess, bindings);
    (void)fresh.Register(kPrefetchHook, rkd::HookKind::kMemPrefetch, bindings);
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

  // ml: tree predict on delta rows; train one 256-sample window.
  int64_t predicted = 0;
  rkd::Samples predict =
      TimeProbe("probe.predict", spans, samples.size() / 64, 64, 1.0, [&](size_t b) {
        for (size_t i = 0; i < 64; ++i) {
          predicted += model->Predict(samples[b * 64 + i].features);
        }
      });
  r->Detail("ml.predict_class_sum", static_cast<double>(predicted), "count");
  const size_t windows = samples.size() / kWindowSamples;
  std::vector<rkd::Dataset> datasets;
  for (size_t w = 0; w < windows; ++w) {
    datasets.push_back(TrainingWindow(
        std::span(samples).subspan(w * kWindowSamples, kWindowSamples)));
  }
  rkd::Samples train = TimeProbe("probe.train_window", spans, windows, 1.0, 1e-3,
                                 [&](size_t w) {
                                   r->Check(rkd::DecisionTree::Train(datasets[w]).ok(),
                                            "probe DecisionTree::Train");
                                 });

  // Accounting: the traced phase timed both datapath entry points.
  const double traced_ns = static_cast<double>(traced.elapsed_ns);
  const double decide_share =
      static_cast<double>(inst.forwarder->fault_ns() + inst.forwarder->access_ns()) / traced_ns;
  const double events = static_cast<double>(timed.events);
  const double mutations =
      static_cast<double>(deltas.table_versions_after - deltas.table_versions_before);
  const auto& tb = deltas.tier_before;
  const auto& ta = deltas.tier_after;
  const auto deopts = [&](rkd::DeoptReason reason) {
    const size_t i = static_cast<size_t>(reason);
    return static_cast<double>(ta.deopts_by_reason[i] - tb.deopts_by_reason[i]) / events * 1e3;
  };

  r->Add("sim.self_share", 1.0 - decide_share, "ratio");
  r->Add("sim.decide_share", decide_share, "ratio");
  r->Detail("sim.on_fault_share", static_cast<double>(inst.forwarder->fault_ns()) / traced_ns,
            "ratio");
  r->Add("sim.decide_us", rkd::Samples(traced_latency).Percentile(50), "us");
  r->Add("sim.flow_cache_miss_ratio", 0.0, "ratio");  // no flow cache in the memory domain
  r->Add("sim.faults_per_kaccess", static_cast<double>(timed.faults) / events * 1e3, "count");
  r->Add("rmt.hooks.fire_us", MedianOf(fire), "us");
  r->Add("rmt.hooks.batch_us", MedianOf(batch_us), "us");
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
  r->Add("ml.train_us", MedianOf(train), "us");
  r->Add("ml.windows_per_kevent",
         static_cast<double>(deltas.windows_after - deltas.windows_before) / events * 1e3,
         "count");
}

}  // namespace

RunResult RunPrefetchWorkload(const Options& options, SpanLog* spans) {
  RunResult result;
  const AccessTrace trace = MakeTrace(options.seed);
  PhaseLog log(PhaseLogCapacity(options.seconds));
  if (options.trace) {
    spans->Reserve(kMaxCallSpans + 8192);
  }
  const uint64_t baseline_kb = ResidentKb();
  result.Detail("rss.baseline_mb", static_cast<double>(baseline_kb) / 1024.0, "MiB");
  result.Detail("rss.peak_before_setup_mb", static_cast<double>(PeakResidentKb()) / 1024.0,
                "MiB");
  result.Detail("trace_accesses", static_cast<double>(trace.size()), "count");

  PrefetchInstance inst;
  rkd::Samples setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const uint64_t t0 = NowNs();
    const rkd::Status status = SetUp(trace, /*tiering=*/true, &inst);
    setup_s.Add(static_cast<double>(NowNs() - t0) * 1e-9);
    if (!status.ok()) {
      result.Check(false, "set-up: " + status.ToString());
      return result;
    }
  }
  result.Detail("vm.tier_at_ready", inst.tier.tier, "count");

  // A traced run splits its seconds between an untraced and a traced phase.
  const double phase_seconds = options.trace ? options.seconds / 2 : options.seconds;
  rkd::RmtMlPrefetcher& prefetcher = *inst.prefetcher;
  Deltas deltas;
  deltas.tier_before = inst.tier;
  deltas.table_versions_before = TableVersions(prefetcher);
  deltas.windows_before = prefetcher.windows_trained();
  const uint64_t failed_before = FailedOps(inst);
  const Phase timed = RunTimed(inst, trace, phase_seconds, &log, nullptr);
  const uint64_t peak_kb = PeakResidentKb();
  deltas.table_versions_after = TableVersions(prefetcher);
  deltas.windows_after = prefetcher.windows_trained();
  const auto tier_after = prefetcher.control_plane().TickTiering(prefetcher.handle());
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

  Phase traced;
  rkd::Samples traced_latency;
  if (!options.trace) {
    result.Add("events_per_s",
               static_cast<double>(timed.events) * 1e9 / static_cast<double>(timed.elapsed_ns),
               "events/s");
    result.Add("call_p50_us", latency.Percentile(50), "us");
    result.Add("call_p99_us", latency.Percentile(99), "us");
    result.Add("setup_s", MedianOf(setup_s), "s");
    result.Add("peak_rss_mb",
               static_cast<double>(peak_kb - std::min(peak_kb, baseline_kb)) / 1024.0, "MiB");
    result.Add("decision_quality", Coverage(inst.passes, timed.first_pass, kChunkPasses),
               "ratio");
  } else {
    traced = RunTimed(inst, trace, phase_seconds, &log, spans);
    traced_latency = log.AllMicros();
    result.attempted += traced.events;
    result.Add("rmt.hooks.sampled_call_share",
               static_cast<double>(inst.forwarder->sampled_calls()) /
                   static_cast<double>(traced.calls),
               "ratio");
    result.Add("bench.trace_overhead_us", traced_latency.Percentile(50) - untraced_p50_us, "us");
  }

  // Every fault decided, failures counted, then the reference comparison.
  uint64_t faults = 0;
  for (const rkd::MemMetrics& pass : inst.passes) {
    faults += pass.faults;
  }
  result.failed = FailedOps(inst) - failed_before;
  result.Check(inst.forwarder->faults() == faults, "every fault decided");
  const std::vector<rkd::MemMetrics> passes = inst.passes;

  if (options.trace) {
    Probe(inst, trace, timed, traced, deltas, traced_latency, &result, spans);
  }
  CheckAgainstReference(trace, passes, timed, &result);
  result.correct = result.check_failures.empty();
  return result;
}

}  // namespace perfbench
