// The installable program unit and its runtime form.
//
// An RmtProgramSpec is what "userspace" hands to the control plane: table
// definitions (each with its action programs and initial entries), sized
// maps, model slots, and weight tensors — the `rmt_prefetch_prog` bundle of
// the paper's Figure 1. After verification the spec becomes an
// InstalledProgram: tables with compiled actions, a private execution
// environment (context store, maps, model/tensor registries, rate limiter,
// privacy budget, prediction log), attached to its hook points.
#ifndef SRC_RMT_PIPELINE_H_
#define SRC_RMT_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/epoch.h"
#include "src/base/status.h"
#include "src/bytecode/program.h"
#include "src/ml/model_registry.h"
#include "src/rmt/hooks.h"
#include "src/rmt/table.h"
#include "src/telemetry/bottleneck.h"
#include "src/vm/jit.h"
#include "src/vm/specialize.h"
#include "src/vm/vm.h"

namespace rkd {

enum class ExecTier { kInterpreter, kJit };

// Per-program execution telemetry ("rkd.guard.prog.<name>.*"), the slice the
// policy guardian's circuit breakers and rollout comparisons read. Per-hook
// metrics aggregate every attached table; these isolate one program, so an
// incumbent and its canary sharing a hook stay distinguishable.
struct ProgramExecMetrics {
  Counter* execs = nullptr;         // action executions attempted
  Counter* exec_errors = nullptr;   // executions that faulted
  // Breach attribution: which resource bound an erroring execution hit.
  // Both also count in exec_errors; the split keeps deadline overruns,
  // instruction-budget exhaustion, and plain faults distinguishable for the
  // guardian and the overload governor.
  Counter* deadline_errors = nullptr;  // kDeadlineExceeded (wall-clock budget)
  Counter* budget_errors = nullptr;    // kResourceExhausted (step/map budget)
  LatencyHistogram* exec_ns = nullptr;  // per-execution wall latency
};

// Which slice of a hook's fire stream a table serves during a canary
// rollout. Routing is by fire sequence number so it is deterministic and
// every table of a program agrees on the same decision for one fire.
enum class CanaryRole {
  kSolo,       // no rollout in progress; runs on every fire
  kIncumbent,  // runs on fires NOT routed to the canary
  kCanary,     // runs on the configured per-mille of fires
};

// Shared routing state for one incumbent/canary pair. Owned by the control
// plane's rollout record; both programs' tables point at it.
struct CanaryGate {
  std::atomic<uint32_t> canary_permille{0};
};

struct RmtTableSpec {
  std::string name;
  std::string hook_point;  // registered hook name this table attaches to
  MatchKind match_kind = MatchKind::kExact;
  size_t max_entries = 1024;
  // Action programs; entries reference them by index. The hook kind of every
  // action must equal the hook point's kind (verified at install).
  std::vector<BytecodeProgram> actions;
  int32_t default_action = -1;  // action on table miss; -1 = no-op
  std::vector<TableEntry> initial_entries;
};

struct MapSpec {
  MapKind kind = MapKind::kArray;
  size_t capacity = 64;
};

struct RmtProgramSpec {
  std::string name;
  std::vector<RmtTableSpec> tables;
  std::vector<MapSpec> maps;
  uint32_t model_slots = 0;
  std::vector<FixedMatrix> tensors;

  // Runtime-policy knobs owned by the installed program.
  int64_t rate_limit_capacity = 64;     // token bucket size per key
  int64_t rate_limit_refill = 4;        // tokens per virtual-time tick
  double privacy_epsilon = 1.0;         // total DP budget
  double epsilon_per_query = 0.1;
  double dp_sensitivity = 1.0;
  uint64_t seed = 42;                   // DP noise determinism

  // Overload-governor resource declarations. Both default to 0 = unbounded,
  // preserving pre-governor behaviour for specs that never declare them.
  uint64_t fire_deadline_ns = 0;   // per-execution wall-clock budget
  uint64_t map_bytes_quota = 0;    // byte budget across all of the program's maps
};

// One table at runtime: the match structure plus its compiled actions and
// the helper environment every action of this table executes in.
class AttachedTable {
 public:
  AttachedTable(RmtTable table, HookId hook, HookKind hook_kind, ExecTier tier)
      : table_(std::move(table)), hook_(hook), hook_kind_(hook_kind), tier_(tier) {}

  // Matches `key` and runs the selected action with r1 = key, r2.. = args.
  // kHookFallback on no-action; execution errors surface as Status.
  // `tracer` is non-null only for traced fires (HookRegistry decides); it
  // makes Execute emit "table.lookup" and "vm.exec" child spans and routes
  // the VM's opcode profile into the program's OpcodeProfile.
  Result<int64_t> Execute(uint64_t key, std::span<const int64_t> args,
                          Tracer* tracer = nullptr);

  // Batch counterpart (HookRegistry::FireBatch): runs every admitted event
  // of the batch with one canary-gate resolution, one exec-metrics
  // timestamp pair, one reusable JIT frame (or one interpreter/env copy),
  // and bulk VM-metric updates. Event i is fire seq_base + i for routing.
  // Per-event result-merge semantics match Fire: an ok, non-fallback result
  // overwrites results[i]; errors and skipped events leave it untouched.
  // FireBatch calls this once per run of events that share traced-ness: the
  // whole batch when none of it is sampled, else the sampled events one by
  // one with the untraced runs between them. An untraced run (`tracer`
  // null) keeps its serving tier, tier 3 included. A traced run emits one
  // "table.lookup" span for its pass — tagged with the index kind, epoch,
  // and run tallies — never takes tier 3, and accumulates its opcode/helper
  // profile; ml.eval spans still nest per model call.
  void ExecuteBatch(std::span<const HookEvent> events, uint64_t seq_base,
                    std::span<int64_t> results, HookBatchStats* stats,
                    Tracer* tracer = nullptr);

  RmtTable& table() { return table_; }
  const RmtTable& table() const { return table_; }
  HookId hook() const { return hook_; }
  HookKind hook_kind() const { return hook_kind_; }
  ExecTier tier() const { return tier_; }

  // Whether this table participates in fire number `seq` given its canary
  // role. Called by HookRegistry::Fire on the datapath.
  bool ShouldRun(uint64_t seq) const {
    if (role_ == CanaryRole::kSolo || gate_ == nullptr) {
      return true;
    }
    const bool canary_turn =
        seq % 1000 < gate_->canary_permille.load(std::memory_order_relaxed);
    return role_ == CanaryRole::kCanary ? canary_turn : !canary_turn;
  }
  CanaryRole role() const { return role_; }

  // The owning program's degradation-ladder rung, read by HookRegistry on
  // every fire with one relaxed load. Null cell (tables built outside an
  // InstalledProgram, e.g. unit tests) reads as kFull.
  GovLevel governor_level() const {
    if (gov_level_ == nullptr) {
      return GovLevel::kFull;
    }
    return static_cast<GovLevel>(gov_level_->load(std::memory_order_relaxed));
  }
  void set_governor_cell(const std::atomic<uint8_t>* cell) { gov_level_ = cell; }

  // Wiring performed by ControlPlane at install time.
  void set_actions(std::vector<BytecodeProgram> actions,
                   std::vector<CompiledProgram> compiled, int32_t default_action);
  void set_env(VmEnv env, HelperServices* services);
  void set_tail_resolver(CompiledProgram::Resolver resolver,
                         std::function<const BytecodeProgram*(int64_t)> interp_resolver);
  void set_exec_metrics(const ProgramExecMetrics* metrics) { exec_metrics_ = metrics; }
  // Fire-time wall-clock budget (0 = unbounded) and the clock it is measured
  // against. `clock` is non-owning (the InstalledProgram's injectable clock);
  // both must be wired before the table sees traffic.
  void set_fire_budget(uint64_t budget_ns, const std::function<uint64_t()>* clock) {
    fire_budget_ns_ = budget_ns;
    fire_clock_ = clock;
  }
  uint64_t fire_budget_ns() const { return fire_budget_ns_; }
  // The program's opcode/helper profile sink, fed only on traced fires.
  void set_opcode_profile(OpcodeProfile* profile) { opcode_profile_ = profile; }
  // Rollout wiring (ControlPlane). `gate` must outlive the table or be
  // cleared back to kSolo/nullptr before it dies.
  void set_canary(CanaryRole role, const CanaryGate* gate) {
    gate_ = gate;
    role_ = role;
  }

  const CompiledProgram* compiled_default() const;
  const BytecodeProgram* default_action_program() const;
  size_t action_count() const { return actions_.size(); }
  const std::vector<BytecodeProgram>& actions() const { return actions_; }
  uint64_t executions() const { return executions_.value(); }

  // --- Tier-3 surface (control-plane writer, fire-path reader) ---
  // Publishes (spec != nullptr) or retires (nullptr) the specialized form
  // of action `index`. Takes ownership; the displaced specialization is
  // epoch-retired, so in-flight fires running it finish safely.
  void PublishSpecialized(size_t index, const SpecializedProgram* spec);
  // Control-plane / introspection peek. The returned pointer is only stable
  // while no concurrent PublishSpecialized runs — i.e. under the control
  // plane's single-writer contract.
  const SpecializedProgram* specialized(size_t index) const;
  // Actions currently carrying a live specialization.
  size_t specialized_count() const;
  void set_tier3_stats(Tier3Stats* stats) { tier3_stats_ = stats; }

 private:
  RmtTable table_;
  HookId hook_;
  HookKind hook_kind_;
  ExecTier tier_;

  std::vector<BytecodeProgram> actions_;
  std::vector<CompiledProgram> compiled_;
  // Tier-3 overlay, one slot per action (sized by set_actions, never
  // reallocated once the datapath can see the table). A null slot or a
  // failed entry guard falls back to compiled_ for that fire.
  std::vector<EpochPtr<const SpecializedProgram>> specialized_;
  Tier3Stats* tier3_stats_ = nullptr;  // owned by InstalledProgram
  int32_t default_action_ = -1;

  VmEnv env_;
  HelperServices* services_ = nullptr;  // owned by InstalledProgram
  CompiledProgram::Resolver tail_resolver_;
  ShardedCounter executions_;  // incremented by concurrent fires
  const ProgramExecMetrics* exec_metrics_ = nullptr;  // owned by InstalledProgram
  OpcodeProfile* opcode_profile_ = nullptr;           // owned by InstalledProgram
  CanaryRole role_ = CanaryRole::kSolo;
  const CanaryGate* gate_ = nullptr;  // owned by the ControlPlane rollout
  // Degradation-ladder rung of the owning program (owned by
  // InstalledProgram); null = ungoverned, always kFull.
  const std::atomic<uint8_t>* gov_level_ = nullptr;
  // Per-execution wall-clock budget; 0 keeps deadline polling disarmed.
  uint64_t fire_budget_ns_ = 0;
  const std::function<uint64_t()>* fire_clock_ = nullptr;  // owned by InstalledProgram

  friend class InstalledProgram;
};

// The runtime form of one installed RmtProgramSpec, owning all its state.
class InstalledProgram {
 public:
  ~InstalledProgram();
  InstalledProgram(const InstalledProgram&) = delete;
  InstalledProgram& operator=(const InstalledProgram&) = delete;

  const std::string& name() const { return name_; }
  // The hook registry this program is attached to (and with it, the
  // telemetry registry its metrics land in).
  const HookRegistry& hooks() const { return *hooks_; }
  ContextStore& context() { return ctxt_; }
  MapSet& maps() { return maps_; }
  ModelRegistry& models() { return models_; }
  TensorRegistry& tensors() { return tensors_; }
  PredictionLog& prediction_log() { return prediction_log_; }
  const PredictionLog& prediction_log() const { return prediction_log_; }
  RingMap& sample_ring() { return sample_ring_; }
  // The guardian's per-program telemetry slice (set up at install).
  const ProgramExecMetrics& exec_metrics() const { return exec_metrics_; }
  // Sampled opcode/helper profile across every action of this program
  // (accumulated on traced fires; see VmEnv::profile). Its always-on exec
  // tally (OpcodeProfile::total_execs) is bumped on every fire and drives
  // deterministic tier-3 promotion.
  OpcodeProfile& opcode_profile() { return opcode_profile_obj_; }
  const OpcodeProfile& opcode_profile() const { return opcode_profile_obj_; }
  // Tier-3 fire-path tallies (specialized executions + deopts by reason).
  Tier3Stats& tier3_stats() { return tier3_stats_; }
  const Tier3Stats& tier3_stats() const { return tier3_stats_; }
  PrivacyBudget& privacy_budget() { return privacy_budget_; }
  RateLimiter& rate_limiter() { return rate_limiter_; }

  // Overload-governor surface. The rung cell is a single-byte atomic every
  // attached table points at; the governor (or tests) move the program up
  // and down the ladder by storing into it.
  GovLevel governor_level() const {
    return static_cast<GovLevel>(gov_level_.load(std::memory_order_relaxed));
  }
  void set_governor_level(GovLevel level) {
    gov_level_.store(static_cast<uint8_t>(level), std::memory_order_relaxed);
  }
  const std::atomic<uint8_t>* governor_cell() const { return &gov_level_; }
  // Declared per-execution wall-clock budget (0 = none declared).
  uint64_t fire_deadline_ns() const { return fire_deadline_ns_; }
  // Injectable clock for deadline checks; empty = MonotonicNowNs. Only safe
  // to replace while the program is quiescent (no fires in flight) — tables
  // read through a pointer to this member on the datapath.
  void set_fire_clock(std::function<uint64_t()> clock) { fire_clock_ = std::move(clock); }
  const std::function<uint64_t()>* fire_clock() const { return &fire_clock_; }

  // Trace-derived bottleneck advisory: the per-program merge of the latest
  // critical-path analysis (ControlPlane::RefreshBottleneck writes it; the
  // tier ladder and DumpProgram read it). Control-plane-thread state — never
  // touched by the fire path, so an installed advisory costs fires nothing.
  const BottleneckAdvisory& bottleneck() const { return bottleneck_; }
  void set_bottleneck(BottleneckAdvisory advisory) { bottleneck_ = std::move(advisory); }

  AttachedTable* FindTable(std::string_view table_name);
  const std::vector<std::unique_ptr<AttachedTable>>& tables() const { return tables_; }

 private:
  friend class ControlPlane;
  InstalledProgram(const RmtProgramSpec& spec, HookRegistry* hooks);

  std::string name_;
  HookRegistry* hooks_;  // not owned

  ContextStore ctxt_;
  MapSet maps_;
  ModelRegistry models_;
  TensorRegistry tensors_;
  VmMetrics vm_metrics_;  // "rkd.vm.*" slice every action execution feeds
  ProgramExecMetrics exec_metrics_;  // "rkd.guard.prog.<name>.*" slice
  OpcodeProfile opcode_profile_obj_;  // sampled opcode/helper attribution
  Tier3Stats tier3_stats_;  // specialized-fire + deopt tallies
  RateLimiter rate_limiter_;
  PrivacyBudget privacy_budget_;
  DpNoiseSource dp_noise_;
  PredictionLog prediction_log_;
  RingMap sample_ring_;

  BottleneckAdvisory bottleneck_;  // latest trace-derived advisory

  // Overload-governor state: the ladder rung, the declared fire budget, and
  // the (injectable) clock deadline checks read.
  std::atomic<uint8_t> gov_level_{static_cast<uint8_t>(GovLevel::kFull)};
  uint64_t fire_deadline_ns_ = 0;
  std::function<uint64_t()> fire_clock_;

  // One HelperServices per table (hook bindings differ per table).
  std::vector<std::unique_ptr<HelperServices>> services_;
  std::vector<std::unique_ptr<AttachedTable>> tables_;
  bool attached_ = false;
};

}  // namespace rkd

#endif  // SRC_RMT_PIPELINE_H_
