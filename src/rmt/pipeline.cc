#include "src/rmt/pipeline.h"

#include <array>
#include <optional>

#include "src/base/epoch.h"

namespace rkd {

// --- AttachedTable ---

void AttachedTable::set_actions(std::vector<BytecodeProgram> actions,
                                std::vector<CompiledProgram> compiled,
                                int32_t default_action) {
  actions_ = std::move(actions);
  compiled_ = std::move(compiled);
  default_action_ = default_action;
  // One tier-3 slot per action, fixed for the table's lifetime: the fire
  // path indexes this vector concurrently with control-plane publishes, so
  // it must never reallocate.
  specialized_ = std::vector<EpochPtr<const SpecializedProgram>>(actions_.size());
}

void AttachedTable::PublishSpecialized(size_t index, const SpecializedProgram* spec) {
  if (index >= specialized_.size()) {
    delete spec;
    return;
  }
  specialized_[index].Publish(spec, GlobalEpochDomain());
}

const SpecializedProgram* AttachedTable::specialized(size_t index) const {
  if (index >= specialized_.size()) {
    return nullptr;
  }
  EpochGuard guard(GlobalEpochDomain());
  return specialized_[index].Load();
}

size_t AttachedTable::specialized_count() const {
  EpochGuard guard(GlobalEpochDomain());
  size_t live = 0;
  for (const auto& slot : specialized_) {
    if (slot.Load() != nullptr) {
      ++live;
    }
  }
  return live;
}

void AttachedTable::set_env(VmEnv env, HelperServices* services) {
  env_ = std::move(env);
  services_ = services;
}

void AttachedTable::set_tail_resolver(
    CompiledProgram::Resolver resolver,
    std::function<const BytecodeProgram*(int64_t)> interp_resolver) {
  tail_resolver_ = std::move(resolver);
  env_.resolve_table = std::move(interp_resolver);
}

const CompiledProgram* AttachedTable::compiled_default() const {
  if (default_action_ < 0 || static_cast<size_t>(default_action_) >= compiled_.size()) {
    return nullptr;
  }
  return &compiled_[static_cast<size_t>(default_action_)];
}

const BytecodeProgram* AttachedTable::default_action_program() const {
  if (default_action_ < 0 || static_cast<size_t>(default_action_) >= actions_.size()) {
    return nullptr;
  }
  return &actions_[static_cast<size_t>(default_action_)];
}

Result<int64_t> AttachedTable::Execute(uint64_t key, std::span<const int64_t> args,
                                       Tracer* tracer) {
  const TableEntry* entry = [&] {
    ScopedSpan lookup_span(tracer, "table.lookup");
    const TableEntry* matched = table_.Match(key);
    lookup_span.Tag("kind", static_cast<int64_t>(table_.match_kind()));
    lookup_span.Tag("index", static_cast<int64_t>(table_.index_mode()));
    lookup_span.Tag("epoch", static_cast<int64_t>(table_.version()));
    lookup_span.Tag("hit", matched != nullptr ? 1 : 0);
    return matched;
  }();
  const int32_t action_index = entry != nullptr ? entry->action_index : default_action_;
  // A matched entry with action -1 inherits the default action; a miss with
  // no default action is a deliberate no-op.
  const int32_t effective = action_index >= 0 ? action_index : default_action_;
  if (effective < 0 || static_cast<size_t>(effective) >= actions_.size()) {
    return static_cast<int64_t>(kHookFallback);
  }
  executions_.Increment();
  // Always-on exec counter: the tier ladder promotes on execution count, so
  // hotness must accumulate on every fire, not only the traced sample.
  if (opcode_profile_ != nullptr) {
    opcode_profile_->RecordExec();
  }

  // r1 = match key, r2..r5 = hook arguments (truncated to four).
  int64_t call_args[5] = {static_cast<int64_t>(key), 0, 0, 0, 0};
  const size_t extra = args.size() < 4 ? args.size() : 4;
  for (size_t i = 0; i < extra; ++i) {
    call_args[i + 1] = args[i];
  }
  const std::span<const int64_t> arg_span(call_args, 1 + extra);

  // A traced or deadline-armed fire runs through an env copy carrying the
  // tracer (ml.eval child spans), the program's opcode-profile sink, and/or
  // a stack-armed absolute deadline; the plain path keeps the shared env
  // untouched.
  const VmEnv* exec_env = &env_;
  VmEnv local_env;
  FireDeadline deadline;
  if (tracer != nullptr || fire_budget_ns_ > 0) {
    local_env = env_;
    if (tracer != nullptr) {
      local_env.tracer = tracer;
      local_env.profile = opcode_profile_;
    }
    if (fire_budget_ns_ > 0) {
      deadline.now_ns = fire_clock_;
      deadline.deadline_ns = deadline.Now() + fire_budget_ns_;
      local_env.deadline = &deadline;
    }
    exec_env = &local_env;
  }
  ScopedSpan exec_span(tracer, "vm.exec");
  exec_span.Tag("action", effective);
  // Tier numbers follow the ladder (TierReport::tier): 1 interpreter, 2 JIT.
  exec_span.Tag("tier", tier_ == ExecTier::kJit ? 2 : 1);

  const uint64_t start_ns = exec_metrics_ != nullptr ? MonotonicNowNs() : 0;
  Result<int64_t> run = [&]() -> Result<int64_t> {
    if (tier_ != ExecTier::kJit) {
      return Interpreter(*exec_env).Run(actions_[static_cast<size_t>(effective)], arg_span);
    }
    // Tier 3: untraced fires may take the specialized stream. Traced fires
    // stay on tier 2 so sampling keeps observing the real opcode mix. The
    // epoch guard must outlive the whole spec run: it pins the stream (and
    // everything it burned) against a concurrent respecialize/retire.
    if (tracer == nullptr && !specialized_.empty()) {
      EpochGuard guard(GlobalEpochDomain());
      const SpecializedProgram* spec = specialized_[static_cast<size_t>(effective)].Load();
      if (spec != nullptr) {
        DeoptReason why = DeoptReason::kMapWrite;
        if (spec->GuardOk(&why)) {
          if (tier3_stats_ != nullptr) {
            tier3_stats_->execs.Increment();
          }
          return spec->Run(*exec_env, arg_span, nullptr, tail_resolver_);
        }
        if (tier3_stats_ != nullptr) {
          tier3_stats_->deopts[static_cast<size_t>(why)].Increment();
        }
      }
    }
    return compiled_[static_cast<size_t>(effective)].Run(*exec_env, arg_span, nullptr,
                                                         tail_resolver_);
  }();
  exec_span.Tag("err", run.ok() ? 0 : 1);
  if (!run.ok() && run.status().code() == StatusCode::kDeadlineExceeded) {
    // Deadline-overrun marker the bottleneck analyzer counts per fire.
    exec_span.Tag("ddl", 1);
  }
  if (exec_metrics_ != nullptr) {
    exec_metrics_->execs->Increment();
    exec_metrics_->exec_ns->Record(MonotonicNowNs() - start_ns);
    if (!run.ok()) {
      exec_metrics_->exec_errors->Increment();
      // Breach attribution: keep wall-clock overruns, budget exhaustion,
      // and plain faults separable for the guardian and governor.
      if (run.status().code() == StatusCode::kDeadlineExceeded) {
        exec_metrics_->deadline_errors->Increment();
      } else if (run.status().code() == StatusCode::kResourceExhausted) {
        exec_metrics_->budget_errors->Increment();
      }
    }
  }
  return run;
}

void AttachedTable::ExecuteBatch(std::span<const HookEvent> events, uint64_t seq_base,
                                 std::span<int64_t> results, HookBatchStats* stats,
                                 Tracer* tracer) {
  // Canary routing resolved once per call: a permille update lands between
  // two batches, or between two runs of one sampled batch (Fire re-reads it
  // per event).
  bool route_all = true;
  bool canary_side = false;
  uint32_t permille = 0;
  if (role_ != CanaryRole::kSolo && gate_ != nullptr) {
    route_all = false;
    canary_side = role_ == CanaryRole::kCanary;
    permille = gate_->canary_permille.load(std::memory_order_relaxed);
  }

  // A traced batch gets one "table.lookup" span covering the whole pass over
  // this table (per-event spans would swamp the ring), tagged with the index
  // shape up front and the batch tallies at close.
  ScopedSpan batch_table_span(tracer, "table.lookup");
  batch_table_span.Tag("events", static_cast<int64_t>(events.size()));
  batch_table_span.Tag("kind", static_cast<int64_t>(table_.match_kind()));
  batch_table_span.Tag("index", static_cast<int64_t>(table_.index_mode()));
  batch_table_span.Tag("epoch", static_cast<int64_t>(table_.version()));

  // One env copy per batch with VM telemetry detached: per-run stats are
  // aggregated locally and flushed to the counters in bulk below. A traced
  // batch also carries the tracer (ml.eval child spans) and the program's
  // opcode-profile sink.
  VmEnv batch_env = env_;
  batch_env.metrics = nullptr;
  if (tracer != nullptr) {
    batch_env.tracer = tracer;
    batch_env.profile = opcode_profile_;
  }
  // Deadline-armed batches share one stack deadline, re-armed per event so
  // each event gets the same budget an equivalent single Fire would.
  FireDeadline deadline;
  if (fire_budget_ns_ > 0) {
    deadline.now_ns = fire_clock_;
    batch_env.deadline = &deadline;
  }
  const Interpreter interp(batch_env);
  CompiledProgram::Frame frame;

  // Tier-3 overlay: untraced jit batches may take specialized streams. One
  // epoch guard pins every stream loaded in the loop for the whole batch
  // (the batch caller already holds one; this keeps ExecuteBatch safe when
  // driven directly). Deopt tallies are aggregated locally and flushed once.
  const bool tier3_eligible =
      tier_ == ExecTier::kJit && tracer == nullptr && !specialized_.empty();
  std::optional<EpochGuard> tier3_guard;
  if (tier3_eligible) {
    tier3_guard.emplace(GlobalEpochDomain());
  }
  uint64_t tier3_execs = 0;
  std::array<uint64_t, static_cast<size_t>(DeoptReason::kReasonCount)> tier3_deopts{};

  const bool vm_metrics = env_.metrics != nullptr;
  const bool timed = exec_metrics_ != nullptr || vm_metrics;
  const uint64_t start_ns = timed ? MonotonicNowNs() : 0;

  uint64_t execs = 0;
  uint64_t errors = 0;
  uint64_t deadline_errors = 0;
  uint64_t budget_errors = 0;
  RunStats agg;
  int64_t call_args[5];
  for (size_t i = 0; i < events.size(); ++i) {
    if (!route_all && ((seq_base + i) % 1000 < permille) != canary_side) {
      continue;  // this fire is routed to the other rollout arm
    }
    const HookEvent& event = events[i];
    const TableEntry* entry = table_.Match(event.key);
    const int32_t action_index = entry != nullptr ? entry->action_index : default_action_;
    const int32_t effective = action_index >= 0 ? action_index : default_action_;
    if (effective < 0 || static_cast<size_t>(effective) >= actions_.size()) {
      if (stats != nullptr) {
        ++stats->actions_run;  // Fire counts the deliberate no-op as ok
      }
      continue;
    }
    ++execs;

    call_args[0] = static_cast<int64_t>(event.key);
    const size_t extra = event.num_args < 4 ? event.num_args : 4;
    for (size_t a = 0; a < extra; ++a) {
      call_args[a + 1] = event.args[a];
    }
    const std::span<const int64_t> arg_span(call_args, 1 + extra);

    if (fire_budget_ns_ > 0) {
      deadline.deadline_ns = deadline.Now() + fire_budget_ns_;
    }
    RunStats rs;
    const Result<int64_t> run = [&]() -> Result<int64_t> {
      if (tier_ != ExecTier::kJit) {
        return interp.Run(actions_[static_cast<size_t>(effective)], arg_span, &rs);
      }
      if (tier3_eligible) {
        const SpecializedProgram* spec = specialized_[static_cast<size_t>(effective)].Load();
        if (spec != nullptr) {
          DeoptReason why = DeoptReason::kMapWrite;
          if (spec->GuardOk(&why)) {
            ++tier3_execs;
            return spec->RunInFrame(frame, batch_env, arg_span, &rs, tail_resolver_);
          }
          ++tier3_deopts[static_cast<size_t>(why)];
        }
      }
      return compiled_[static_cast<size_t>(effective)].RunInFrame(frame, batch_env, arg_span,
                                                                  &rs, tail_resolver_);
    }();
    agg.steps += rs.steps;
    agg.tail_calls += rs.tail_calls;
    agg.helper_calls += rs.helper_calls;
    agg.ml_calls += rs.ml_calls;
    if (run.ok()) {
      if (stats != nullptr) {
        ++stats->actions_run;
      }
      if (*run != kHookFallback) {
        results[i] = *run;
      }
    } else {
      ++errors;
      if (run.status().code() == StatusCode::kDeadlineExceeded) {
        ++deadline_errors;
      } else if (run.status().code() == StatusCode::kResourceExhausted) {
        ++budget_errors;
      }
      if (stats != nullptr) {
        ++stats->exec_errors;
      }
    }
  }

  batch_table_span.Tag("execs", static_cast<int64_t>(execs));
  batch_table_span.Tag("errors", static_cast<int64_t>(errors));
  if (execs > 0) {
    executions_.Increment(execs);
    // Always-on exec counter (see Execute): promotion hotness accumulates on
    // every fire, traced or not.
    if (opcode_profile_ != nullptr) {
      opcode_profile_->RecordExec(execs);
    }
  }
  if (tier3_stats_ != nullptr) {
    if (tier3_execs > 0) {
      tier3_stats_->execs.Increment(tier3_execs);
    }
    for (size_t reason = 0; reason < tier3_deopts.size(); ++reason) {
      if (tier3_deopts[reason] > 0) {
        tier3_stats_->deopts[reason].Increment(tier3_deopts[reason]);
      }
    }
  }

  const uint64_t elapsed_ns = timed ? MonotonicNowNs() - start_ns : 0;
  if (exec_metrics_ != nullptr && execs > 0) {
    exec_metrics_->execs->Increment(execs);
    exec_metrics_->exec_ns->RecordBatch(elapsed_ns, execs);
    if (errors > 0) {
      exec_metrics_->exec_errors->Increment(errors);
    }
    if (deadline_errors > 0) {
      exec_metrics_->deadline_errors->Increment(deadline_errors);
    }
    if (budget_errors > 0) {
      exec_metrics_->budget_errors->Increment(budget_errors);
    }
  }
  if (vm_metrics && execs > 0) {
    env_.metrics->invocations->Increment(execs);
    env_.metrics->steps->Increment(agg.steps);
    env_.metrics->helper_calls->Increment(agg.helper_calls);
    env_.metrics->ml_calls->Increment(agg.ml_calls);
    env_.metrics->tail_calls->Increment(agg.tail_calls);
    env_.metrics->run_ns->RecordBatch(elapsed_ns, execs);
  }
}

// --- InstalledProgram ---

InstalledProgram::InstalledProgram(const RmtProgramSpec& spec, HookRegistry* hooks)
    : name_(spec.name),
      hooks_(hooks),
      rate_limiter_(spec.rate_limit_capacity, spec.rate_limit_refill),
      privacy_budget_(spec.privacy_epsilon, spec.epsilon_per_query),
      dp_noise_(&privacy_budget_, spec.dp_sensitivity, spec.seed),
      sample_ring_(4096),
      fire_deadline_ns_(spec.fire_deadline_ns) {
  maps_.SetQuotaBytes(spec.map_bytes_quota);
}

InstalledProgram::~InstalledProgram() {
  if (!attached_) {
    return;
  }
  for (const auto& table : tables_) {
    (void)hooks_->Detach(table->hook(), table.get());
  }
  // Grace period: a fire in flight may still hold an attachment list naming
  // our tables. Wait until every reader pinned before the detaches above has
  // unpinned, so no datapath thread can touch the members destroyed next.
  GlobalEpochDomain().Synchronize();
}

AttachedTable* InstalledProgram::FindTable(std::string_view table_name) {
  for (const auto& table : tables_) {
    if (table->table().name() == table_name) {
      return table.get();
    }
  }
  return nullptr;
}

}  // namespace rkd
