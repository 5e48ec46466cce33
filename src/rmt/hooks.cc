#include "src/rmt/hooks.h"

#include <algorithm>

#include "src/rmt/pipeline.h"

namespace rkd {

std::string_view GovLevelName(GovLevel level) {
  switch (level) {
    case GovLevel::kFull:
      return "full";
    case GovLevel::kDegraded:
      return "degraded";
    case GovLevel::kShed:
      return "shed";
  }
  return "unknown";
}

HookRegistry::HookRegistry()
    : owned_telemetry_(std::make_unique<TelemetryRegistry>()),
      telemetry_(owned_telemetry_.get()) {}

HookRegistry::HookRegistry(TelemetryRegistry* telemetry)
    : telemetry_(telemetry != nullptr ? telemetry : &GlobalTelemetry()) {}

Result<HookId> HookRegistry::Register(std::string name, HookKind kind,
                                      SubsystemBindings bindings) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  for (const std::unique_ptr<Hook>& hook : storage_) {
    if (hook->name == name) {
      return AlreadyExistsError("hook '" + name + "' is already registered");
    }
  }
  auto hook = std::make_unique<Hook>();
  hook->name = std::move(name);
  hook->kind = kind;
  hook->bindings = std::move(bindings);
  const std::string prefix = "rkd.hook." + hook->name;
  hook->fires = telemetry_->GetCounter(prefix + ".fires");
  hook->actions_run = telemetry_->GetCounter(prefix + ".actions_run");
  hook->exec_errors = telemetry_->GetCounter(prefix + ".exec_errors");
  hook->degraded_fires = telemetry_->GetCounter(prefix + ".degraded_fires");
  hook->shed_fires = telemetry_->GetCounter(prefix + ".shed_fires");
  hook->fire_ns = telemetry_->GetHistogram(prefix + ".fire_ns");
  hook->span_label = "hook." + hook->name;
  hook->tables.Publish(new std::vector<AttachedTable*>(), GlobalEpochDomain());
  storage_.push_back(std::move(hook));

  auto* dir = new Directory();
  dir->hooks.reserve(storage_.size());
  for (const std::unique_ptr<Hook>& h : storage_) {
    dir->hooks.push_back(h.get());
  }
  dir_.Publish(dir, GlobalEpochDomain());
  return static_cast<HookId>(storage_.size()) - 1;
}

Result<HookId> HookRegistry::Lookup(std::string_view name) const {
  EpochGuard guard(GlobalEpochDomain());
  const Directory* dir = dir_.Load();
  if (dir != nullptr) {
    for (size_t i = 0; i < dir->hooks.size(); ++i) {
      if (dir->hooks[i]->name == name) {
        return static_cast<HookId>(i);
      }
    }
  }
  return NotFoundError("hook '" + std::string(name) + "' is not registered");
}

HookKind HookRegistry::KindOf(HookId id) const {
  EpochGuard guard(GlobalEpochDomain());
  const Hook* hook = Resolve(id);
  return hook != nullptr ? hook->kind : HookKind::kGeneric;
}

const std::string& HookRegistry::NameOf(HookId id) const {
  static const std::string kUnknown = "<invalid hook>";
  EpochGuard guard(GlobalEpochDomain());
  const Hook* hook = Resolve(id);
  return hook != nullptr ? hook->name : kUnknown;
}

const SubsystemBindings& HookRegistry::BindingsOf(HookId id) const {
  static const SubsystemBindings kEmpty;
  EpochGuard guard(GlobalEpochDomain());
  const Hook* hook = Resolve(id);
  return hook != nullptr ? hook->bindings : kEmpty;
}

size_t HookRegistry::size() const {
  EpochGuard guard(GlobalEpochDomain());
  const Directory* dir = dir_.Load();
  return dir == nullptr ? 0 : dir->hooks.size();
}

int64_t HookRegistry::Fire(HookId id, uint64_t key, std::span<const int64_t> args) {
  // One pin covers the whole fire: the directory, the hook, its attachment
  // list, and every table index snapshot loaded during matching stay alive
  // until the guard drops.
  EpochGuard guard(GlobalEpochDomain());
  const Hook* hook_ptr = Resolve(id);
  if (hook_ptr == nullptr) {
    return kHookFallback;
  }
  const Hook& hook = *hook_ptr;
  // The pre-increment fire count doubles as the deterministic sequence
  // number canary routing keys on (see AttachedTable::ShouldRun) and as the
  // sampling key for causal tracing: same fire stream, same traced set.
  const uint64_t seq = hook.fires->FetchIncrement();
  Tracer& t = telemetry_->tracer();
  Tracer* const tracer =
      hook.force_trace.load(std::memory_order_relaxed) != 0 || t.ShouldSample(seq)
          ? &t
          : nullptr;
  ScopedSpan fire_span(tracer, hook.span_label.c_str());
  fire_span.Tag("hook", id);
  fire_span.Tag("seq", static_cast<int64_t>(seq));
  fire_span.Tag("key", static_cast<int64_t>(key));
  const uint64_t start_ns = MonotonicNowNs();
  int64_t result = kHookFallback;
  GovLevel worst_level = GovLevel::kFull;
  const std::vector<AttachedTable*>* tables = hook.tables.Load();
  for (AttachedTable* table : *tables) {
    if (!table->ShouldRun(seq)) {
      continue;  // this fire is routed to the other rollout arm
    }
    // Governor admission: one relaxed load of the program's ladder rung.
    // Anything below kFull bypasses the learned policy entirely.
    const GovLevel level = table->governor_level();
    if (level > worst_level) {
      worst_level = level;
    }
    if (level != GovLevel::kFull) {
      if (level == GovLevel::kDegraded) {
        const FallbackOracle* fallback = hook.fallback.Load();
        if (fallback != nullptr && *fallback) {
          const int64_t answer = (*fallback)(key, args);
          hook.degraded_fires->Increment();
          if (answer != kHookFallback) {
            result = answer;
          }
          continue;
        }
      }
      // kShed, or kDegraded with no oracle registered: stock behaviour.
      hook.shed_fires->Increment();
      continue;
    }
    Result<int64_t> action = table->Execute(key, args, tracer);
    if (action.ok()) {
      hook.actions_run->Increment();
      if (*action != kHookFallback) {
        result = *action;
      }
    } else {
      // Datapath rule: a faulting action degrades to stock behaviour.
      hook.exec_errors->Increment();
    }
  }
  const uint64_t elapsed_ns = MonotonicNowNs() - start_ns;
  hook.fire_ns->Record(elapsed_ns);
  if (worst_level != GovLevel::kFull) {
    // Degraded-admission marker: the bottleneck analyzer counts fires that
    // ran below kFull toward deadline/governor pressure.
    fire_span.Tag("gov", static_cast<int64_t>(worst_level));
  }
  fire_span.Tag("result", result);
  if (HookEventSink* sink = event_sink_.load(std::memory_order_acquire); sink != nullptr) {
    sink->OnFire(id, key, args, result);
  }

  TraceEvent event;
  event.ts_ns = start_ns;
  event.source = id;
  event.kind = kHookFireEvent;
  event.key = key;
  event.value = result;
  event.duration_ns = elapsed_ns > 0xffffffffull ? 0xffffffffu
                                                 : static_cast<uint32_t>(elapsed_ns);
  telemetry_->trace().Push(event);
  return result;
}

void HookRegistry::FireBatch(HookId id, std::span<const HookEvent> events,
                             std::span<int64_t> results) {
  const size_t n = events.size();
  for (size_t i = 0; i < n && i < results.size(); ++i) {
    results[i] = kHookFallback;
  }
  EpochGuard guard(GlobalEpochDomain());
  const Hook* hook_ptr = Resolve(id);
  if (hook_ptr == nullptr || n == 0 || results.size() < n) {
    return;
  }
  const Hook& hook = *hook_ptr;
  // Reserve a dense run of fire sequence numbers: event i is fire
  // seq_base + i, so canary routing decides each event exactly as the
  // equivalent single Fire would.
  const uint64_t seq_base = hook.fires->FetchIncrement(n);
  // Tracing is decided per event, as N single Fire calls would decide it:
  // event i is traced iff the hook is force-traced or seq_base + i samples.
  // Sampled events sit `every` apart, so the offset of the first one (n when
  // the batch holds none) locates them all without a per-event modulo.
  Tracer& t = telemetry_->tracer();
  size_t first_sampled = n;
  size_t every = 1;
  if (hook.force_trace.load(std::memory_order_relaxed) != 0) {
    first_sampled = 0;
  } else if (const uint32_t rate = t.sample_every(); rate != 0) {
    every = rate;
    const uint64_t to_next = (rate - seq_base % rate) % rate;
    first_sampled = to_next < n ? static_cast<size_t>(to_next) : n;
  }
  // A batch traced end to end (forced, or 1-in-1 sampling) is one tree whose
  // root spans every table pass. Otherwise sampled events are >= 2 apart, so
  // each one is a traced run of its own between two untraced runs.
  const bool all_traced = first_sampled == 0 && every == 1;
  Tracer* const batch_tracer = all_traced ? &t : nullptr;
  ScopedSpan batch_span(batch_tracer, hook.span_label.c_str());
  batch_span.Tag("hook", id);
  batch_span.Tag("seq", static_cast<int64_t>(seq_base));
  batch_span.Tag("batch", static_cast<int64_t>(n));
  const uint64_t start_ns = MonotonicNowNs();
  HookBatchStats stats;
  // Runs events [begin, end) through `table` untraced, so they keep the tier
  // that serves them; an empty run costs nothing.
  const auto run_untraced = [&](AttachedTable* table, size_t begin, size_t end) {
    if (end > begin) {
      table->ExecuteBatch(events.subspan(begin, end - begin), seq_base + begin,
                          results.subspan(begin, end - begin), &stats);
    }
  };
  const std::vector<AttachedTable*>* tables = hook.tables.Load();
  for (AttachedTable* table : *tables) {
    // Governor admission, checked once per table pass (the rung cannot
    // change mid-batch: demotion publishes for future fires only).
    const GovLevel level = table->governor_level();
    if (level != GovLevel::kFull) {
      if (level == GovLevel::kDegraded) {
        const FallbackOracle* fallback = hook.fallback.Load();
        if (fallback != nullptr && *fallback) {
          for (size_t i = 0; i < n; ++i) {
            const int64_t answer =
                (*fallback)(events[i].key, std::span<const int64_t>(events[i].args.data(),
                                                                    events[i].num_args));
            if (answer != kHookFallback) {
              results[i] = answer;
            }
          }
          hook.degraded_fires->Increment(n);
          continue;
        }
      }
      hook.shed_fires->Increment(n);
      continue;
    }
    if (all_traced) {
      table->ExecuteBatch(events, seq_base, results, &stats, batch_tracer);
      continue;
    }
    // Tables stay outer: this table consumes every run of the batch before
    // the next table starts. Each sampled event is its own span tree.
    size_t done = 0;
    for (size_t s = first_sampled; s < n; s += every) {
      run_untraced(table, done, s);
      ScopedSpan run_span(&t, hook.span_label.c_str());
      run_span.Tag("hook", id);
      run_span.Tag("seq", static_cast<int64_t>(seq_base + s));
      run_span.Tag("batch", 1);
      table->ExecuteBatch(events.subspan(s, 1), seq_base + s, results.subspan(s, 1), &stats,
                          &t);
      done = s + 1;
    }
    run_untraced(table, done, n);
  }
  if (stats.actions_run > 0) {
    hook.actions_run->Increment(stats.actions_run);
  }
  if (stats.exec_errors > 0) {
    hook.exec_errors->Increment(stats.exec_errors);
  }
  const uint64_t elapsed_ns = MonotonicNowNs() - start_ns;
  hook.fire_ns->RecordBatch(elapsed_ns, n);
  if (HookEventSink* sink = event_sink_.load(std::memory_order_acquire); sink != nullptr) {
    // Per-event callbacks so the sink sees the same ordered stream N single
    // Fire calls would have produced.
    for (size_t i = 0; i < n; ++i) {
      sink->OnFire(id, events[i].key,
                   std::span<const int64_t>(events[i].args.data(), events[i].num_args),
                   results[i]);
    }
  }

  // One trace record summarises the batch (events would flood the ring).
  TraceEvent event;
  event.ts_ns = start_ns;
  event.source = id;
  event.kind = kHookBatchEvent;
  event.key = n;
  event.value = results[n - 1];
  event.duration_ns = elapsed_ns > 0xffffffffull ? 0xffffffffu
                                                 : static_cast<uint32_t>(elapsed_ns);
  telemetry_->trace().Push(event);
}

Status HookRegistry::Attach(HookId id, AttachedTable* table) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (id < 0 || static_cast<size_t>(id) >= storage_.size()) {
    return NotFoundError("cannot attach to invalid hook id");
  }
  Hook& hook = *storage_[static_cast<size_t>(id)];
  // Copy-on-write: the live list is immutable, so build the successor and
  // publish it; fires in flight finish against the list they loaded.
  auto* next = new std::vector<AttachedTable*>(*hook.tables.Load());
  next->push_back(table);
  hook.tables.Publish(next, GlobalEpochDomain());
  return OkStatus();
}

Status HookRegistry::Detach(HookId id, AttachedTable* table) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (id < 0 || static_cast<size_t>(id) >= storage_.size()) {
    return NotFoundError("cannot detach from invalid hook id");
  }
  Hook& hook = *storage_[static_cast<size_t>(id)];
  const std::vector<AttachedTable*>* current = hook.tables.Load();
  const auto it = std::find(current->begin(), current->end(), table);
  if (it == current->end()) {
    return NotFoundError("table is not attached to this hook");
  }
  auto* next = new std::vector<AttachedTable*>(*current);
  next->erase(next->begin() + (it - current->begin()));
  hook.tables.Publish(next, GlobalEpochDomain());
  return OkStatus();
}

Status HookRegistry::SetFallbackOracle(HookId id, FallbackOracle oracle) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (id < 0 || static_cast<size_t>(id) >= storage_.size()) {
    return NotFoundError("cannot set fallback oracle on invalid hook id");
  }
  Hook& hook = *storage_[static_cast<size_t>(id)];
  hook.fallback.Publish(oracle ? new FallbackOracle(std::move(oracle)) : nullptr,
                        GlobalEpochDomain());
  return OkStatus();
}

bool HookRegistry::HasFallbackOracle(HookId id) const {
  EpochGuard guard(GlobalEpochDomain());
  const Hook* hook = Resolve(id);
  if (hook == nullptr) {
    return false;
  }
  const FallbackOracle* fallback = hook->fallback.Load();
  return fallback != nullptr && *fallback;
}

void HookRegistry::AdjustForceTrace(HookId id, int delta) {
  EpochGuard guard(GlobalEpochDomain());
  const Hook* hook = Resolve(id);
  if (hook == nullptr) {
    return;
  }
  std::atomic<uint32_t>& count = hook->force_trace;
  if (delta >= 0) {
    count.fetch_add(static_cast<uint32_t>(delta), std::memory_order_relaxed);
    return;
  }
  // Clamped decrement: unbalanced releases saturate at zero.
  uint32_t current = count.load(std::memory_order_relaxed);
  const auto down = static_cast<uint32_t>(-delta);
  while (true) {
    const uint32_t next = current > down ? current - down : 0;
    if (count.compare_exchange_weak(current, next, std::memory_order_relaxed)) {
      return;
    }
  }
}

bool HookRegistry::ForceTraced(HookId id) const {
  EpochGuard guard(GlobalEpochDomain());
  const Hook* hook = Resolve(id);
  return hook != nullptr && hook->force_trace.load(std::memory_order_relaxed) != 0;
}

HookMetrics HookRegistry::MetricsOf(HookId id) const {
  EpochGuard guard(GlobalEpochDomain());
  const Hook* hook = Resolve(id);
  if (hook == nullptr) {
    static const Counter kZeroCounter;
    static const LatencyHistogram kZeroHistogram;
    return HookMetrics(&kZeroCounter, &kZeroCounter, &kZeroCounter, &kZeroCounter,
                       &kZeroCounter, &kZeroHistogram);
  }
  return HookMetrics(hook->fires, hook->actions_run, hook->exec_errors, hook->degraded_fires,
                     hook->shed_fires, hook->fire_ns);
}

}  // namespace rkd
