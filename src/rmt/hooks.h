// Hook points: where RMT tables meet the kernel datapath.
//
// A kernel subsystem registers each of its performance-critical decision
// sites as a named hook ("mm.lookup_swap_cache", "sched.can_migrate_task",
// ...) together with the subsystem services programs at that site may use
// (virtual clock, the prefetch sink, the priority-hint sink). The control
// plane attaches verified tables to hooks; the subsystem fires the hook on
// its datapath and gets back the action's decision.
//
// Fire() is datapath code: it cannot propagate Status. Execution errors are
// counted and reported through stats, and the hook returns the fallback
// value so the kernel's default behaviour resumes — a misbehaving RMT
// program degrades to stock-kernel behaviour, never to a crash.
//
// Concurrency model (see DESIGN.md "Concurrency model"): Fire/FireBatch are
// wait-free readers. Each call pins one epoch guard and walks immutable
// snapshots — the hook directory (so Register can grow the hook set under
// live fire) and each hook's attachment list (so Attach/Detach swap lists
// atomically; a fire in flight finishes against the list it loaded).
// Register/Attach/Detach serialize on a writer mutex, publish the new
// snapshot, and retire the old one into the global epoch domain.
#ifndef SRC_RMT_HOOKS_H_
#define SRC_RMT_HOOKS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/epoch.h"
#include "src/base/status.h"
#include "src/bytecode/program.h"
#include "src/telemetry/telemetry.h"

namespace rkd {

class AttachedTable;  // defined in src/rmt/pipeline.h

using HookId = int32_t;
inline constexpr HookId kInvalidHook = -1;

// Subsystem-provided services, copied into the helper environment of every
// table attached to the hook.
struct SubsystemBindings {
  std::function<uint64_t()> now;
  std::function<void(int64_t, int64_t)> prefetch_emit;   // (first_page, count)
  std::function<void(int64_t, int64_t)> priority_hint;   // (task, bias)
};

// The fallback value Fire() returns when no table is attached or the action
// faulted; the call site treats it exactly like "RMT not present".
inline constexpr int64_t kHookFallback = -1;

// The overload-governor degradation ladder (see src/rmt/governor.h). Every
// fire consults the firing table's program-level rung with one relaxed load:
//   kFull     - learned policy runs normally
//   kDegraded - learned policy is skipped; the hook's registered fallback
//               oracle (the heuristic baseline) answers instead
//   kShed     - nothing runs; the fire returns kHookFallback (stock kernel)
// Stored as uint8_t so the per-program cell is a single-byte atomic.
enum class GovLevel : uint8_t { kFull = 0, kDegraded = 1, kShed = 2 };

std::string_view GovLevelName(GovLevel level);

// Heuristic baseline a subsystem registers per hook for the kDegraded rung:
// same (key, args) contract as an action program, same result-merge rule
// (kHookFallback = no opinion). Must be cheap and side-effect-safe — it runs
// on the datapath in place of the learned policy.
using FallbackOracle = std::function<int64_t(uint64_t key, std::span<const int64_t> args)>;

// One event of a FireBatch call: the (key, args) a single Fire would take,
// with args inlined so a batch is one contiguous allocation.
struct HookEvent {
  uint64_t key = 0;
  uint32_t num_args = 0;
  std::array<int64_t, 4> args{};  // Fire truncates to four anyway

  HookEvent() = default;
  HookEvent(uint64_t k, std::initializer_list<int64_t> a) : key(k) {
    for (const int64_t v : a) {
      if (num_args >= args.size()) {
        break;
      }
      args[num_args++] = v;
    }
  }
};

// Observer for hook traffic. The experience recorder (src/replay/) hangs
// off this to capture live fire streams into a replayable corpus; anything
// else that wants an ordered feed of (hook, key, args, decision) tuples can
// implement it too. OnFire is called on the datapath after the attached
// tables ran, so implementations must be cheap and must not re-enter the
// registry.
class HookEventSink {
 public:
  virtual ~HookEventSink() = default;
  virtual void OnFire(HookId id, uint64_t key, std::span<const int64_t> args,
                      int64_t result) = 0;
};

// Per-batch tally an AttachedTable::ExecuteBatch call reports back so the
// hook layer can bulk-increment its counters once per batch.
struct HookBatchStats {
  uint64_t actions_run = 0;
  uint64_t exec_errors = 0;
};

// Read-only view over one hook's slice of the telemetry registry. The
// underlying metrics live for the registry's lifetime, so the view is a
// cheap value type; callers may keep it across fires and re-read.
// Names: rkd.hook.<name>.fires / .actions_run / .exec_errors / .fire_ns.
class HookMetrics {
 public:
  uint64_t fires() const { return fires_->value(); }
  uint64_t actions_run() const { return actions_run_->value(); }
  uint64_t exec_errors() const { return exec_errors_->value(); }
  // Fires answered by the fallback oracle (program on kDegraded) and fires
  // skipped entirely (kShed, or kDegraded with no oracle registered).
  uint64_t degraded_fires() const { return degraded_fires_->value(); }
  uint64_t shed_fires() const { return shed_fires_->value(); }
  // Per-fire wall latency of the whole Fire() call (match + action).
  const LatencyHistogram& fire_ns() const { return *fire_ns_; }

 private:
  friend class HookRegistry;
  HookMetrics(const Counter* fires, const Counter* actions_run, const Counter* exec_errors,
              const Counter* degraded_fires, const Counter* shed_fires,
              const LatencyHistogram* fire_ns)
      : fires_(fires), actions_run_(actions_run), exec_errors_(exec_errors),
        degraded_fires_(degraded_fires), shed_fires_(shed_fires), fire_ns_(fire_ns) {}

  const Counter* fires_;
  const Counter* actions_run_;
  const Counter* exec_errors_;
  const Counter* degraded_fires_;
  const Counter* shed_fires_;
  const LatencyHistogram* fire_ns_;
};

class HookRegistry {
 public:
  // By default every registry owns a private TelemetryRegistry (test
  // isolation); pass an external one to aggregate several subsystems into a
  // single exporter endpoint.
  HookRegistry();
  explicit HookRegistry(TelemetryRegistry* telemetry);

  // Registers a hook point. Fails on duplicate names.
  Result<HookId> Register(std::string name, HookKind kind, SubsystemBindings bindings = {});

  Result<HookId> Lookup(std::string_view name) const;
  HookKind KindOf(HookId id) const;
  const std::string& NameOf(HookId id) const;
  const SubsystemBindings& BindingsOf(HookId id) const;
  size_t size() const;

  // Datapath entry point: runs every attached table's match+action in attach
  // order with (key, args) and returns the last action's r0, or kHookFallback
  // when nothing ran.
  int64_t Fire(HookId id, uint64_t key, std::span<const int64_t> args = {});

  // Batched datapath entry point for naturally-bursty call sites (readahead
  // windows, migration scans). Semantically `results[i]` is what
  // `Fire(id, events[i].key, events[i].args)` would return, but the fixed
  // per-event overhead — fire-sequence atomic, canary-gate load, telemetry
  // timestamps, histogram records, trace push, VM frame setup — is paid once
  // per batch. Fire sequence numbers stay dense (event i gets seq_base + i),
  // so canary routing is bit-identical to N single fires. Tables execute in
  // attach order, each consuming the whole batch before the next table runs;
  // for the single-table hooks the sims use this matches Fire ordering
  // exactly (see DESIGN.md "Fire-path performance" for the multi-table
  // caveat). Tracing is per event, like Fire: only the sampled events run
  // traced (never on tier 3), each as its own `hook.<name>` tree tagged
  // with its seq and `batch` 1, while the rest keep their serving tier. A
  // force-traced hook, or 1-in-1 sampling, traces the batch as one tree.
  // `results.size()` must be >= `events.size()`.
  void FireBatch(HookId id, std::span<const HookEvent> events, std::span<int64_t> results);

  // Attachment management (control plane only).
  Status Attach(HookId id, AttachedTable* table);
  Status Detach(HookId id, AttachedTable* table);

  // Registers (or replaces; an empty function clears) the heuristic baseline
  // the kDegraded rung routes fires to. Epoch-published like the attachment
  // list, so the fire path reads it with the guard it already holds — no new
  // synchronization on the hot path.
  Status SetFallbackOracle(HookId id, FallbackOracle oracle);
  bool HasFallbackOracle(HookId id) const;

  // Force-trace refcount: while positive, every fire of this hook is traced
  // regardless of the sampling rate. The control plane raises it for the
  // duration of a canary rollout and the guardian for programs on probation,
  // so the fires that decide a promotion / re-admission always leave spans
  // in the flight recorder. Balanced +1/-1 deltas; never goes below zero.
  void AdjustForceTrace(HookId id, int delta);
  bool ForceTraced(HookId id) const;

  // The stats API: a per-hook view over the telemetry registry. Valid for
  // any id (an invalid id yields a zeroed view).
  HookMetrics MetricsOf(HookId id) const;

  // The registry all hook metrics and the fire trace live in.
  TelemetryRegistry& telemetry() const { return *telemetry_; }

  // Installs (or clears, with nullptr) the event sink. Not owned; the caller
  // must keep it alive until every in-flight fire that could observe it has
  // drained. Single observer by design — the recorder is the only intended
  // client and one atomic load keeps the disarmed cost on Fire() negligible.
  void set_event_sink(HookEventSink* sink) {
    event_sink_.store(sink, std::memory_order_release);
  }
  HookEventSink* event_sink() const { return event_sink_.load(std::memory_order_acquire); }

 private:
  // One registered hook point. Heap-allocated and never freed before the
  // registry, so Hook pointers in a published directory stay valid for any
  // reader holding an epoch guard. The attachment list is itself an
  // epoch-published immutable snapshot.
  struct Hook {
    std::string name;
    HookKind kind;
    SubsystemBindings bindings;
    // Attached tables (not owned; owned by ControlPlane). Never null: an
    // empty list is published at Register().
    EpochPtr<const std::vector<AttachedTable*>> tables;
    // Telemetry slice, resolved once at Register() so Fire() only touches
    // raw pointers. `fires` stays a single-cell Counter on purpose: its
    // FetchIncrement is the dense fire sequence canary routing and trace
    // sampling key on.
    Counter* fires = nullptr;
    Counter* actions_run = nullptr;
    Counter* exec_errors = nullptr;
    Counter* degraded_fires = nullptr;
    Counter* shed_fires = nullptr;
    LatencyHistogram* fire_ns = nullptr;
    // Heuristic baseline for the kDegraded rung; null until the subsystem
    // registers one. Loaded only on the degraded path.
    EpochPtr<const FallbackOracle> fallback;
    // Root-span label ("hook.<name>") and the force-trace refcount
    // (mutable: adjusted through the reader-side const Hook*).
    std::string span_label;
    mutable std::atomic<uint32_t> force_trace{0};
  };

  // The published hook directory: an immutable snapshot of Hook pointers,
  // replaced wholesale when Register grows the set. HookId indexes into it.
  struct Directory {
    std::vector<Hook*> hooks;  // not owned; owned by storage_
  };

  // Reader-side resolution: id -> Hook under the caller's epoch guard.
  const Hook* Resolve(HookId id) const {
    const Directory* dir = dir_.Load();
    if (dir == nullptr || id < 0 || static_cast<size_t>(id) >= dir->hooks.size()) {
      return nullptr;
    }
    return dir->hooks[static_cast<size_t>(id)];
  }

  std::unique_ptr<TelemetryRegistry> owned_telemetry_;  // null when external
  TelemetryRegistry* telemetry_;
  std::atomic<HookEventSink*> event_sink_{nullptr};

  std::mutex writer_mutex_;  // serializes Register/Attach/Detach
  std::vector<std::unique_ptr<Hook>> storage_;  // guarded by writer_mutex_
  EpochPtr<const Directory> dir_;
};

}  // namespace rkd

#endif  // SRC_RMT_HOOKS_H_
