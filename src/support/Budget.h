//===- Budget.h - Per-request resource budgets ------------------*- C++ -*-==//
///
/// \file
/// The one stop signal of the decision procedure (docs/ROBUSTNESS.md).
/// The paper's constructions (products, subset construction, gci
/// complements) can explode combinatorially from small inputs; a
/// ResourceBudget caps how much a single request may materialize, carries
/// its deadline and its cancel flag, and the hot loops unwind
/// *cooperatively* into a structured outcome instead of wedging a worker
/// or OOM-killing the process.
///
/// Three pieces:
///
///  * ResourceLimits / ResourceBudget — the caps and the thread-safe
///    charge ledger. Charges are relaxed atomics; the first breached
///    dimension trips a sticky flag that every loop polls. cancel() and an
///    expired deadline trip the same flag, as dimensions that are not
///    resources.
///  * ResourceGuard — RAII installer of the *ambient* budget for the
///    current thread. Every stage charges and polls through
///    `ResourceGuard::chargeStates(...)` / `ResourceGuard::exhausted()`
///    statics, so the free functions in NfaOps.h/Decide.h and the solver
///    need no budget parameter; with no guard installed the charges are
///    no-ops and nothing ever stops. Executor::parallelFor carries the
///    caller's ambient budget into its helper threads (Executor.h), so one
///    guard per request governs every thread working on it.
///  * BudgetStats — process-wide budget.* counters (StatsRegistry).
///
/// Memory accounting is approximate by design: states and transitions are
/// charged at documented per-unit byte estimates (BytesPerState,
/// BytesPerTransition), which tracks the dominant allocations (state
/// vectors, transition lists, subset-construction sets) closely enough to
/// stop a runaway build long before the allocator fails.
///
/// Polling cost: with no deadline armed, exhausted() is one relaxed atomic
/// load. With a deadline armed, each poll or ambient charge also counts
/// down a thread-local counter, and the clock is read once every
/// PollsPerClockRead of them.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_SUPPORT_BUDGET_H
#define DPRLE_SUPPORT_BUDGET_H

#include "support/Stats.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace dprle {

/// Why a budget tripped. None = still running. The resource dimensions
/// are first-breach-wins; Cancelled and Deadline are stop signals, not
/// resources, and are reported over a resource trip (the tie rule: a
/// request cancelled or timed out while over budget answers cancelled or
/// timeout).
enum class BudgetDimension : uint8_t {
  None = 0,
  /// Cumulative states materialized across the whole request.
  States,
  /// A single machine grew past the per-machine cap (the service routes
  /// its --max-states admission limit here so it also binds every
  /// *intermediate* machine a request creates).
  MachineStates,
  /// Cumulative transitions materialized.
  Transitions,
  /// Approximate bytes (see BytesPerState / BytesPerTransition).
  Memory,
  /// ResourceBudget::cancel() was called.
  Cancelled,
  /// The armed deadline passed.
  Deadline,
};

/// Stable lowercase name of \p D ("states", "machine_states", ...).
const char *budgetDimensionName(BudgetDimension D);

/// True for the four resource caps; false for None, Cancelled, Deadline.
inline bool isResourceDimension(BudgetDimension D) {
  return D != BudgetDimension::None && D != BudgetDimension::Cancelled &&
         D != BudgetDimension::Deadline;
}

/// The caps. 0 always means "unlimited" — a default-constructed
/// ResourceLimits governs nothing.
struct ResourceLimits {
  uint64_t MaxStates = 0;
  uint64_t MaxStatesPerMachine = 0;
  uint64_t MaxTransitions = 0;
  uint64_t MaxMemoryBytes = 0;

  bool unlimited() const {
    return MaxStates == 0 && MaxStatesPerMachine == 0 &&
           MaxTransitions == 0 && MaxMemoryBytes == 0;
  }
};

/// The thread-safe charge ledger and stop signal for one request. Shared
/// by every thread working on the request (the solver's parallel stages
/// charge the same budget); a trip is sticky.
class ResourceBudget {
public:
  /// Approximate cost model for the Memory dimension.
  static constexpr uint64_t BytesPerState = 64;
  static constexpr uint64_t BytesPerTransition = 48;
  /// With a deadline armed, a thread reads the clock once per this many
  /// polls and ambient charges.
  static constexpr unsigned PollsPerClockRead = 64;

  ResourceBudget() = default;
  explicit ResourceBudget(const ResourceLimits &Limits) : Limits(Limits) {}

  ResourceBudget(const ResourceBudget &) = delete;
  ResourceBudget &operator=(const ResourceBudget &) = delete;

  /// Charges \p N newly materialized states (plus their memory estimate).
  void chargeStates(uint64_t N = 1);
  /// Charges \p N newly materialized transitions (plus memory estimate).
  void chargeTransitions(uint64_t N = 1);
  /// Charges \p Bytes of approximate auxiliary memory (macro-state sets,
  /// pair tables, ...).
  void chargeMemory(uint64_t Bytes);
  /// Checks a single machine's current size against MaxStatesPerMachine.
  /// Does not accumulate; call with the machine's running state count.
  void noteMachineStates(uint64_t NumStates);

  /// Replaces the caps. Call before the first charge.
  void setLimits(const ResourceLimits &NewLimits) { Limits = NewLimits; }

  /// Stops the request: trips Cancelled. Thread-safe; irrevocable.
  void cancel() { trip(BudgetDimension::Cancelled); }

  /// Arms an absolute deadline; the budget trips Deadline once a poll
  /// sees it pass. A deadline at or before now trips at once (deadline_ms
  /// = 0 is the deterministic-timeout hook the service tests use). Arm
  /// before the request's work starts.
  void armDeadline(std::chrono::steady_clock::time_point When);
  /// Arms a deadline \p Ms milliseconds from now. One beyond the clock's
  /// range can never pass and is not armed.
  void armDeadlineAfterMs(uint64_t Ms);

  /// The poll: true once any dimension tripped. Sticky.
  bool exhausted() const {
    uint8_t S = State.load(std::memory_order_relaxed);
    if (S == 0)
      return false; // Untripped, no deadline armed.
    return (S & DimensionMask) != 0 || deadlineSampled();
  }
  /// Why the budget tripped (None while running), after the tie rule: a
  /// deadline that has passed is reported over a resource trip.
  BudgetDimension dimension() const;

  uint64_t states() const { return States.load(std::memory_order_relaxed); }
  uint64_t transitions() const {
    return Transitions.load(std::memory_order_relaxed);
  }
  uint64_t memoryBytes() const {
    return Bytes.load(std::memory_order_relaxed);
  }
  const ResourceLimits &limits() const { return Limits; }

  /// Human-readable diagnosis of the trip, e.g.
  /// "state budget exhausted (limit 1000, charged 1001)". Empty while the
  /// budget is intact.
  std::string describeExhaustion() const;

private:
  /// State packs the tripped dimension (low bits) with DeadlineArmed, so
  /// the unarmed poll is a single load.
  static constexpr uint8_t DimensionMask = 0x7f;
  static constexpr uint8_t DeadlineArmed = 0x80;

  /// Records \p D unless an earlier trip wins: resources never displace a
  /// trip, Cancelled/Deadline displace only a resource trip.
  void trip(BudgetDimension D) const;
  /// The armed-deadline poll: reads the clock once per PollsPerClockRead
  /// calls on this thread, tripping Deadline when it has passed.
  bool deadlineSampled() const;
  /// Reads the clock now; trips Deadline and returns true when passed.
  bool deadlinePassed() const;

  ResourceLimits Limits;
  std::atomic<uint64_t> States{0};
  std::atomic<uint64_t> Transitions{0};
  std::atomic<uint64_t> Bytes{0};
  std::atomic<int64_t> DeadlineNs{0};
  mutable std::atomic<uint8_t> State{0};
};

/// RAII installer of the calling thread's ambient budget. Nested guards
/// save and restore the previous ambient budget; installing nullptr
/// suspends governance for the scope. A request installs one guard; the
/// executor carries it into parallel bodies.
class ResourceGuard {
public:
  explicit ResourceGuard(ResourceBudget *Budget);
  ~ResourceGuard();

  ResourceGuard(const ResourceGuard &) = delete;
  ResourceGuard &operator=(const ResourceGuard &) = delete;

  /// The calling thread's ambient budget, or nullptr when ungoverned.
  static ResourceBudget *current();

  /// Ambient charge helpers for the kernels: no-ops (returning true) with
  /// no installed budget; otherwise charge and return "still running".
  /// Loop headers poll exhausted() and unwind when it turns true.
  static bool chargeStates(uint64_t N = 1);
  static bool chargeTransitions(uint64_t N = 1);
  static bool chargeMemory(uint64_t Bytes);
  static bool chargeMachine(uint64_t NumStates);
  static bool exhausted();

private:
  ResourceBudget *Previous;
};

/// Process-wide budget.* counters (registered with StatsRegistry; names in
/// docs/OBSERVABILITY.md). Charge totals aggregate over every budget in
/// the process; the request counters are bumped by the service front end.
struct BudgetStats {
  RelaxedCounter StatesCharged;
  RelaxedCounter TransitionsCharged;
  RelaxedCounter MemoryBytesCharged;
  /// Times any budget tripped on a resource (one per exhausted budget, not
  /// per charge; cancellations and deadlines do not count).
  RelaxedCounter BudgetsExhausted;
  /// Requests answered with `resource_exhausted`.
  RelaxedCounter RequestsExhausted;
  /// Requests shed with `overloaded` before scheduling.
  RelaxedCounter RequestsShed;
  /// Requests that declared themselves retries (a `retry` >= 1 param).
  RelaxedCounter RequestsRetried;

  static BudgetStats &global();
};

} // namespace dprle

#endif // DPRLE_SUPPORT_BUDGET_H
