//===- Budget.cpp - Per-request resource budgets ------------------------------//

#include "support/Budget.h"

#include <sstream>

using namespace dprle;

namespace {

/// Registers the budget.* section on load, mirroring OpStats/DecideStats.
struct RegisterBudgetStats {
  RegisterBudgetStats() {
    StatsRegistry &R = StatsRegistry::global();
    BudgetStats &S = BudgetStats::global();
    R.registerCounter("budget.states_charged", &S.StatesCharged);
    R.registerCounter("budget.transitions_charged", &S.TransitionsCharged);
    R.registerCounter("budget.memory_bytes_charged", &S.MemoryBytesCharged);
    R.registerCounter("budget.exhausted_total", &S.BudgetsExhausted);
    R.registerCounter("budget.requests_exhausted", &S.RequestsExhausted);
    R.registerCounter("budget.requests_shed", &S.RequestsShed);
    R.registerCounter("budget.requests_retried", &S.RequestsRetried);
  }
};
RegisterBudgetStats RegisterBudgetStatsInit;

thread_local ResourceBudget *AmbientBudget = nullptr;

} // namespace

const char *dprle::budgetDimensionName(BudgetDimension D) {
  switch (D) {
  case BudgetDimension::None:
    return "none";
  case BudgetDimension::States:
    return "states";
  case BudgetDimension::MachineStates:
    return "machine_states";
  case BudgetDimension::Transitions:
    return "transitions";
  case BudgetDimension::Memory:
    return "memory";
  case BudgetDimension::Cancelled:
    return "cancelled";
  case BudgetDimension::Deadline:
    return "deadline";
  }
  return "none";
}

BudgetStats &BudgetStats::global() {
  static BudgetStats Stats;
  return Stats;
}

void ResourceBudget::trip(BudgetDimension D) const {
  uint8_t Cur = State.load(std::memory_order_relaxed);
  for (;;) {
    auto Held = static_cast<BudgetDimension>(Cur & DimensionMask);
    bool Wins = Held == BudgetDimension::None ||
                (!isResourceDimension(D) && isResourceDimension(Held));
    if (!Wins)
      return;
    uint8_t Next = (Cur & DeadlineArmed) | static_cast<uint8_t>(D);
    if (State.compare_exchange_weak(Cur, Next, std::memory_order_relaxed))
      break;
  }
  if (isResourceDimension(D))
    BudgetStats::global().BudgetsExhausted++;
}

void ResourceBudget::armDeadline(std::chrono::steady_clock::time_point When) {
  DeadlineNs.store(When.time_since_epoch().count(),
                   std::memory_order_relaxed);
  State.fetch_or(DeadlineArmed, std::memory_order_relaxed);
  deadlinePassed();
}

void ResourceBudget::armDeadlineAfterMs(uint64_t Ms) {
  auto Now = std::chrono::steady_clock::now();
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::time_point::max() - Now);
  if (Ms < static_cast<uint64_t>(Left.count()))
    armDeadline(Now + std::chrono::milliseconds(Ms));
}

bool ResourceBudget::deadlinePassed() const {
  if (std::chrono::steady_clock::now().time_since_epoch().count() <
      DeadlineNs.load(std::memory_order_relaxed))
    return false;
  trip(BudgetDimension::Deadline);
  return true;
}

bool ResourceBudget::deadlineSampled() const {
  thread_local unsigned Countdown = 0;
  if (Countdown != 0) {
    --Countdown;
    return false;
  }
  Countdown = PollsPerClockRead - 1;
  return deadlinePassed();
}

BudgetDimension ResourceBudget::dimension() const {
  uint8_t S = State.load(std::memory_order_relaxed);
  auto D = static_cast<BudgetDimension>(S & DimensionMask);
  if ((S & DeadlineArmed) &&
      (D == BudgetDimension::None || isResourceDimension(D)))
    deadlinePassed();
  return static_cast<BudgetDimension>(State.load(std::memory_order_relaxed) &
                                      DimensionMask);
}

void ResourceBudget::chargeStates(uint64_t N) {
  BudgetStats::global().StatesCharged += N;
  uint64_t Total = States.fetch_add(N, std::memory_order_relaxed) + N;
  if (Limits.MaxStates && Total > Limits.MaxStates)
    trip(BudgetDimension::States);
  chargeMemory(N * BytesPerState);
}

void ResourceBudget::chargeTransitions(uint64_t N) {
  BudgetStats::global().TransitionsCharged += N;
  uint64_t Total = Transitions.fetch_add(N, std::memory_order_relaxed) + N;
  if (Limits.MaxTransitions && Total > Limits.MaxTransitions)
    trip(BudgetDimension::Transitions);
  chargeMemory(N * BytesPerTransition);
}

void ResourceBudget::chargeMemory(uint64_t ChargedBytes) {
  BudgetStats::global().MemoryBytesCharged += ChargedBytes;
  uint64_t Total = Bytes.fetch_add(ChargedBytes, std::memory_order_relaxed) +
                   ChargedBytes;
  if (Limits.MaxMemoryBytes && Total > Limits.MaxMemoryBytes)
    trip(BudgetDimension::Memory);
}

void ResourceBudget::noteMachineStates(uint64_t NumStates) {
  if (Limits.MaxStatesPerMachine && NumStates > Limits.MaxStatesPerMachine)
    trip(BudgetDimension::MachineStates);
}

std::string ResourceBudget::describeExhaustion() const {
  std::ostringstream Msg;
  switch (dimension()) {
  case BudgetDimension::None:
    return "";
  case BudgetDimension::States:
    Msg << "state budget exhausted (limit " << Limits.MaxStates
        << ", charged " << states() << ")";
    break;
  case BudgetDimension::MachineStates:
    Msg << "a machine grew past the per-machine state limit ("
        << Limits.MaxStatesPerMachine << ")";
    break;
  case BudgetDimension::Transitions:
    Msg << "transition budget exhausted (limit " << Limits.MaxTransitions
        << ", charged " << transitions() << ")";
    break;
  case BudgetDimension::Memory:
    Msg << "memory budget exhausted (limit " << Limits.MaxMemoryBytes
        << " bytes, charged ~" << memoryBytes() << ")";
    break;
  case BudgetDimension::Cancelled:
    return "request cancelled";
  case BudgetDimension::Deadline:
    return "deadline exceeded";
  }
  return Msg.str();
}

ResourceGuard::ResourceGuard(ResourceBudget *Budget)
    : Previous(AmbientBudget) {
  AmbientBudget = Budget;
}

ResourceGuard::~ResourceGuard() { AmbientBudget = Previous; }

ResourceBudget *ResourceGuard::current() { return AmbientBudget; }

bool ResourceGuard::chargeStates(uint64_t N) {
  ResourceBudget *B = AmbientBudget;
  if (!B)
    return true;
  B->chargeStates(N);
  return !B->exhausted();
}

bool ResourceGuard::chargeTransitions(uint64_t N) {
  ResourceBudget *B = AmbientBudget;
  if (!B)
    return true;
  B->chargeTransitions(N);
  return !B->exhausted();
}

bool ResourceGuard::chargeMemory(uint64_t Bytes) {
  ResourceBudget *B = AmbientBudget;
  if (!B)
    return true;
  B->chargeMemory(Bytes);
  return !B->exhausted();
}

bool ResourceGuard::chargeMachine(uint64_t NumStates) {
  ResourceBudget *B = AmbientBudget;
  if (!B)
    return true;
  B->noteMachineStates(NumStates);
  return !B->exhausted();
}

bool ResourceGuard::exhausted() {
  ResourceBudget *B = AmbientBudget;
  return B && B->exhausted();
}
