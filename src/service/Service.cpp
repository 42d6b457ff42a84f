//===- Service.cpp - Concurrent solving service -------------------------------//

#include "service/Service.h"

#include "automata/CsrNfa.h"
#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "automata/Serialize.h"
#include "solver/ConstraintParser.h"
#include "solver/Session.h"
#include "solver/Solver.h"
#include "support/Budget.h"
#include "support/FaultInjector.h"
#include "support/Stats.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <istream>
#include <mutex>
#include <new>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

using namespace dprle;
using namespace dprle::service;

namespace {

/// The "decide" stats section of a response: the process-wide decide.*
/// registry delta over the request window. Exact when Jobs = 1 (requests
/// run sequentially); approximate under concurrency (other requests'
/// queries land in the same window) — see docs/SERVICE.md.
Json decideDelta(const StatsRegistry::Snapshot &Before) {
  StatsRegistry::Snapshot After = StatsRegistry::global().snapshot();
  StatsRegistry::Snapshot Delta = StatsRegistry::delta(Before, After);
  Json Out = Json::object();
  for (const auto &[Name, Value] : Delta) {
    if (Name.rfind("decide.", 0) != 0)
      continue;
    Out[Name.substr(std::char_traits<char>::length("decide."))] = Value;
  }
  return Out;
}

/// Reads an optional unsigned param; false on type error.
bool readUnsigned(const Json &Params, const char *Name, uint64_t &Out,
                  bool &Present) {
  Present = false;
  const Json *V = Params.find(Name);
  if (!V)
    return true;
  if (!V->isNumber())
    return false;
  Out = V->asUnsigned();
  Present = true;
  return true;
}

/// Reads the optional max_solutions param into \p Out (0 when absent);
/// false, with \p Err set, unless it is a positive number.
bool readMaxSolutions(const Request &R, uint64_t &Out, Json &Err) {
  bool Present = false;
  Out = 0;
  if (readUnsigned(R.Params, "max_solutions", Out, Present) &&
      (!Present || Out != 0))
    return true;
  Err = makeError(R.Id, ErrorCode::InvalidParams,
                  "\"max_solutions\" must be a positive number");
  return false;
}

/// invalid_params messages shared by solve and the session verbs.
const char *const ConstraintsNotAString =
    "\"constraints\" must be a string of constraint syntax (see "
    "docs/SERVICE.md)";

Json constraintParseError(const Json &Id, size_t Line,
                          const std::string &Error) {
  return makeError(Id, ErrorCode::InvalidParams,
                   "constraint parse error at line " + std::to_string(Line) +
                       ": " + Error);
}

/// The answer to a request whose budget tripped: `cancelled`, `timeout`
/// (the budget's tie rule reports either over a resource trip), or
/// `resource_exhausted` naming the breached dimension so clients can tell
/// "raise max_states" apart from "raise max_memory_bytes".
Json interruptError(const Json &Id, const ResourceBudget &Budget) {
  BudgetDimension D = Budget.dimension();
  if (D == BudgetDimension::Cancelled)
    return makeError(Id, ErrorCode::Cancelled, "request cancelled");
  if (D == BudgetDimension::Deadline)
    return makeError(Id, ErrorCode::Timeout, "deadline exceeded");
  ++BudgetStats::global().RequestsExhausted;
  Json Details = Json::object();
  Details["dimension"] = budgetDimensionName(D);
  std::string Message = Budget.describeExhaustion();
  if (Message.empty())
    Message = "request resource budget exhausted";
  return makeError(Id, ErrorCode::ResourceExhausted, Message, Details);
}

/// The result of solve and session_check: the verdict, every assignment
/// rendered as regex text plus a witness per variable (through the render
/// memo, solver/Solution.h), and the per-request solver and decide stats.
/// Rendering runs under the request's ambient budget; false when it
/// tripped, leaving \p Result partial.
bool renderSolveResult(const Problem &P, const SolveResult &SR,
                       const StatsRegistry::Snapshot &Before, Json &Result) {
  Result["satisfiable"] = SR.Satisfiable;
  Json Assignments = Json::array();
  for (const Assignment &A : SR.Assignments) {
    Json Obj = Json::object();
    for (VarId V = 0; V != P.numVariables(); ++V) {
      RenderedLanguage Text = renderLanguage(A.language(V));
      if (ResourceGuard::exhausted())
        return false;
      Json Var = Json::object();
      Var["regex"] = std::move(Text.Regex);
      if (Text.Witness)
        Var["witness"] = std::move(*Text.Witness);
      Obj[P.variableName(V)] = std::move(Var);
    }
    Assignments.push(std::move(Obj));
  }
  Result["assignments"] = std::move(Assignments);

  Json SolverSection = Json::object();
  for (const auto &[Name, Value] : SR.Stats.counters())
    SolverSection[Name] = Value;
  SolverSection["solve_seconds"] = SR.Stats.SolveSeconds;
  Result["solver"] = std::move(SolverSection);
  Result["decide"] = decideDelta(Before);
  return true;
}

/// Sets \p Budget's limits to the effective per-request caps: the server
/// caps, lowered (never raised) by the request's max_states /
/// max_transitions / max_memory_bytes params. MaxNfaStates doubles as the
/// per-machine cap so intermediate products obey the same bound as
/// request operands. False on an ill-typed param, with \p Err set.
bool applyRequestLimits(const ServiceOptions &Opts, const Request &R,
                        ResourceBudget &Budget, Json &Err) {
  ResourceLimits Limits;
  struct Knob {
    const char *Name;
    uint64_t Cap;
    uint64_t *Out;
  } Knobs[] = {
      {"max_states", Opts.MaxStatesBudget, &Limits.MaxStates},
      {"max_transitions", Opts.MaxTransitionsBudget, &Limits.MaxTransitions},
      {"max_memory_bytes", Opts.MaxMemoryBytes, &Limits.MaxMemoryBytes},
  };
  for (const Knob &K : Knobs) {
    uint64_t Value = 0;
    bool Present = false;
    if (!readUnsigned(R.Params, K.Name, Value, Present) ||
        (Present && Value == 0)) {
      Err = makeError(R.Id, ErrorCode::InvalidParams,
                      std::string("\"") + K.Name +
                          "\" must be a positive number");
      return false;
    }
    if (!Present)
      *K.Out = K.Cap;
    else if (K.Cap == 0)
      *K.Out = Value;
    else
      *K.Out = std::min(K.Cap, Value);
  }
  Limits.MaxStatesPerMachine = Opts.MaxNfaStates;
  Budget.setLimits(Limits);
  return true;
}

/// Reads the required "session" id param; false (with \p Err set) when
/// missing or ill-typed.
bool readSessionId(const Request &R, std::string &Id, Json &Err) {
  const Json *Sid = R.Params.find("session");
  if (!Sid || !Sid->isString() || Sid->asString().empty()) {
    Err = makeError(R.Id, ErrorCode::InvalidParams,
                    "\"session\" must be a non-empty session id string");
    return false;
  }
  Id = Sid->asString();
  return true;
}

Json sessionLostError(const Json &Id, const std::string &Session) {
  ++SessionStats::global().Lost;
  return makeError(Id, ErrorCode::SessionLost,
                   "unknown session \"" + Session +
                       "\" (never opened, closed, evicted, or lost to a "
                       "shard restart); open a new session and replay");
}

} // namespace

/// One open session: the solver session plus the bookkeeping the service
/// needs. M serializes verbs on this session; everything below it is
/// guarded by the service's SessionsMutex (not M): the idle-eviction
/// stamp and the journal's op mirror — the textual open/push trajectory
/// that compaction snapshots and replay re-runs.
struct SolverService::SessionEntry {
  std::mutex M;
  std::unique_ptr<SolverSession> S;
  uint64_t LastUsedMs = 0;
  std::string BaseText;
  uint64_t MaxSolutionsParam = 0;
  std::vector<std::string> FrameTexts;
  /// Rebuilt by journal replay after a crash; reported as
  /// `recovered: true` on the next session_check, then cleared. Set
  /// during single-threaded construction, then guarded by M (checks
  /// serialize on it), unlike the SessionsMutex fields above.
  bool Recovered = false;
};

SolverService::SolverService(const ServiceOptions &Opts)
    : Opts(Opts), Pool(Opts.Jobs == 0 ? 1 : Opts.Jobs) {
  StartMs = clock().nowMs();
  if (!this->Opts.JournalPath.empty())
    recoverFromJournal();
}

void SolverService::recoverFromJournal() {
  // Constructor-only: single-threaded, no locks needed. Replay first so
  // an open() failure (read-only dir, ...) still recovers sessions — the
  // service just runs without further durability.
  Journal::Options JO;
  JO.Path = Opts.JournalPath;
  JO.Fsync = Opts.JournalFsync;
  JO.CompactBytes = Opts.JournalCompactBytes;
  Jrnl = std::make_unique<Journal>(JO);

  uint64_t Bad = 0;
  std::vector<JournalRecord> Records =
      Journal::replay(Opts.JournalPath, &Bad);
  std::string Err;
  if (!Jrnl->open(&Err))
    Jrnl.reset();
  if (Records.empty())
    return;
  ++RecoveryStats::global().Replays;

  // Re-run the op trajectory. Solving is deterministic, so the rebuilt
  // sessions answer bit-identically to an uninterrupted run — only the
  // warm caches are cold. A record that no longer applies (parse drift,
  // pop of an empty stack, a parse that trips its budget) drops its whole
  // session: clients get an honest session_lost, never a half-applied
  // state.
  std::set<std::string> Failed;
  auto failSession = [&](const std::string &Id) {
    Sessions.erase(Id);
    Failed.insert(Id);
    ++RecoveryStats::global().FailedSessions;
  };
  // Each replayed open and push parses under the budget a live verb
  // without params gets: the server caps and the default deadline.
  const Request NoParams;
  auto underLiveBudget = [&](auto Apply) {
    ResourceBudget Budget;
    Json Unused;
    applyRequestLimits(Opts, NoParams, Budget, Unused);
    if (Opts.DefaultDeadlineMs != 0)
      Budget.armDeadlineAfterMs(Opts.DefaultDeadlineMs);
    ResourceGuard Guard(&Budget);
    return Apply();
  };
  for (const JournalRecord &Rec : Records) {
    if (Failed.count(Rec.Session))
      continue;
    if (Rec.Op == "open") {
      auto Entry = std::make_shared<SessionEntry>();
      Entry->S =
          std::make_unique<SolverSession>(solverOptions(Rec.MaxSolutions));
      if (!Rec.Constraints.empty() && !underLiveBudget([&] {
            return Entry->S->assertText(Rec.Constraints);
          })) {
        failSession(Rec.Session);
        continue;
      }
      Entry->BaseText = Rec.Constraints;
      Entry->MaxSolutionsParam = Rec.MaxSolutions;
      Entry->LastUsedMs = clock().nowMs();
      Entry->Recovered = true;
      Sessions[Rec.Session] = std::move(Entry);
    } else if (Rec.Op == "push") {
      auto It = Sessions.find(Rec.Session);
      if (It == Sessions.end() || !underLiveBudget([&] {
            return It->second->S->push(Rec.Constraints);
          })) {
        failSession(Rec.Session);
        continue;
      }
      It->second->FrameTexts.push_back(Rec.Constraints);
    } else if (Rec.Op == "pop") {
      auto It = Sessions.find(Rec.Session);
      if (It == Sessions.end() || !It->second->S->pop()) {
        failSession(Rec.Session);
        continue;
      }
      It->second->FrameTexts.pop_back();
    } else if (Rec.Op == "close") {
      Sessions.erase(Rec.Session);
    }
  }
  RecoveryStats::global().SessionsRecovered +=
      static_cast<uint64_t>(Sessions.size());

  // Advance the id coiner past every recovered service-coined id so new
  // opens cannot collide with replayed sessions.
  for (const auto &[Id, E] : Sessions) {
    (void)E;
    if (Id.size() < 2 || Id[0] != 's')
      continue;
    char *End = nullptr;
    unsigned long long N = std::strtoull(Id.c_str() + 1, &End, 10);
    if (End && *End == '\0' && N >= NextSessionId)
      NextSessionId = N + 1;
  }

  // Compact immediately: the journal now restarts from a snapshot of
  // what actually survived, and repeated crash/replay cycles stay O(live
  // state), not O(history).
  if (Jrnl)
    compactJournalLocked();
}

void SolverService::compactJournalLocked() {
  std::vector<JournalRecord> Snap;
  for (const auto &[Id, E] : Sessions) {
    Snap.push_back({"open", Id, E->BaseText, E->MaxSolutionsParam});
    for (const std::string &Frame : E->FrameTexts)
      Snap.push_back({"push", Id, Frame, 0});
  }
  Jrnl->rewrite(Snap);
}

void SolverService::journalAppendLocked(const JournalRecord &Rec) {
  if (!Jrnl)
    return;
  Jrnl->append(Rec);
  if (Jrnl->needsCompaction())
    compactJournalLocked();
}

void SolverService::flushJournal() {
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  if (Jrnl)
    Jrnl->sync();
}

Json SolverService::handleLine(const std::string &Line,
                               ResourceBudget *External) {
  RequestParse P = parseRequest(Line);
  if (!P.ok())
    return makeError(P.Id, P.Code, P.Message);
  return handleRequest(*P.Req, External);
}

Json SolverService::handleRequest(const Request &R,
                                  ResourceBudget *External) {
  // Register in the in-flight table for health.inflight: the supervisor
  // hang watchdog keys off the oldest in-flight age to tell "busy" from
  // "wedged". Scope-exit removal so error paths unregister too.
  uint64_t InflightId;
  {
    std::lock_guard<std::mutex> Lock(InflightMutex);
    InflightId = NextInflightId++;
    Inflight.emplace(InflightId, clock().nowMs());
  }
  struct InflightScope {
    SolverService &Svc;
    uint64_t Id;
    ~InflightScope() {
      std::lock_guard<std::mutex> Lock(Svc.InflightMutex);
      Svc.Inflight.erase(Id);
    }
  } Scope{*this, InflightId};

  // The catch-all keeps one failing request from taking down the service:
  // whatever escapes the handlers — an allocation failure, an injected
  // fault — becomes a structured internal_error and the worker survives.
  try {
    ResourceBudget Local;
    ResourceBudget &Budget = External ? *External : Local;

    // Arm the deadline when the job starts: an explicit deadline_ms param
    // (0 is valid and expires immediately — the deterministic-timeout test
    // hook) overrides the service default (where 0 means "none").
    uint64_t DeadlineMs = 0;
    bool HasParam = false;
    if (!readUnsigned(R.Params, "deadline_ms", DeadlineMs, HasParam))
      return makeError(R.Id, ErrorCode::InvalidParams,
                       "\"deadline_ms\" must be a number");
    if (FaultInjector::global().shouldFail("cancel.arm"))
      throw std::runtime_error("injected fault: deadline arming failed");
    if (HasParam)
      Budget.armDeadlineAfterMs(DeadlineMs);
    else if (Opts.DefaultDeadlineMs != 0)
      Budget.armDeadlineAfterMs(Opts.DefaultDeadlineMs);

    // Clients resending after an `overloaded` shed mark the attempt with
    // retry >= 1; the counter sizes how much work backpressure recycles.
    uint64_t Retry = 0;
    bool HasRetry = false;
    if (!readUnsigned(R.Params, "retry", Retry, HasRetry))
      return makeError(R.Id, ErrorCode::InvalidParams,
                       "\"retry\" must be a number");
    if (HasRetry && Retry > 0)
      ++BudgetStats::global().RequestsRetried;

    return dispatch(R, Budget);
  } catch (const std::bad_alloc &) {
    return makeError(R.Id, ErrorCode::InternalError,
                     "out of memory while serving the request");
  } catch (const std::exception &E) {
    return makeError(R.Id, ErrorCode::InternalError,
                     std::string("internal error: ") + E.what());
  }
}

Json SolverService::dispatch(const Request &R, ResourceBudget &Budget) {
  if (R.Method == "ping") {
    Json Result = Json::object();
    Result["pong"] = true;
    return makeResult(R.Id, std::move(Result));
  }
  if (R.Method == "stats")
    return makeResult(R.Id, doStats());
  if (R.Method == "health")
    return makeResult(R.Id, doHealth());
  if (R.Method == "solve")
    return doSolve(R, Budget);
  if (R.Method == "decide")
    return doDecide(R, Budget);
  if (R.Method == "session_open")
    return doSessionOpen(R, Budget);
  if (R.Method == "session_push")
    return doSessionPush(R, Budget);
  if (R.Method == "session_pop")
    return doSessionPop(R);
  if (R.Method == "session_check")
    return doSessionCheck(R, Budget);
  if (R.Method == "session_close")
    return doSessionClose(R);
  if (R.Method == "shutdown") {
    // serve() intercepts shutdown before scheduling; answering here keeps
    // the synchronous (test) entry points total.
    Json Result = Json::object();
    Result["shutting_down"] = true;
    return makeResult(R.Id, std::move(Result));
  }
  return makeError(R.Id, ErrorCode::UnknownMethod,
                   "unknown method \"" + R.Method + "\"");
}

SolverOptions SolverService::solverOptions(uint64_t MaxSolutions) {
  SolverOptions SOpts;
  if (MaxSolutions != 0)
    SOpts.MaxSolutions = MaxSolutions;
  SOpts.Jobs = Opts.Jobs;
  SOpts.Exec = Opts.Jobs > 1 ? &Pool : nullptr;
  return SOpts;
}

Json SolverService::doSolve(const Request &R, ResourceBudget &Budget) {
  const Json *Text = R.Params.find("constraints");
  if (!Text || !Text->isString())
    return makeError(R.Id, ErrorCode::InvalidParams, ConstraintsNotAString);
  uint64_t MaxSolutions = 0;
  Json Err;
  if (!readMaxSolutions(R, MaxSolutions, Err))
    return Err;

  // Undocumented test hook: sleep this long *without* polling the
  // request budget, simulating a solver wedged past cooperative
  // cancellation — the failure mode the supervisor hang watchdog exists
  // to break (docs/ROBUSTNESS.md).
  uint64_t HangMs = 0;
  bool HasHang = false;
  if (!readUnsigned(R.Params, "debug_hang_ms", HangMs, HasHang))
    return makeError(R.Id, ErrorCode::InvalidParams,
                     "\"debug_hang_ms\" must be a number");
  if (HasHang)
    std::this_thread::sleep_for(std::chrono::milliseconds(HangMs));

  if (!applyRequestLimits(Opts, R, Budget, Err))
    return Err;

  // One governed scope: parsing (whose & and ~ determinize), the solve and
  // the render all obey the request's caps, deadline and cancel flag.
  ResourceGuard Guard(&Budget);
  ConstraintParseResult Parsed = parseConstraintText(Text->asString());
  if (!Parsed.Ok)
    return constraintParseError(R.Id, Parsed.ErrorLine, Parsed.Error);

  StatsRegistry::Snapshot Before = StatsRegistry::global().snapshot();
  SolveResult SR = Solver(solverOptions(MaxSolutions)).solve(Parsed.Instance);
  Json Result = Json::object();
  if (SR.Interrupted ||
      !renderSolveResult(Parsed.Instance, SR, Before, Result))
    return interruptError(R.Id, Budget);
  return makeResult(R.Id, std::move(Result));
}

Json SolverService::doDecide(const Request &R, ResourceBudget &Budget) {
  const Json *Query = R.Params.find("query");
  if (!Query || !Query->isString())
    return makeError(R.Id, ErrorCode::InvalidParams,
                     "\"query\" must be one of subset, "
                     "empty-intersection, equivalent, empty");
  const std::string &Q = Query->asString();
  bool Binary = Q != "empty";
  if (Q != "subset" && Q != "empty-intersection" && Q != "equivalent" &&
      Q != "empty")
    return makeError(R.Id, ErrorCode::InvalidParams,
                     "unknown query \"" + Q + "\"");

  auto LoadMachine = [&](const char *Name, Nfa &Out,
                         Json &Err) -> bool {
    const Json *Text = R.Params.find(Name);
    if (!Text || !Text->isString()) {
      Err = makeError(R.Id, ErrorCode::InvalidParams,
                      std::string("\"") + Name +
                          "\" must be a serialized NFA string");
      return false;
    }
    NfaParseResult Parsed = parseNfa(Text->asString());
    if (!Parsed.ok()) {
      std::ostringstream Msg;
      Msg << "\"" << Name << "\" parse error at line " << Parsed.ErrorLine
          << ": " << Parsed.Error;
      Err = makeError(R.Id, ErrorCode::InvalidParams, Msg.str());
      return false;
    }
    if (Opts.MaxNfaStates && Parsed.Machine->numStates() > Opts.MaxNfaStates) {
      std::ostringstream Msg;
      Msg << "\"" << Name << "\" has " << Parsed.Machine->numStates()
          << " states; the service limit is " << Opts.MaxNfaStates
          << " (--max-states)";
      Err = makeError(R.Id, ErrorCode::OversizedMachine, Msg.str());
      return false;
    }
    Out = std::move(*Parsed.Machine);
    return true;
  };

  Json Err;
  if (!applyRequestLimits(Opts, R, Budget, Err))
    return Err;

  // Parsing and the query run under the request budget; an interrupted
  // query unwinds with a truncated (meaningless) answer, discarded below.
  ResourceGuard Guard(&Budget);
  Nfa Lhs, Rhs;
  if (!LoadMachine("lhs", Lhs, Err))
    return Err;
  if (Binary && !LoadMachine("rhs", Rhs, Err))
    return Err;

  StatsRegistry::Snapshot Before = StatsRegistry::global().snapshot();
  bool Answer;
  if (Q == "subset")
    Answer = subsetOf(Lhs, Rhs);
  else if (Q == "empty-intersection")
    Answer = emptyIntersection(Lhs, Rhs);
  else if (Q == "equivalent")
    Answer = equivalentTo(Lhs, Rhs);
  else
    Answer = isEmpty(Lhs);
  if (Budget.exhausted())
    return interruptError(R.Id, Budget);

  Json Result = Json::object();
  Result["query"] = Q;
  Result["answer"] = Answer;
  Result["decide"] = decideDelta(Before);
  return makeResult(R.Id, std::move(Result));
}

//===----------------------------------------------------------------------===//
// Session verbs (docs/SESSIONS.md)
//===----------------------------------------------------------------------===//

void SolverService::evictIdleSessions() {
  if (Opts.SessionIdleTimeoutMs == 0)
    return;
  uint64_t NowMs = clock().nowMs();
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  for (auto It = Sessions.begin(); It != Sessions.end();) {
    // Held past the erase below, so the entry's mutex outlives EntryLock.
    std::shared_ptr<SessionEntry> E = It->second;
    // try_lock: a session with a verb in flight is not idle, and evicting
    // it mid-check would pull the solver's state out from under it.
    std::unique_lock<std::mutex> EntryLock(E->M, std::try_to_lock);
    if (EntryLock.owns_lock() &&
        NowMs - E->LastUsedMs >= Opts.SessionIdleTimeoutMs) {
      ++SessionStats::global().Evicted;
      // Erase before journaling the close: if the append triggers
      // compaction, the snapshot must no longer contain this session.
      std::string Id = It->first;
      It = Sessions.erase(It);
      journalAppendLocked({"close", Id, "", 0});
    } else {
      ++It;
    }
  }
}

std::shared_ptr<SolverService::SessionEntry>
SolverService::findSession(const std::string &Id) {
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  auto It = Sessions.find(Id);
  if (It == Sessions.end())
    return nullptr;
  It->second->LastUsedMs = clock().nowMs();
  return It->second;
}

Json SolverService::doSessionOpen(const Request &R, ResourceBudget &Budget) {
  evictIdleSessions();

  // The client may pick the id (mandatory behind a sharded router, which
  // pins session verbs to a shard by it); otherwise the service coins one.
  std::string Id;
  if (const Json *Sid = R.Params.find("session")) {
    if (!Sid->isString() || Sid->asString().empty())
      return makeError(R.Id, ErrorCode::InvalidParams,
                       "\"session\" must be a non-empty session id string");
    Id = Sid->asString();
  }

  uint64_t MaxSolutions = 0;
  Json Err;
  if (!readMaxSolutions(R, MaxSolutions, Err))
    return Err;
  const Json *Text = R.Params.find("constraints");
  if (Text && !Text->isString())
    return makeError(R.Id, ErrorCode::InvalidParams, ConstraintsNotAString);
  if (!applyRequestLimits(Opts, R, Budget, Err))
    return Err;

  auto Entry = std::make_shared<SessionEntry>();
  Entry->S = std::make_unique<SolverSession>(solverOptions(MaxSolutions));
  Entry->LastUsedMs = clock().nowMs();
  if (Text) {
    // The base parse (whose & and ~ determinize) obeys the request's
    // budget; a trip opens no session and journals nothing.
    ResourceGuard Guard(&Budget);
    std::string Error;
    size_t Line = 0;
    if (!Entry->S->assertText(Text->asString(), &Error, &Line))
      return Budget.exhausted() ? interruptError(R.Id, Budget)
                                : constraintParseError(R.Id, Line, Error);
    Entry->BaseText = Text->asString();
  }
  Entry->MaxSolutionsParam = MaxSolutions;

  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    if (Id.empty())
      Id = "s" + std::to_string(NextSessionId++);
    else if (Sessions.count(Id))
      return makeError(R.Id, ErrorCode::InvalidParams,
                       "session \"" + Id + "\" is already open");
    if (Opts.MaxSessions != 0 && Sessions.size() >= Opts.MaxSessions) {
      Json Details = Json::object();
      Details["retry_after_ms"] = Opts.RetryAfterMsHint;
      return makeError(R.Id, ErrorCode::Overloaded,
                       "session table full; close or retry after backoff",
                       Details);
    }
    JournalRecord Rec{"open", Id, Entry->BaseText, Entry->MaxSolutionsParam};
    Sessions.emplace(Id, std::move(Entry));
    journalAppendLocked(Rec);
  }
  ++SessionStats::global().Opened;

  Json Result = Json::object();
  Result["session"] = Id;
  Result["depth"] = uint64_t(0);
  return makeResult(R.Id, std::move(Result));
}

Json SolverService::doSessionPush(const Request &R, ResourceBudget &Budget) {
  std::string Id;
  Json Err;
  if (!readSessionId(R, Id, Err))
    return Err;
  const Json *Text = R.Params.find("constraints");
  if (!Text || !Text->isString())
    return makeError(R.Id, ErrorCode::InvalidParams, ConstraintsNotAString);
  if (!applyRequestLimits(Opts, R, Budget, Err))
    return Err;
  std::shared_ptr<SessionEntry> E = findSession(Id);
  if (!E)
    return sessionLostError(R.Id, Id);
  std::lock_guard<std::mutex> Lock(E->M);
  std::string Error;
  size_t Line = 0;
  {
    // The delta's parse obeys the request's budget; a trip leaves the
    // session as it was and journals nothing.
    ResourceGuard Guard(&Budget);
    if (!E->S->push(Text->asString(), &Error, &Line))
      return Budget.exhausted() ? interruptError(R.Id, Budget)
                                : constraintParseError(R.Id, Line, Error);
  }
  {
    // E->M then SessionsMutex — the one nesting order (eviction's
    // SessionsMutex-then-try_lock(E->M) cannot deadlock against it).
    std::lock_guard<std::mutex> JLock(SessionsMutex);
    E->FrameTexts.push_back(Text->asString());
    journalAppendLocked({"push", Id, Text->asString(), 0});
  }
  Json Result = Json::object();
  Result["depth"] = static_cast<uint64_t>(E->S->depth());
  return makeResult(R.Id, std::move(Result));
}

Json SolverService::doSessionPop(const Request &R) {
  std::string Id;
  Json Err;
  if (!readSessionId(R, Id, Err))
    return Err;
  std::shared_ptr<SessionEntry> E = findSession(Id);
  if (!E)
    return sessionLostError(R.Id, Id);
  std::lock_guard<std::mutex> Lock(E->M);
  if (!E->S->pop())
    return makeError(R.Id, ErrorCode::InvalidParams,
                     "session \"" + Id + "\" has no frame to pop");
  {
    std::lock_guard<std::mutex> JLock(SessionsMutex);
    if (!E->FrameTexts.empty())
      E->FrameTexts.pop_back();
    journalAppendLocked({"pop", Id, "", 0});
  }
  Json Result = Json::object();
  Result["depth"] = static_cast<uint64_t>(E->S->depth());
  return makeResult(R.Id, std::move(Result));
}

Json SolverService::doSessionCheck(const Request &R, ResourceBudget &Budget) {
  std::string Id;
  Json Err;
  if (!readSessionId(R, Id, Err))
    return Err;
  uint64_t MaxSolutions = 0;
  if (!readMaxSolutions(R, MaxSolutions, Err) ||
      !applyRequestLimits(Opts, R, Budget, Err))
    return Err;

  std::shared_ptr<SessionEntry> E = findSession(Id);
  if (!E)
    return sessionLostError(R.Id, Id);
  std::lock_guard<std::mutex> Lock(E->M);

  SessionCheckOptions CO;
  CO.MaxSolutions = MaxSolutions;

  // The check and the render obey the request's budget.
  ResourceGuard Guard(&Budget);
  StatsRegistry::Snapshot Before = StatsRegistry::global().snapshot();
  SolveResult SR = E->S->check(CO);
  // Same response shape as solve, plus the "session" reuse section.
  Json Result = Json::object();
  if (SR.Interrupted || !renderSolveResult(E->S->problem(), SR, Before, Result))
    return interruptError(R.Id, Budget);

  const SessionCheckInfo &Info = E->S->lastCheckInfo();
  Json Session = Json::object();
  Session["depth"] = static_cast<uint64_t>(E->S->depth());
  Session["incremental"] = Info.Incremental;
  Session["groups_total"] = Info.GroupsTotal;
  Session["groups_reused"] = Info.GroupsReused;
  Session["dirty_groups"] = Info.DirtyGroups;
  Session["dirty_constraints"] = Info.DirtyConstraints;
  Session["constants_reused"] = Info.ConstantsReused;
  Session["free_vars_total"] = Info.FreeVarsTotal;
  Session["free_vars_reused"] = Info.FreeVarsReused;
  Session["subset_checks_reused"] = Info.SubsetChecksReused;
  // One-shot recovery annotation (docs/SESSIONS.md): the first check
  // after a journal-replay rebuild tells the client its session survived
  // a crash — same verdicts, cold caches — instead of session_lost.
  if (E->Recovered) {
    Session["recovered"] = true;
    E->Recovered = false;
  }
  Result["session"] = std::move(Session);
  return makeResult(R.Id, std::move(Result));
}

Json SolverService::doSessionClose(const Request &R) {
  std::string Id;
  Json Err;
  if (!readSessionId(R, Id, Err))
    return Err;
  std::shared_ptr<SessionEntry> E;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    auto It = Sessions.find(Id);
    if (It == Sessions.end())
      return sessionLostError(R.Id, Id);
    E = std::move(It->second);
    Sessions.erase(It);
    journalAppendLocked({"close", Id, "", 0});
  }
  // Wait out any in-flight verb so the close response means "state gone".
  std::lock_guard<std::mutex> Lock(E->M);
  ++SessionStats::global().Closed;
  Json Result = Json::object();
  Result["closed"] = true;
  return makeResult(R.Id, std::move(Result));
}

Json SolverService::doStats() const {
  Json Out = Json::object();
  Json Counters = Json::object();
  for (const auto &[Name, Value] : StatsRegistry::global().snapshot())
    Counters[Name] = Value;
  Out["counters"] = std::move(Counters);
  Json Cache = Json::object();
  Cache["enabled"] = DecisionCache::global().enabled();
  Cache["machines"] =
      static_cast<uint64_t>(DecisionCache::global().numMachines());
  Cache["answers"] =
      static_cast<uint64_t>(DecisionCache::global().numAnswers());
  Out["decision_cache"] = std::move(Cache);
  // The minimize memo table shares the decision cache's structural-
  // encoding keys; minimize.* hit/miss counters live in "counters".
  Json Mini = Json::object();
  Mini["enabled"] = minimizeCacheEnabled();
  Mini["machines"] = static_cast<uint64_t>(minimizeCacheSize());
  Out["minimize_cache"] = std::move(Mini);
  // Incremental sessions (docs/SESSIONS.md); session.* counters (opens,
  // checks, group reuse, ...) live in "counters".
  Json Sess = Json::object();
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    Sess["open"] = static_cast<uint64_t>(Sessions.size());
  }
  Sess["idle_timeout_ms"] = Opts.SessionIdleTimeoutMs;
  Sess["max_sessions"] = static_cast<uint64_t>(Opts.MaxSessions);
  Out["sessions"] = std::move(Sess);
  // CSR kernel-view cache health: a healthy pipeline reuses views far more
  // often than it builds them (machines are queried many times between
  // mutations). Builds/reuses also live in "counters"; reuse_rate is the
  // derived signal operators actually watch.
  Json Csr = Json::object();
  uint64_t CsrBuilds = CsrStats::global().Builds.get();
  uint64_t CsrReuses = CsrStats::global().Reuses.get();
  Csr["builds"] = CsrBuilds;
  Csr["reuses"] = CsrReuses;
  Csr["reuse_rate"] = CsrBuilds + CsrReuses == 0
                          ? 0.0
                          : double(CsrReuses) / double(CsrBuilds + CsrReuses);
  Csr["minterm_classes"] = CsrStats::global().MintermClasses.get();
  Out["csr"] = std::move(Csr);
  Out["jobs"] = Opts.Jobs;
  Out["queue_depth"] = static_cast<uint64_t>(Pool.queueDepth());
  Json Governance = Json::object();
  Governance["max_states"] = Opts.MaxStatesBudget;
  Governance["max_transitions"] = Opts.MaxTransitionsBudget;
  Governance["max_memory_bytes"] = Opts.MaxMemoryBytes;
  Governance["max_machine_states"] = static_cast<uint64_t>(Opts.MaxNfaStates);
  Governance["max_queue_depth"] = static_cast<uint64_t>(Opts.MaxQueueDepth);
  Out["budgets"] = std::move(Governance);
  // Session durability (docs/ROBUSTNESS.md); journal.*/recovery.*
  // counters live in "counters", this section is this instance's file.
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    Json Jn = journalSectionLocked();
    if (Jrnl)
      Jn["fsync"] = Jrnl->options().Fsync;
    Out["journal"] = std::move(Jn);
  }
  return Out;
}

Json SolverService::journalSectionLocked() const {
  Json Jn = Json::object();
  Jn["enabled"] = static_cast<bool>(Jrnl);
  if (Jrnl) {
    Jn["bytes"] = Jrnl->bytes();
    Jn["records"] = Jrnl->records();
    Jn["compactions"] = Jrnl->compactions();
    Jn["lag_records"] = Jrnl->lagRecords();
  }
  return Jn;
}

Json SolverService::doHealth() const {
  uint64_t NowMs = clock().nowMs();
  Json Out = Json::object();
  Out["healthy"] = true;
  Out["uptime_ms"] = NowMs - StartMs;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    Out["sessions"] = static_cast<uint64_t>(Sessions.size());
    Out["journal"] = journalSectionLocked();
  }
  Json Infl = Json::object();
  {
    std::lock_guard<std::mutex> Lock(InflightMutex);
    // The health request itself is in the table; don't report it as work.
    uint64_t Count = Inflight.empty() ? 0 : Inflight.size() - 1;
    uint64_t OldestMs = 0;
    for (const auto &[Id, StartedMs] : Inflight) {
      (void)Id;
      uint64_t Age = NowMs >= StartedMs ? NowMs - StartedMs : 0;
      if (Age > OldestMs)
        OldestMs = Age;
    }
    Infl["count"] = Count;
    Infl["oldest_ms"] = OldestMs;
  }
  Out["inflight"] = std::move(Infl);
  return Out;
}

LineHandler::Submit SolverService::submitLine(const std::string &Line,
                                              ResponseFn Respond) {
  RequestParse P = parseRequest(Line);
  if (!P.ok()) {
    // Malformed requests are answered inline — there is no job to
    // schedule, and the transport's reader must keep reading.
    Respond(makeError(P.Id, P.Code, P.Message));
    return Submit::Accepted;
  }
  if (P.Req->Method == "shutdown") {
    // Drain in-flight requests so every accepted request is answered,
    // then acknowledge; the transport stops reading.
    Pool.waitIdle();
    Respond(handleRequest(*P.Req));
    return Submit::Shutdown;
  }
  if (P.Req->Method == "health") {
    // Liveness probes answer inline on the reader thread, never queued:
    // a wedged pool must still report its in-flight ages — that report
    // is exactly how the supervisor watchdog distinguishes busy from
    // hung (docs/ROBUSTNESS.md).
    Respond(handleRequest(*P.Req));
    return Submit::Accepted;
  }
  // Admission control: a full queue sheds the request with a
  // machine-readable retry hint instead of growing without bound.
  // Pings are exempt — health probes must answer even under load.
  bool QueueFull = Opts.MaxQueueDepth != 0 &&
                   Pool.queueDepth() >= Opts.MaxQueueDepth &&
                   P.Req->Method != "ping";
  if (QueueFull || FaultInjector::global().shouldFail("queue.submit")) {
    ++BudgetStats::global().RequestsShed;
    Json Details = Json::object();
    Details["retry_after_ms"] = Opts.RetryAfterMsHint;
    Respond(makeError(P.Req->Id, ErrorCode::Overloaded,
                      "service overloaded; retry after backoff", Details));
    return Submit::Accepted;
  }
  Pool.submit(
      [this, Req = std::move(*P.Req), Respond = std::move(Respond)] {
        Respond(handleRequest(Req));
      });
  return Submit::Accepted;
}

void SolverService::drain() {
  Pool.waitIdle();
  // Graceful stops (shutdown verb, SIGTERM drain) must leave the journal
  // durable: one fsync after the last acknowledged op.
  flushJournal();
}

int dprle::service::serveStreams(LineHandler &Handler, std::istream &In,
                                 std::ostream &Out) {
  std::mutex OutMutex;
  auto Respond = [&](const Json &Resp) {
    std::lock_guard<std::mutex> Lock(OutMutex);
    if (FaultInjector::global().shouldFail("io.write"))
      return; // The injected write failure drops this one response; the
              // loop keeps serving (clients recover via their own retry).
    Out << Resp.dump(0) << "\n";
    Out.flush();
  };

  std::string Line;
  unsigned ReadFailures = 0;
  for (;;) {
    // getline can throw bad_alloc materializing a pathological line;
    // answer with a structured error and keep reading rather than
    // terminate. Repeated failures mean the stream is unrecoverable.
    try {
      if (!std::getline(In, Line))
        break;
      ReadFailures = 0;
    } catch (const std::exception &) {
      Respond(makeError(Json(), ErrorCode::InternalError,
                        "failed to read request line"));
      In.clear();
      if (++ReadFailures > 8)
        break;
      continue;
    }
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue; // Blank keep-alive lines are ignored.
    if (Handler.submitLine(Line, Respond) == LineHandler::Submit::Shutdown)
      break;
  }
  Handler.drain();
  return 0;
}

int SolverService::serve(std::istream &In, std::ostream &Out) {
  return serveStreams(*this, In, Out);
}
