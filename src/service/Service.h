//===- Service.h - Concurrent solving service -------------------*- C++ -*-==//
///
/// \file
/// The request scheduler behind `dprle serve` (docs/SERVICE.md). A
/// SolverService owns one ThreadPool; serve() reads NDJSON requests
/// (Protocol.h) from a stream, submits each as a pool job, and writes one
/// response line per request in *completion* order (ids correlate).
///
/// Methods:
///   solve  — params {constraints, max_solutions?, deadline_ms?}: parse
///            ConstraintParser text, run the RMA decision procedure at the
///            service's job count, return verdict + assignments (regex +
///            example witness per variable) + per-request stats.
///   decide — params {query, lhs, rhs?, deadline_ms?}: one decision-kernel
///            query (subset | empty-intersection | equivalent | empty)
///            over machines in the Serialize.h format.
///   ping, stats, shutdown — liveness, process-wide counters, drain+stop.
///   health — self-reported liveness detail (uptime, sessions, journal
///            lag, in-flight ages); answered inline, never queued, so a
///            wedged pool still reports (docs/ROBUSTNESS.md).
///   session_open / session_push / session_pop / session_check /
///   session_close — incremental solving sessions with warm restarts
///            (solver/Session.h, docs/SESSIONS.md): push/pop constraint
///            deltas and re-check, reusing unchanged CI-group results.
///
/// Graceful degradation: every request gets one ResourceBudget
/// (support/Budget.h) carrying its resource caps, its deadline_ms (falling
/// back to ServiceOptions::DefaultDeadlineMs, armed when the job starts)
/// and its cancel flag. solve, decide and session_check install it as the
/// ambient budget around parse, solve or query, and render, so every
/// kernel polls it; a tripped request is answered with a structured
/// `timeout`, `cancelled` or `resource_exhausted` error instead of wedging
/// a worker.
///
/// Determinism: solving is bit-identical at any job count (see
/// SolverOptions::Jobs); only response *order* and the approximate
/// per-request `decide.*` deltas vary under concurrency.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_SERVICE_SERVICE_H
#define DPRLE_SERVICE_SERVICE_H

#include "service/Journal.h"
#include "service/Protocol.h"
#include "service/ThreadPool.h"
#include "support/Clock.h"

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace dprle {

class ResourceBudget;
struct SolverOptions;

namespace service {

/// Transport-independent request sink. The stdio loop, every socket
/// connection (Listener.h / Connection.h) and the shard router (Router.h)
/// feed raw NDJSON lines into one of these; the handler answers through
/// the supplied callback, possibly from another thread and out of
/// submission order. Two implementations exist: SolverService (solves
/// locally on its pool) and Router (forwards to shard worker processes).
class LineHandler {
public:
  virtual ~LineHandler() = default;

  /// What a submitted line asked of the transport.
  enum class Submit {
    /// The line was scheduled (or answered inline); \p Respond is invoked
    /// exactly once, on an unspecified thread.
    Accepted,
    /// The line was a shutdown request: in-flight work has been drained,
    /// the shutdown acknowledged through \p Respond, and the transport
    /// should stop reading.
    Shutdown,
  };

  using ResponseFn = std::function<void(const Json &)>;

  /// Schedules one raw request line (transports skip blank keep-alive
  /// lines themselves). \p Respond is invoked exactly once per call.
  virtual Submit submitLine(const std::string &Line, ResponseFn Respond) = 0;

  /// Blocks until every in-flight request has been answered.
  virtual void drain() = 0;
};

/// Drives \p Handler from a line-oriented stream pair: the stdio
/// transport of `dprle serve`, shared by the local service and the
/// sharded router. Reads until EOF or a shutdown request, answering on
/// \p Out in completion order. Returns a process exit code (0).
int serveStreams(LineHandler &Handler, std::istream &In, std::ostream &Out);

struct ServiceOptions {
  /// Worker count of the pool; also SolverOptions::Jobs for every solve.
  /// 1 = sequential requests, serial solver (the deterministic baseline).
  unsigned Jobs = 1;
  /// Deadline applied to requests that carry no deadline_ms param.
  /// 0 = no default deadline.
  uint64_t DefaultDeadlineMs = 0;
  /// Reject decide operands with more states than this (structured
  /// `oversized_machine` error), and bind every machine a request
  /// *creates* to the same limit through the per-request budget
  /// (ResourceLimits::MaxStatesPerMachine) — a small request whose
  /// intermediate product explodes unwinds into `resource_exhausted`
  /// instead of exhausting the process. 0 = unlimited.
  size_t MaxNfaStates = 1 << 20;

  /// \name Resource governance and backpressure (docs/ROBUSTNESS.md)
  /// @{
  /// Server-side caps on the per-request resource budget (0 = unlimited).
  /// Requests may *lower* them with max_states / max_transitions /
  /// max_memory_bytes params; a request asking for more than the cap is
  /// clamped to it.
  uint64_t MaxStatesBudget = 0;
  uint64_t MaxTransitionsBudget = 0;
  uint64_t MaxMemoryBytes = 0;
  /// Bound on the scheduler queue: serve() sheds non-ping requests with a
  /// structured `overloaded` error (carrying retry_after_ms) when this
  /// many jobs are already waiting. 0 = unbounded.
  size_t MaxQueueDepth = 0;
  /// The retry_after_ms hint attached to shed responses.
  uint64_t RetryAfterMsHint = 50;
  /// @}

  /// \name Incremental sessions (docs/SESSIONS.md)
  /// @{
  /// Sessions idle longer than this are evicted (their warm caches freed);
  /// later requests naming them answer `session_lost`. 0 = never evict.
  uint64_t SessionIdleTimeoutMs = 300000;
  /// Bound on concurrently open sessions; session_open beyond it answers
  /// `overloaded` (after evicting any idle sessions). 0 = unbounded.
  size_t MaxSessions = 64;
  /// @}

  /// \name Durable sessions (docs/ROBUSTNESS.md, docs/SESSIONS.md)
  /// @{
  /// Append-only op journal for session state (`--journal-dir`). Empty =
  /// journaling off: a crash keeps PR 9's `session_lost` semantics. When
  /// set, the constructor replays the file and rebuilds every journaled
  /// session before the service accepts traffic; recovered sessions
  /// report `recovered: true` on their next session_check. Under a
  /// sharded router each worker journals to <dir>/shard-<N>.journal.
  std::string JournalPath;
  /// fsync every journal append (`--journal-fsync`): a crash loses no
  /// acknowledged session op, at one fsync per mutating verb.
  bool JournalFsync = false;
  /// Compact the journal to a live-state snapshot past this size
  /// (`--journal-compact-bytes`). 0 disables size-triggered compaction.
  uint64_t JournalCompactBytes = 8u << 20;
  /// @}

  /// Injectable monotonic clock for idle eviction, health uptime and
  /// in-flight ages; null = the process-wide SystemClock. Tests inject a
  /// FakeClock so timing policies run without real sleeps.
  Clock *TimeSource = nullptr;
};

class SolverService : public LineHandler {
public:
  explicit SolverService(const ServiceOptions &Opts);

  /// The NDJSON loop: reads requests from \p In until EOF or a shutdown
  /// request, answering on \p Out. Returns a process exit code (0).
  int serve(std::istream &In, std::ostream &Out);

  /// LineHandler: parses \p Line, applies admission control (queue bound,
  /// shed with `overloaded`; pings exempt), and schedules the request on
  /// the pool. Shutdown drains the pool, acknowledges, and returns
  /// Submit::Shutdown.
  Submit submitLine(const std::string &Line, ResponseFn Respond) override;

  /// LineHandler: Pool.waitIdle(), then flushJournal().
  void drain() override;

  /// fsyncs the session journal (graceful drain, signal handlers). No-op
  /// when journaling is off.
  void flushJournal();

  /// Parses and handles one request line synchronously (test entry
  /// point). \p External, when given, is the request's budget — the
  /// caller may cancel() it from another thread; the service arms the
  /// deadline and sets the request's limits on it.
  Json handleLine(const std::string &Line, ResourceBudget *External = nullptr);

  /// Handles one parsed request synchronously.
  Json handleRequest(const Request &R, ResourceBudget *External = nullptr);

  const ServiceOptions &options() const { return Opts; }

private:
  struct SessionEntry;

  Json dispatch(const Request &R, ResourceBudget &Budget);
  Json doSolve(const Request &R, ResourceBudget &Budget);
  Json doDecide(const Request &R, ResourceBudget &Budget);
  Json doStats() const;
  /// The `health` liveness payload: uptime, open sessions, journal
  /// position/lag, and in-flight request count + oldest age. Answered
  /// inline (never queued) so probes see a wedged pool, not a timeout.
  Json doHealth() const;
  /// The "journal" section shared by stats and health. Caller holds
  /// SessionsMutex.
  Json journalSectionLocked() const;

  /// \name Session verbs (docs/SESSIONS.md)
  ///
  /// State lives in a per-service table keyed by session id; each entry
  /// carries its own mutex, so verbs on one session serialize while
  /// different sessions (and plain solve/decide requests) proceed
  /// concurrently. Clients must await each session verb's response before
  /// issuing the next verb on the same session — the pool does not
  /// preserve submission order across jobs.
  /// @{
  Json doSessionOpen(const Request &R, ResourceBudget &Budget);
  Json doSessionPush(const Request &R, ResourceBudget &Budget);
  Json doSessionPop(const Request &R);
  Json doSessionCheck(const Request &R, ResourceBudget &Budget);
  Json doSessionClose(const Request &R);
  /// Looks up a session and stamps its LastUsed; null when unknown (the
  /// caller answers `session_lost`).
  std::shared_ptr<SessionEntry> findSession(const std::string &Id);
  /// Drops sessions idle past SessionIdleTimeoutMs (skipping any with a
  /// verb in flight). Called on the session_open path.
  void evictIdleSessions();
  /// @}

  /// \name Durability (service/Journal.h, docs/ROBUSTNESS.md)
  /// @{
  /// Replays Opts.JournalPath and rebuilds the session table (constructor
  /// only; sessions come back with cold caches and Recovered set).
  void recoverFromJournal();
  /// Appends one record, compacting inline past the size threshold.
  /// Caller holds SessionsMutex (the journal and the per-entry op mirrors
  /// it snapshots are guarded by it).
  void journalAppendLocked(const JournalRecord &Rec);
  /// Rewrites the journal to a snapshot of the live session table.
  /// Caller holds SessionsMutex.
  void compactJournalLocked();
  /// @}

  /// The solve configuration every verb shares: the service's job count
  /// and pool, plus \p MaxSolutions when non-zero.
  SolverOptions solverOptions(uint64_t MaxSolutions);

  Clock &clock() const {
    return Opts.TimeSource ? *Opts.TimeSource : Clock::system();
  }

  ServiceOptions Opts;
  ThreadPool Pool;
  uint64_t StartMs = 0;

  mutable std::mutex SessionsMutex;
  std::map<std::string, std::shared_ptr<SessionEntry>> Sessions;
  uint64_t NextSessionId = 1;
  /// Guarded by SessionsMutex (see journalAppendLocked).
  std::unique_ptr<Journal> Jrnl;

  /// In-flight request start times (tracking id -> nowMs at dispatch),
  /// surfaced as health.inflight. Its own mutex: bumped on *every*
  /// request, must not contend with the session table.
  mutable std::mutex InflightMutex;
  std::map<uint64_t, uint64_t> Inflight;
  uint64_t NextInflightId = 1;
};

} // namespace service
} // namespace dprle

#endif // DPRLE_SERVICE_SERVICE_H
