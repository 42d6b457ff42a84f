//===- Router.h - Content shard router --------------------------*- C++ -*-==//
///
/// \file
/// The multi-process scale-out path of `dprle serve --shards=N`
/// (docs/DEPLOYMENT.md): a LineHandler that forwards each request to one
/// of N worker processes (ShardSupervisor.h) instead of solving locally.
/// The front ends — stdio loop and socket Listener — are unchanged; they
/// feed a Router exactly as they would a SolverService.
///
/// Routing is by content, read from the request text: a solve is hashed
/// by its `constraints` string and a decide by its `lhs` and `rhs`
/// strings, so a repeated query always lands on the worker whose
/// decision, minimize and render caches it already warmed — the point of
/// sharding by content rather than round-robin. Session verbs hash their
/// session id instead: a session lives in exactly one worker, so the
/// router itself answers a session_open without an id `invalid_params`
/// (each worker coins ids from its own counter). The router
/// compiles nothing: it parses the JSON envelope and hashes, and the
/// worker stays authoritative for every constraint, machine and params
/// error. A request whose routed params are missing or not strings
/// routes by a hash of its raw line.
///
/// Wire mechanics: the router rewrites each request's id to a private
/// sequence number before forwarding (client ids are free-form and can
/// collide across connections), keeps a pending table seq -> (original
/// id, response callback), and per-shard reader threads restore the
/// original id on the way back. ping/stats/shutdown fan out to every
/// live shard and aggregate: stats sums worker counters, shutdown drains
/// each worker before the single acknowledgement.
///
/// Crash handling: a worker EOF orphans that shard's pending requests
/// with `overloaded` + retry_after_ms — the standard client backoff
/// machinery (examples/service_client.py) retries them onto the
/// restarted worker. Restarts are budgeted per shard; past the budget
/// the shard's traffic is shed. With a journal directory configured the
/// restarted worker replays its session journal before serving, so the
/// pinned sessions that died with it resolve again (docs/ROBUSTNESS.md).
///
/// Liveness: `health` fans out like stats but merges each worker's
/// self-report with the supervisor's process view (pid, restarts,
/// uptime). A hang watchdog sweeps the pending table for requests stuck
/// past N× their deadline — cooperative cancellation having failed — and
/// escalates per shard: probe ping, SIGTERM drain, SIGKILL + restart +
/// journal replay.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_SERVICE_ROUTER_H
#define DPRLE_SERVICE_ROUTER_H

#include "service/ShardSupervisor.h"
#include "support/Stats.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace dprle {
namespace service {

/// Process-wide router counters, published as "service.router_*"
/// (docs/OBSERVABILITY.md).
struct RouterStats {
  /// Requests forwarded to a shard worker (fan-out legs count once each).
  RelaxedCounter ForwardedRequests;
  /// Worker processes restarted after a crash.
  RelaxedCounter ShardRestarts;
  /// Pending requests orphaned by a worker crash (answered `overloaded`).
  RelaxedCounter OrphanedRequests;
  /// Requests shed because their shard is down (restart budget exhausted).
  RelaxedCounter ShardDownShed;

  static RouterStats &global();
};

/// Process-wide hang-watchdog counters, published as "watchdog.*"
/// (docs/ROBUSTNESS.md): one per escalation step.
struct WatchdogStats {
  /// Probe pings sent to shards with overdue in-flight requests.
  RelaxedCounter Probes;
  /// SIGTERM drains sent after an unanswered probe.
  RelaxedCounter SigTerms;
  /// SIGKILLs sent after an ignored SIGTERM; the shard restarts and
  /// replays its journal.
  RelaxedCounter SigKills;

  static WatchdogStats &global();
};

struct RouterOptions {
  /// Worker process count.
  unsigned Shards = 2;
  /// Options each worker's SolverService runs with.
  ServiceOptions Worker;
  /// Restart budget per shard.
  unsigned MaxRestartsPerShard = 8;
  /// retry_after_ms hint attached to orphan/shed responses.
  uint64_t RetryAfterMsHint = 50;
  /// Session journal directory (`--journal-dir`): workers journal to
  /// <dir>/shard-<N>.journal and replay it on supervised restart
  /// (ShardSupervisorOptions::JournalDir). Empty = off.
  std::string JournalDir;

  /// \name Hang watchdog (docs/ROBUSTNESS.md)
  /// Detects a shard whose in-flight request outlived N× its deadline —
  /// cooperative cancellation has failed — and escalates: probe ping →
  /// SIGTERM drain → SIGKILL + restart + journal replay.
  /// @{
  /// Sweep period of the background watchdog thread; 0 = no thread
  /// (tests call watchdogSweep() directly, driving a FakeClock).
  uint64_t WatchdogIntervalMs = 0;
  /// Hang threshold for requests that carry no deadline: treated as if
  /// their deadline were this. 0 exempts deadline-less requests.
  uint64_t HangTimeoutMs = 30000;
  /// A request is overdue once its age exceeds Factor × its deadline.
  uint64_t HangDeadlineFactor = 4;
  /// Dwell between escalation steps (probe→SIGTERM and SIGTERM→SIGKILL).
  uint64_t HangGraceMs = 1000;
  /// @}

  /// Injectable clock for watchdog ages and per-shard uptime; null =
  /// the process-wide SystemClock.
  Clock *TimeSource = nullptr;
};

class Router : public LineHandler {
public:
  explicit Router(const RouterOptions &Opts);
  ~Router() override;

  Router(const Router &) = delete;
  Router &operator=(const Router &) = delete;

  /// Forks the workers and starts the per-shard response pumps. On
  /// failure returns false with \p Err set.
  bool start(std::string *Err);

  unsigned numShards() const { return Opts.Shards; }

  /// LineHandler: parses \p Line, routes it to its shard (or fans out),
  /// and arranges for \p Respond to fire when the worker answers.
  Submit submitLine(const std::string &Line, ResponseFn Respond) override;

  /// LineHandler: blocks until the pending table is empty.
  void drain() override;

  /// Tears the fleet down: half-closes the workers (they drain and
  /// exit), joins the response pumps, reaps, and fails any stragglers.
  /// Idempotent; the destructor calls it.
  void stop();

  /// The shard \p Line would route to — exposed so tests can assert
  /// content affinity without a process fleet.
  unsigned shardFor(const std::string &Line) const;

  /// The worker process behind \p Shard (test hook: kill it to exercise
  /// the crash/restart path); -1 when the shard is down.
  pid_t shardPid(unsigned Shard) const { return Supervisor.shardPid(Shard); }

  /// One watchdog pass: for every shard whose oldest in-flight request
  /// is past HangDeadlineFactor × its deadline, advance the escalation
  /// (probe → SIGTERM → SIGKILL). The background thread calls this every
  /// WatchdogIntervalMs; tests call it directly with a FakeClock.
  void watchdogSweep();

private:
  /// One aggregated ping/stats/shutdown/health across all live shards.
  struct FanOut;
  /// One forwarded request awaiting its worker response.
  struct Pending {
    Json OriginalId;
    ResponseFn Respond;
    unsigned Shard = 0;
    std::shared_ptr<FanOut> Fan;
    /// Clock::nowMs() when the request was forwarded, and its effective
    /// deadline — the watchdog's overdue test.
    uint64_t EnqueuedMs = 0;
    uint64_t DeadlineMs = 0;
    /// Watchdog probe pings are exempt from the overdue test (a probe
    /// must not escalate itself).
    bool IsProbe = false;
  };
  /// Per-shard hang escalation state, guarded by WatchdogMutex. Reset
  /// when the worker pid changes (restart) or the probe answers.
  struct HangState {
    enum Phase { Healthy, Probed, Termed } P = Healthy;
    /// When the current phase was entered.
    uint64_t PhaseMs = 0;
    pid_t Pid = -1;
  };

  void readLoop(unsigned Shard);
  /// Forwards a ping/stats/shutdown/health to every live shard and
  /// aggregates; for shutdown, blocks until all acks land before
  /// returning Shutdown.
  Submit fanOut(const Request &R, ResponseFn Respond);
  Json buildFanOutResponse(const FanOut &Fan) const;
  void handleWorkerLine(unsigned Shard, const std::string &Line);
  /// Fails every pending entry parked on \p Shard (worker crashed).
  void orphanShard(unsigned Shard);
  /// Registers a pending entry and forwards the rewritten request; on a
  /// send failure the entry is failed immediately.
  void forward(unsigned Shard, const Request &R, Pending P);
  void finishPending(uint64_t Seq, Pending &&P, const Json *WorkerResp);
  /// Decrements Delivering by \p N and wakes drain().
  void doneDelivering(unsigned N);
  void contributeFanOut(const std::shared_ptr<FanOut> &Fan, unsigned Shard,
                        const Json *WorkerResp);
  Json shedError(const Json &Id, const std::string &Message) const;
  /// Sends the watchdog's probe ping to \p Shard; the response (pumped
  /// through the wedged pool, so silence = hung) resets its HangState.
  void sendProbe(unsigned Shard);

  Clock &clock() const {
    return Opts.TimeSource ? *Opts.TimeSource : Clock::system();
  }

  RouterOptions Opts;
  ShardSupervisor Supervisor;
  /// One writer lock per shard: serializes NDJSON frames onto the worker
  /// socket and fences writers against a concurrent fd swap on restart.
  std::vector<std::unique_ptr<std::mutex>> WriteMutexes;
  std::vector<std::thread> Pumps;

  mutable std::mutex PendingMutex;
  std::condition_variable PendingCv;
  std::unordered_map<uint64_t, Pending> PendingMap;
  /// Responses removed from PendingMap whose Respond callback is still
  /// executing (guarded by PendingMutex). drain() must wait these out:
  /// the callback writes through stream/mutex state the caller destroys
  /// the moment drain() returns.
  unsigned Delivering = 0;
  std::atomic<uint64_t> NextSeq{1};
  std::atomic<bool> Stopping{false};

  /// \name Hang watchdog (docs/ROBUSTNESS.md)
  /// @{
  mutable std::mutex WatchdogMutex;
  std::vector<HangState> Hang;
  std::thread WatchdogThread;
  std::mutex WatchdogCvMutex;
  std::condition_variable WatchdogCv;
  bool WatchdogStop = false;
  /// @}
};

} // namespace service
} // namespace dprle

#endif // DPRLE_SERVICE_ROUTER_H
