//===- Router.cpp - Content shard router --------------------------------------//

#include "service/Router.h"

#include "support/StringUtils.h"

#include <chrono>
#include <utility>

#include <signal.h>

using namespace dprle;
using namespace dprle::service;

namespace {

struct RegisterRouterStats {
  RegisterRouterStats() {
    StatsRegistry &R = StatsRegistry::global();
    RouterStats &S = RouterStats::global();
    R.registerCounter("service.router_forwarded", &S.ForwardedRequests);
    R.registerCounter("service.shard_restarts", &S.ShardRestarts);
    R.registerCounter("service.router_orphaned", &S.OrphanedRequests);
    R.registerCounter("service.shard_down_shed", &S.ShardDownShed);
    WatchdogStats &W = WatchdogStats::global();
    R.registerCounter("watchdog.probes", &W.Probes);
    R.registerCounter("watchdog.sigterms", &W.SigTerms);
    R.registerCounter("watchdog.sigkills", &W.SigKills);
  }
};
RegisterRouterStats RegisterRouterStatsInit;

/// The hash that pins a request to its shard: the request text its
/// answer depends on, so a repeated query lands on the worker whose
/// caches it warmed. solve hashes its constraints; decide its operands
/// (the rotate keeps (A, B) and (B, A) apart); session verbs their id,
/// since a session's state lives in exactly one worker. Anything else,
/// or a param that is not a string, hashes the raw line. Nothing here
/// parses a constraint or a machine: the worker alone decides whether
/// the request is well formed.
uint64_t routingHash(const std::string &Line, const Request *R) {
  if (!R)
    return fnv1a(Line);
  auto StringParam = [&](const char *Name) -> const std::string * {
    const Json *V = R->Params.find(Name);
    return V && V->isString() ? &V->asString() : nullptr;
  };
  if (R->Method == "solve") {
    if (const std::string *Constraints = StringParam("constraints"))
      return fnv1a(*Constraints);
  } else if (R->Method == "decide") {
    // Unary queries carry no rhs.
    const std::string *Lhs = StringParam("lhs"), *Rhs = StringParam("rhs");
    if (Lhs && (Rhs || !R->Params.find("rhs"))) {
      uint64_t HR = Rhs ? fnv1a(*Rhs) : 0;
      return fnv1a(*Lhs) ^ ((HR << 17) | (HR >> 47));
    }
  } else if (R->Method.rfind("session_", 0) == 0) {
    if (const std::string *Sid = StringParam("session"))
      return fnv1a("session:" + *Sid);
  }
  return fnv1a(Line);
}

} // namespace

RouterStats &RouterStats::global() {
  static RouterStats Stats;
  return Stats;
}

WatchdogStats &WatchdogStats::global() {
  static WatchdogStats Stats;
  return Stats;
}

/// One aggregated ping/stats/shutdown/health across all live shards.
/// Remaining and Results are guarded by Mutex; Done is guarded by the
/// router's PendingMutex (the shutdown waiter sleeps on PendingCv).
struct Router::FanOut {
  std::mutex Mutex;
  unsigned Remaining = 0;
  std::string Method;
  Json OriginalId;
  ResponseFn Respond;
  /// The "result" objects of workers that answered ok, tagged with the
  /// shard that answered — health and per-shard stats need attribution,
  /// not just a pile of payloads.
  std::vector<std::pair<unsigned, Json>> Results;
  bool Done = false;
};

Router::Router(const RouterOptions &Opts)
    : Opts(Opts),
      Supervisor([&] {
        ShardSupervisorOptions S;
        S.Shards = Opts.Shards == 0 ? 1 : Opts.Shards;
        S.Worker = Opts.Worker;
        S.MaxRestartsPerShard = Opts.MaxRestartsPerShard;
        S.JournalDir = Opts.JournalDir;
        S.TimeSource = Opts.TimeSource;
        return S;
      }()) {
  if (this->Opts.Shards == 0)
    this->Opts.Shards = 1;
  for (unsigned I = 0; I != this->Opts.Shards; ++I)
    WriteMutexes.push_back(std::make_unique<std::mutex>());
  Hang.resize(this->Opts.Shards);
}

Router::~Router() { stop(); }

bool Router::start(std::string *Err) {
  if (!Supervisor.start(Err))
    return false;
  for (unsigned I = 0; I != Opts.Shards; ++I)
    Pumps.emplace_back([this, I] { readLoop(I); });
  if (Opts.WatchdogIntervalMs != 0)
    WatchdogThread = std::thread([this] {
      std::unique_lock<std::mutex> Lock(WatchdogCvMutex);
      for (;;) {
        WatchdogCv.wait_for(
            Lock, std::chrono::milliseconds(Opts.WatchdogIntervalMs),
            [&] { return WatchdogStop; });
        if (WatchdogStop)
          return;
        Lock.unlock();
        watchdogSweep();
        Lock.lock();
      }
    });
  return true;
}

Json Router::shedError(const Json &Id, const std::string &Message) const {
  Json Details = Json::object();
  Details["retry_after_ms"] = Opts.RetryAfterMsHint;
  return makeError(Id, ErrorCode::Overloaded, Message, Details);
}

unsigned Router::shardFor(const std::string &Line) const {
  RequestParse P = parseRequest(Line);
  return static_cast<unsigned>(routingHash(Line, P.Req ? &*P.Req : nullptr) %
                               Opts.Shards);
}

LineHandler::Submit Router::submitLine(const std::string &Line,
                                       ResponseFn Respond) {
  RequestParse P = parseRequest(Line);
  if (!P.ok()) {
    // Same inline answer a SolverService gives: there is nothing to
    // forward, and id rewriting needs a parsed request anyway.
    Respond(makeError(P.Id, P.Code, P.Message));
    return Submit::Accepted;
  }
  const Request &R = *P.Req;
  if (Stopping.load(std::memory_order_acquire)) {
    Respond(shedError(R.Id, "service is shutting down"));
    return Submit::Accepted;
  }

  if (R.Method == "ping" || R.Method == "stats" || R.Method == "health" ||
      R.Method == "shutdown")
    return fanOut(R, std::move(Respond));

  // A worker coins session ids from its own counter, so two workers
  // would hand out the same one; behind a router the client must choose.
  if (R.Method == "session_open") {
    const Json *Sid = R.Params.find("session");
    if (!Sid || !Sid->isString() || Sid->asString().empty()) {
      Respond(makeError(R.Id, ErrorCode::InvalidParams,
                        "\"session\" is required behind a sharded router: "
                        "choose a non-empty session id string"));
      return Submit::Accepted;
    }
  }

  // solve / decide / session / unknown methods forward to one worker; the
  // worker is authoritative for unknown-method and invalid-params errors.
  unsigned Shard =
      static_cast<unsigned>(routingHash(Line, &R) % Opts.Shards);
  Pending P2;
  P2.OriginalId = R.Id;
  P2.Respond = std::move(Respond);
  P2.Shard = Shard;
  forward(Shard, R, std::move(P2));
  return Submit::Accepted;
}

void Router::forward(unsigned Shard, const Request &R, Pending P) {
  if (Supervisor.shardFd(Shard) < 0 && !P.Fan) {
    // The shard burned its restart budget; shed like an overload so the
    // client's backoff machinery handles it.
    ++RouterStats::global().ShardDownShed;
    P.Respond(shedError(P.OriginalId,
                        "shard worker unavailable; retry after backoff"));
    return;
  }

  ++RouterStats::global().ForwardedRequests;
  // Stamp age/deadline for the hang watchdog: request deadline_ms when
  // present, else the worker default (0 falls back to HangTimeoutMs at
  // sweep time).
  P.EnqueuedMs = clock().nowMs();
  P.DeadlineMs = Opts.Worker.DefaultDeadlineMs;
  if (const Json *D = R.Params.find("deadline_ms"))
    if (D->isNumber())
      P.DeadlineMs = D->asUnsigned();
  uint64_t Seq = NextSeq.fetch_add(1, std::memory_order_relaxed);
  // Rewrite the id to a router-private sequence number: client ids are
  // free-form and collide across connections.
  Json Wire = Json::object();
  Wire["id"] = Seq;
  Wire["method"] = R.Method;
  if (!R.Params.isNull())
    Wire["params"] = R.Params;
  std::string Frame = Wire.dump(0);
  Frame.push_back('\n');

  // Register before sending: the response may beat the registration
  // otherwise and leak the pending entry forever.
  {
    std::lock_guard<std::mutex> Lock(PendingMutex);
    PendingMap.emplace(Seq, std::move(P));
  }
  bool Sent = false;
  {
    std::lock_guard<std::mutex> WLock(*WriteMutexes[Shard]);
    int Fd = Supervisor.shardFd(Shard);
    if (Fd >= 0)
      Sent = writeAllFd(Fd, Frame.data(), Frame.size());
  }
  if (Sent)
    return;
  // Dead worker: if the crash sweep has not already claimed the entry,
  // fail it here.
  Pending Failed;
  {
    std::lock_guard<std::mutex> Lock(PendingMutex);
    auto It = PendingMap.find(Seq);
    if (It == PendingMap.end())
      return;
    Failed = std::move(It->second);
    PendingMap.erase(It);
    ++Delivering;
  }
  finishPending(Seq, std::move(Failed), nullptr);
  doneDelivering(1);
}

void Router::doneDelivering(unsigned N) {
  std::lock_guard<std::mutex> Lock(PendingMutex);
  Delivering -= N;
  PendingCv.notify_all();
}

LineHandler::Submit Router::fanOut(const Request &R, ResponseFn Respond) {
  bool IsShutdown = R.Method == "shutdown";
  if (IsShutdown)
    // Flag first: worker EOFs that follow the acks must not trigger
    // restarts, and new requests racing the shutdown are shed.
    Stopping.store(true, std::memory_order_release);

  auto Fan = std::make_shared<FanOut>();
  Fan->Method = R.Method;
  Fan->OriginalId = R.Id;
  Fan->Respond = std::move(Respond);

  std::vector<unsigned> Live;
  for (unsigned I = 0; I != Opts.Shards; ++I)
    if (Supervisor.shardFd(I) >= 0)
      Live.push_back(I);
  if (Live.empty()) {
    Fan->Respond(IsShutdown
                     ? [&] {
                         Json Ack = Json::object();
                         Ack["shutting_down"] = true;
                         return makeResult(R.Id, std::move(Ack));
                       }()
                     : shedError(R.Id, "no shard workers reachable"));
    return IsShutdown ? Submit::Shutdown : Submit::Accepted;
  }
  Fan->Remaining = static_cast<unsigned>(Live.size());
  for (unsigned Shard : Live) {
    Pending P;
    P.OriginalId = R.Id;
    P.Shard = Shard;
    P.Fan = Fan;
    forward(Shard, R, std::move(P));
  }
  if (!IsShutdown)
    return Submit::Accepted;

  // Block until every worker acknowledged. Each worker drains its own
  // pool before acking, and on each socket the drained responses precede
  // the ack — so when the last ack lands, everything the workers ever
  // read has been answered.
  {
    std::unique_lock<std::mutex> Lock(PendingMutex);
    PendingCv.wait(Lock, [&] { return Fan->Done; });
  }
  return Submit::Shutdown;
}

void Router::readLoop(unsigned Shard) {
  for (;;) {
    int Fd = Supervisor.shardFd(Shard);
    if (Fd < 0)
      return;
    FdLineReader Lines(Fd);
    while (std::optional<std::string> Line = Lines.readLine()) {
      if (Line->empty())
        continue;
      handleWorkerLine(Shard, *Line);
    }
    if (Stopping.load(std::memory_order_acquire))
      return;
    // Worker crashed: orphan its pending requests (clients retry onto
    // the replacement) and fork a fresh worker with a cold cache.
    orphanShard(Shard);
    std::lock_guard<std::mutex> WLock(*WriteMutexes[Shard]);
    if (Supervisor.restartShard(Shard) < 0)
      return; // Restart budget exhausted; the shard stays down.
    ++RouterStats::global().ShardRestarts;
  }
}

void Router::handleWorkerLine(unsigned Shard, const std::string &Line) {
  (void)Shard;
  std::optional<Json> Resp = Json::parse(Line);
  if (!Resp)
    return; // Garbage from a dying worker; the EOF path cleans up.
  const Json *IdV = Resp->find("id");
  if (!IdV || !IdV->isNumber())
    return;
  uint64_t Seq = IdV->asUnsigned();
  Pending P;
  {
    std::lock_guard<std::mutex> Lock(PendingMutex);
    auto It = PendingMap.find(Seq);
    if (It == PendingMap.end())
      return; // Orphaned by a crash sweep; drop the late duplicate.
    P = std::move(It->second);
    PendingMap.erase(It);
    ++Delivering;
  }
  finishPending(Seq, std::move(P), &*Resp);
  doneDelivering(1);
}

void Router::orphanShard(unsigned Shard) {
  std::vector<std::pair<uint64_t, Pending>> Orphans;
  {
    std::lock_guard<std::mutex> Lock(PendingMutex);
    for (auto It = PendingMap.begin(); It != PendingMap.end();) {
      if (It->second.Shard == Shard) {
        Orphans.emplace_back(It->first, std::move(It->second));
        It = PendingMap.erase(It);
      } else {
        ++It;
      }
    }
    Delivering += static_cast<unsigned>(Orphans.size());
  }
  for (auto &[Seq, P] : Orphans)
    finishPending(Seq, std::move(P), nullptr);
  if (!Orphans.empty())
    doneDelivering(static_cast<unsigned>(Orphans.size()));
}

void Router::finishPending(uint64_t Seq, Pending &&P, const Json *WorkerResp) {
  (void)Seq;
  if (P.Fan) {
    contributeFanOut(P.Fan, P.Shard, WorkerResp);
    return;
  }
  if (WorkerResp) {
    Json Resp = *WorkerResp;
    Resp["id"] = P.OriginalId; // Restore the client's id.
    P.Respond(Resp);
    return;
  }
  ++RouterStats::global().OrphanedRequests;
  P.Respond(shedError(P.OriginalId,
                      "shard worker crashed; retry after backoff"));
}

void Router::contributeFanOut(const std::shared_ptr<FanOut> &Fan,
                              unsigned Shard, const Json *WorkerResp) {
  bool Last = false;
  {
    std::lock_guard<std::mutex> Lock(Fan->Mutex);
    if (WorkerResp) {
      const Json *Ok = WorkerResp->find("ok");
      if (Ok && Ok->isBool() && Ok->asBool())
        if (const Json *Result = WorkerResp->find("result"))
          Fan->Results.emplace_back(Shard, *Result);
    }
    Last = --Fan->Remaining == 0;
  }
  if (!Last)
    return;
  Fan->Respond(buildFanOutResponse(*Fan));
  {
    std::lock_guard<std::mutex> Lock(PendingMutex);
    Fan->Done = true;
    PendingCv.notify_all();
  }
}

Json Router::buildFanOutResponse(const FanOut &Fan) const {
  if (Fan.Method == "shutdown") {
    // Workers that crashed mid-shutdown are already gone — that is the
    // goal state; the ack stands either way.
    Json Ack = Json::object();
    Ack["shutting_down"] = true;
    return makeResult(Fan.OriginalId, std::move(Ack));
  }
  if (Fan.Results.empty())
    return shedError(Fan.OriginalId, "no shard workers answered");
  if (Fan.Method == "ping") {
    Json R = Json::object();
    R["pong"] = true;
    R["shards"] = Opts.Shards;
    R["healthy_shards"] = static_cast<uint64_t>(Fan.Results.size());
    return makeResult(Fan.OriginalId, std::move(R));
  }

  if (Fan.Method == "health") {
    // Per-shard liveness: the supervisor's process view (pid, restarts,
    // uptime) merged with each worker's self-report (sessions, journal
    // lag, in-flight ages). A shard with Alive=true but no "worker"
    // section answered nothing — exactly what a wedged worker looks like.
    uint64_t NowMs = clock().nowMs();
    Json Out = Json::object();
    Out["healthy"] =
        static_cast<uint64_t>(Fan.Results.size()) == Opts.Shards;
    Out["shards"] = Opts.Shards;
    Out["healthy_shards"] = static_cast<uint64_t>(Fan.Results.size());
    Json Per = Json::array();
    for (unsigned Shard = 0; Shard != Opts.Shards; ++Shard) {
      ShardInfo Info = Supervisor.shardInfo(Shard);
      Json E = Json::object();
      E["shard"] = Shard;
      E["alive"] = Info.Alive;
      E["pid"] = Info.Pid > 0 ? static_cast<uint64_t>(Info.Pid) : 0;
      E["restarts"] = Info.Restarts;
      E["uptime_ms"] = Info.Alive && NowMs >= Info.StartedMs
                           ? NowMs - Info.StartedMs
                           : 0;
      for (const auto &[RShard, R] : Fan.Results)
        if (RShard == Shard) {
          E["worker"] = R;
          break;
        }
      Per.push(std::move(E));
    }
    Out["per_shard"] = std::move(Per);
    Json Wd = Json::object();
    Wd["probes"] = WatchdogStats::global().Probes.get();
    Wd["sigterms"] = WatchdogStats::global().SigTerms.get();
    Wd["sigkills"] = WatchdogStats::global().SigKills.get();
    Wd["enabled"] = Opts.WatchdogIntervalMs != 0;
    Out["watchdog"] = std::move(Wd);
    return makeResult(Fan.OriginalId, std::move(Out));
  }

  // stats: sum worker counters and cache sizes; scalar config (jobs,
  // budgets) is identical across workers, so the first answers for all.
  auto AddInto = [](Json &Obj, const std::string &Name, uint64_t V) {
    const Json *Cur = Obj.find(Name);
    uint64_t Base = Cur && Cur->isNumber() ? Cur->asUnsigned() : 0;
    Obj[Name] = Base + V;
  };
  Json Counters = Json::object();
  uint64_t Machines = 0, Answers = 0, QueueDepth = 0, Jobs = 0;
  bool CacheEnabled = true;
  const Json *Budgets = nullptr;
  for (const auto &[Shard, R] : Fan.Results) {
    (void)Shard;
    if (const Json *C = R.find("counters"))
      for (const auto &[Name, V] : C->members())
        if (V.isNumber())
          AddInto(Counters, Name, V.asUnsigned());
    if (const Json *DC = R.find("decision_cache")) {
      if (const Json *E = DC->find("enabled"))
        CacheEnabled = CacheEnabled && E->asBool();
      if (const Json *M = DC->find("machines"))
        Machines += M->asUnsigned();
      if (const Json *A = DC->find("answers"))
        Answers += A->asUnsigned();
    }
    if (const Json *J = R.find("jobs"))
      Jobs = J->asUnsigned();
    if (const Json *Q = R.find("queue_depth"))
      QueueDepth += Q->asUnsigned();
    if (!Budgets)
      Budgets = R.find("budgets");
  }
  Json Out = Json::object();
  Out["counters"] = std::move(Counters);
  Json Cache = Json::object();
  Cache["enabled"] = CacheEnabled;
  Cache["machines"] = Machines;
  Cache["answers"] = Answers;
  Out["decision_cache"] = std::move(Cache);
  Out["jobs"] = Jobs;
  Out["queue_depth"] = QueueDepth;
  if (Budgets)
    Out["budgets"] = *Budgets;
  Json RouterSec = Json::object();
  RouterSec["shards"] = Opts.Shards;
  RouterSec["healthy_shards"] = static_cast<uint64_t>(Fan.Results.size());
  RouterSec["restarts"] = RouterStats::global().ShardRestarts.get();
  RouterSec["forwarded"] = RouterStats::global().ForwardedRequests.get();
  RouterSec["orphaned"] = RouterStats::global().OrphanedRequests.get();
  // Per-shard process + journal detail (satellite of the health layer):
  // restarts and uptime from the supervisor, journal position from each
  // worker's own stats payload.
  uint64_t NowMs = clock().nowMs();
  Json Per = Json::array();
  for (unsigned Shard = 0; Shard != Opts.Shards; ++Shard) {
    ShardInfo Info = Supervisor.shardInfo(Shard);
    Json E = Json::object();
    E["shard"] = Shard;
    E["alive"] = Info.Alive;
    E["restarts"] = Info.Restarts;
    E["uptime_ms"] = Info.Alive && NowMs >= Info.StartedMs
                         ? NowMs - Info.StartedMs
                         : 0;
    for (const auto &[RShard, R] : Fan.Results)
      if (RShard == Shard) {
        if (const Json *J = R.find("journal"))
          E["journal"] = *J;
        break;
      }
    Per.push(std::move(E));
  }
  RouterSec["per_shard"] = std::move(Per);
  Out["router"] = std::move(RouterSec);
  return makeResult(Fan.OriginalId, std::move(Out));
}

void Router::sendProbe(unsigned Shard) {
  ++WatchdogStats::global().Probes;
  Request R;
  R.Id = Json("watchdog-probe");
  R.Method = "ping";
  Pending P;
  P.OriginalId = R.Id;
  P.Shard = Shard;
  P.IsProbe = true;
  P.Respond = [this, Shard](const Json &) {
    // The probe came back through the worker's pool: the shard is slow,
    // not wedged — stand down (the next sweep re-probes if still
    // overdue). Shed/orphan answers land here too; harmless, the pid
    // check resets state after the restart anyway.
    std::lock_guard<std::mutex> Lock(WatchdogMutex);
    if (Shard < Hang.size() && Hang[Shard].P == HangState::Probed)
      Hang[Shard].P = HangState::Healthy;
  };
  forward(Shard, R, std::move(P));
}

void Router::watchdogSweep() {
  uint64_t NowMs = clock().nowMs();
  std::vector<unsigned> Probes;
  for (unsigned Shard = 0; Shard != Opts.Shards; ++Shard) {
    ShardInfo Info = Supervisor.shardInfo(Shard);
    std::lock_guard<std::mutex> HLock(WatchdogMutex);
    HangState &H = Hang[Shard];
    if (Info.Pid != H.Pid) {
      // Fresh worker (first sweep or post-restart): clean slate.
      H.Pid = Info.Pid;
      H.P = HangState::Healthy;
      H.PhaseMs = NowMs;
    }
    if (!Info.Alive)
      continue;
    // Overdue = any non-probe in-flight request older than Factor × its
    // effective deadline. Cooperative cancellation should have unwound
    // it long before that multiple.
    bool Overdue = false;
    {
      std::lock_guard<std::mutex> PLock(PendingMutex);
      for (const auto &[Seq, P] : PendingMap) {
        (void)Seq;
        if (P.Shard != Shard || P.IsProbe)
          continue;
        uint64_t Deadline =
            P.DeadlineMs != 0 ? P.DeadlineMs : Opts.HangTimeoutMs;
        if (Deadline == 0)
          continue;
        if (NowMs - P.EnqueuedMs > Opts.HangDeadlineFactor * Deadline) {
          Overdue = true;
          break;
        }
      }
    }
    if (!Overdue) {
      // Whatever was stuck got answered or orphaned; de-escalate.
      H.P = HangState::Healthy;
      continue;
    }
    switch (H.P) {
    case HangState::Healthy:
      // Step 1: probe. Pings queue behind the wedge (only health skips
      // the pool), so an answer proves the pool is making progress.
      H.P = HangState::Probed;
      H.PhaseMs = NowMs;
      Probes.push_back(Shard);
      break;
    case HangState::Probed:
      if (NowMs - H.PhaseMs >= Opts.HangGraceMs) {
        // Step 2: ask nicely. SIGTERM triggers the worker's drain path;
        // a merely-slow worker finishes its line and exits clean.
        ++WatchdogStats::global().SigTerms;
        Supervisor.signalShard(Shard, SIGTERM);
        H.P = HangState::Termed;
        H.PhaseMs = NowMs;
      }
      break;
    case HangState::Termed:
      if (NowMs - H.PhaseMs >= Opts.HangGraceMs) {
        // Step 3: no more grace. The kill EOFs the socket; the read pump
        // orphans the shard's pendings (clients retry) and restarts it,
        // and the fresh worker replays its journal before serving.
        ++WatchdogStats::global().SigKills;
        Supervisor.signalShard(Shard, SIGKILL);
        H.PhaseMs = NowMs;
      }
      break;
    }
  }
  // Probes are sent after WatchdogMutex is released: a dead shard makes
  // forward() invoke the probe's callback synchronously, which locks
  // WatchdogMutex itself.
  for (unsigned Shard : Probes)
    sendProbe(Shard);
}

void Router::drain() {
  std::unique_lock<std::mutex> Lock(PendingMutex);
  PendingCv.wait(Lock, [&] { return PendingMap.empty() && Delivering == 0; });
}

void Router::stop() {
  Stopping.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> Lock(WatchdogCvMutex);
    WatchdogStop = true;
  }
  WatchdogCv.notify_all();
  if (WatchdogThread.joinable())
    WatchdogThread.join();
  Supervisor.halfCloseAll();
  for (std::thread &T : Pumps)
    if (T.joinable())
      T.join();
  Pumps.clear();
  Supervisor.stopAll();
  // Anything still pending will never be answered by a worker; honor the
  // exactly-once response contract with a shed.
  std::vector<std::pair<uint64_t, Pending>> Leftover;
  {
    std::lock_guard<std::mutex> Lock(PendingMutex);
    for (auto &[Seq, P] : PendingMap)
      Leftover.emplace_back(Seq, std::move(P));
    PendingMap.clear();
    Delivering += static_cast<unsigned>(Leftover.size());
  }
  for (auto &[Seq, P] : Leftover)
    finishPending(Seq, std::move(P), nullptr);
  if (!Leftover.empty())
    doneDelivering(static_cast<unsigned>(Leftover.size()));
}
