//===- ServeMix.cpp - Open-loop serving mix through the shard router ------===//
//
// Seeded Poisson arrivals at a fixed offered rate over two Unix-socket
// connections to a Listener fronting a 2-shard Router (workers at
// jobs=1). The mix: ~60% Figure 11 corpus solves (253 instances that
// repeat, so steady state is warm), ~35% decide subset queries drawn
// Zipf-skewed from a pool of machine pairs twice the fleet's combined
// DecisionCache machine bound, ~5% ci_heavy-class solves (first solution
// only: bounded enumeration is ci_heavy's). Each op is
// timed from its due time, so a stall counts against every op behind it.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Oracle.h"
#include "Transport.h"
#include "Workload.h"

#include "automata/Decide.h"
#include "automata/Serialize.h"

#include <atomic>
#include <set>
#include <thread>
#include <unordered_map>

using namespace dprle;

namespace ledger {

namespace {

enum OpKind : uint8_t { CorpusSolve, Decide, HeavySolve };

/// The OpRecord::Verb of each kind, and back.
const char *verbOf(OpKind K) {
  return K == Decide ? "decide" : K == HeavySolve ? "heavy" : "solve";
}
OpKind kindOf(const std::string &Verb) {
  return Verb == "decide" ? Decide : Verb == "heavy" ? HeavySolve : CorpusSolve;
}

/// A request without its id: `"method":...,"params":{...}}`.
std::string requestBody(const std::string &Method, Json Params) {
  Json Req = Json::object();
  Req["method"] = Method;
  Req["params"] = std::move(Params);
  return Req.dump(0).substr(1);
}

std::string withId(long long Id, const std::string &Body) {
  return "{\"id\":" + std::to_string(Id) + "," + Body;
}

std::string solveBody(const SolveInput &In) {
  Json P = Json::object();
  P["constraints"] = In.Text;
  if (In.MaxSolutions)
    P["max_solutions"] = In.MaxSolutions;
  return requestBody("solve", std::move(P));
}

/// DecisionCache machine bound of one process (Decide.cpp: 16 shards of
/// at most 256 interned machines).
constexpr size_t CacheMachinesPerProcess = 16 * 256;

/// The fleet: a 2-shard Router, each worker a SolverService at jobs=1
/// with a bounded queue, fed over 2 connections.
constexpr unsigned Shards = 2;
constexpr size_t MaxQueue = 1024;
constexpr unsigned Connections = 2;
/// The mix: ~60% corpus solves, ~35% decides, the rest heavy solves.
constexpr double SolveShare = 0.60, DecideShare = 0.35;
/// Distinct decide pairs: twice the fleet's DecisionCache machine bound,
/// so the cache evicts; drawn Zipf(1)-skewed, so it also hits.
constexpr size_t PoolPairs = 2 * Shards * CacheMachinesPerProcess;
constexpr double ZipfS = 1.0;
/// Heavy solves: a pool of 512 distinct 2-group systems (ci_heavy's
/// generator), so they mostly meet cold caches.
constexpr int HeavyPool = 512;
constexpr unsigned HeavyGroups = 2;
/// Seconds of traffic at the offered rate before the measured window:
/// connection threads start and the first arrivals meet a cold process,
/// which is set-up, not steady state.
constexpr double LeadIn = 1.0;

class ServeMix final : public Workload {
public:
  explicit ServeMix(const WorkloadContext &Ctx) : Ctx(Ctx) {
    Rate = configNumber(Ctx.Config, "offered_rate_ops_s");
  }
  ~ServeMix() override { tearDown(); }

  bool setUp(std::string *Err) override;
  TimedRun run() override;
  double peakRssMb() const override { return Server.peakRssMb(); }
  void layers(const TimedRun &Loaded, LayerReport &Out) override;
  unsigned threads() const override { return Shards; }
  unsigned clients() const override { return Connections; }
  void tearDown() override {
    Server.stop();
    Direct.stop();
  }

private:
  struct ScheduledOp {
    double Due;
    OpKind Kind;
    uint32_t Index;
  };

  const std::string &bodyOf(const ScheduledOp &Op) const {
    switch (Op.Kind) {
    case CorpusSolve:
      return CorpusBodies[Op.Index];
    case HeavySolve:
      return HeavyBodies[Op.Index];
    default:
      return DecideBodies.at(Op.Index);
    }
  }
  /// Correctness of one response; empty when correct, else the failure.
  std::string check(const ScheduledOp &Op, const std::string &Line);

  WorkloadContext Ctx;
  double Rate = 0;
  size_t Excluded = 0, Unparsed = 0;

  std::vector<SolveInput> Corpus, Heavy;
  std::vector<std::string> CorpusRef, CorpusBodies, HeavyBodies;
  std::unordered_map<uint32_t, std::string> DecideBodies;
  std::unordered_map<uint32_t, bool> DecideRef;
  std::vector<ScheduledOp> Schedule;
  ServerProcess Server, Direct;
  RegexCache Regexes;
  /// (input, verdict fingerprint) pairs whose witnesses already replayed.
  std::set<std::pair<uint64_t, std::string>> Replayed;
};

bool ServeMix::setUp(std::string *Err) {
  // Two sink paths are left out because one solve of either costs more
  // than an open loop at this rate can absorb: at 500 ops/s each corpus
  // path arrives about 1.2 times a second, and a 4-vCPU machine solves
  // the Figure 12 `secure` row (the designed-pathological one) in about
  // a minute and the `xw_mn` row (387 constraints) in about 2.5 s, so
  // either alone would saturate both single-job shards. Their solve cost
  // is measured by bench/bench_fig12_solving.
  for (SolveInput &In : figure11SolveInputs(Unparsed)) {
    if (In.Origin == "warp/secure.php" || In.Origin == "warp/xw_mn.php")
      ++Excluded;
    else
      Corpus.push_back(std::move(In));
  }
  if (Corpus.empty()) {
    *Err = "empty Figure 11 corpus";
    return false;
  }
  {
    ColdCaches Cold;
    for (const SolveInput &In : Corpus)
      CorpusRef.push_back(referenceFingerprint(In.Text, In.MaxSolutions));
  }
  for (const SolveInput &In : Corpus)
    CorpusBodies.push_back(solveBody(In));

  Rng HeavyRng(subSeed(Ctx.Seed, 2));
  for (int I = 0; I != HeavyPool; ++I) {
    Heavy.push_back(heavyInput(HeavyRng, HeavyGroups, /*Enumerate=*/false));
    HeavyBodies.push_back(solveBody(Heavy.back()));
  }
  // The arrival schedule, and only the decide pairs it draws.
  Rng Arrivals(subSeed(Ctx.Seed, 1));
  ZipfSampler Zipf(PoolPairs, ZipfS);
  Schedule.clear();
  for (double T = Arrivals.exponential(1.0 / Rate); T < LeadIn + Ctx.Seconds;
       T += Arrivals.exponential(1.0 / Rate)) {
    double U = Arrivals.uniform();
    if (U < SolveShare)
      Schedule.push_back({T, CorpusSolve, uint32_t(Arrivals.below(Corpus.size()))});
    else if (U < SolveShare + DecideShare)
      Schedule.push_back({T, Decide, uint32_t(Zipf.sample(Arrivals))});
    else
      Schedule.push_back({T, HeavySolve, uint32_t(Arrivals.below(Heavy.size()))});
  }
  {
    ColdCaches Cold;
    for (const ScheduledOp &Op : Schedule) {
      if (Op.Kind != Decide || DecideBodies.count(Op.Index))
        continue;
      DecideInput D = decidePair(Ctx.Seed, Op.Index);
      bool Ok = false;
      DecideRef[Op.Index] = referenceSubset(D.Lhs, D.Rhs, Ok);
      if (!Ok) {
        *Err = "decide pool machine does not round-trip";
        return false;
      }
      Json P = Json::object();
      P["query"] = "subset";
      P["lhs"] = D.Lhs;
      P["rhs"] = D.Rhs;
      DecideBodies[Op.Index] = requestBody("decide", std::move(P));
    }
  }
  ServerConfig Config;
  Config.Shards = Shards;
  Config.Jobs = 1;
  Config.MaxQueue = MaxQueue;
  if (!Server.start(Ctx.WorkDir + "/mix.sock", Config, Err))
    return false;
  // Warm-up to steady state: every corpus instance once, and the first
  // scheduled decides. (Heavy solves mostly meet cold caches in the run
  // too: the pool is large.)
  std::vector<std::string> Warm;
  for (size_t I = 0; I != Corpus.size(); ++I)
    Warm.push_back(withId(-1, CorpusBodies[I]));
  size_t Decides = 0;
  for (const ScheduledOp &Op : Schedule)
    if (Op.Kind == Decide && Decides++ < (Ctx.Smoke ? 100 : 1000))
      Warm.push_back(withId(-1, bodyOf(Op)));
  Client C;
  if (!C.connect(Server.socketPath()) || pipeline(C, Warm).size() != Warm.size()) {
    *Err = "warm-up failed";
    return false;
  }
  return true;
}

TimedRun ServeMix::run() {
  TimedRun Out;
  Out.OpenLoop = true;
  const size_t N = Schedule.size();
  Client Conns[Connections];
  for (Client &C : Conns) // Connected, and the server's readers running.
    if (C.connect(Server.socketPath()))
      C.call(R"({"id":-1,"method":"ping"})");
  Json Before = serverCounters(Server.socketPath());

  std::vector<double> Sent(N, -1.0), Received(N, -1.0);
  std::vector<std::string> Responses(N);
  std::atomic<size_t> SentOn[Connections] = {};
  std::atomic<bool> SenderDone{false};
  const double Start = nowSeconds() + 0.02;
  const double DrainUntil = Start + LeadIn + Ctx.Seconds + 20.0;

  auto Receive = [&](unsigned Conn) {
    size_t Got = 0;
    while (true) {
      if (SenderDone.load() && Got == SentOn[Conn].load())
        break;
      if (nowSeconds() > DrainUntil)
        break;
      std::optional<std::string> Line = Conns[Conn].recv(0.5);
      if (!Line) {
        if (Conns[Conn].timedOut())
          continue;
        break;
      }
      double At = nowSeconds();
      long long Id = responseId(*Line);
      if (Id >= 0 && size_t(Id) < N && Received[size_t(Id)] < 0) {
        Received[size_t(Id)] = At;
        Responses[size_t(Id)] = std::move(*Line);
      }
      ++Got;
    }
  };
  std::vector<std::thread> Receivers;
  for (unsigned Conn = 0; Conn != Connections; ++Conn)
    Receivers.emplace_back(Receive, Conn);
  for (size_t I = 0; I != N; ++I) {
    double Due = Start + Schedule[I].Due;
    double Now = nowSeconds();
    if (Due > Now)
      std::this_thread::sleep_for(std::chrono::duration<double>(Due - Now));
    unsigned Conn = unsigned(I % Connections);
    Sent[I] = nowSeconds();
    if (Conns[Conn].send(withId(static_cast<long long>(I), bodyOf(Schedule[I]))))
      SentOn[Conn].fetch_add(1);
  }
  SenderDone = true;
  for (std::thread &T : Receivers)
    T.join();

  const double Measured = Start + LeadIn;
  double Last = Measured + Ctx.Seconds;
  std::vector<double> Late;
  for (size_t I = 0; I != N; ++I) {
    const ScheduledOp &Op = Schedule[I];
    if (Op.Due < LeadIn)
      continue;
    OpRecord R;
    R.Verb = verbOf(Op.Kind);
    R.Input = Op.Index;
    Late.push_back((Sent[I] - (Start + Op.Due)) * 1e3);
    if (Received[I] < 0) {
      R.Failure = "no_reply";
    } else {
      Last = std::max(Last, Received[I]);
      R.LatencyMs = (Received[I] - (Start + Op.Due)) * 1e3;
      R.Failure = check(Op, Responses[I]);
      R.Ok = R.Failure.empty();
    }
    Out.Ops.push_back(std::move(R));
  }
  Out.WindowSec = Last - Measured;
  Out.LateP99Ms = quantile(Late, 0.99);
  Out.CounterDelta = counterDelta(Before, serverCounters(Server.socketPath()));
  Out.Notes["corpus_instances"] = uint64_t(Corpus.size());
  Out.Notes["corpus_paths_excluded"] = uint64_t(Excluded);
  Out.Notes["corpus_not_rerendered"] = uint64_t(Unparsed);
  Out.Notes["decide_pool_pairs"] = uint64_t(PoolPairs);
  Out.Notes["decide_pairs_drawn"] = uint64_t(DecideBodies.size());
  return Out;
}

std::string ServeMix::check(const ScheduledOp &Op, const std::string &Line) {
  std::optional<Json> Resp = Json::parse(Line);
  if (!Resp)
    return "malformed";
  const Json *Ok = Resp->find("ok");
  if (!Ok || !Ok->isBool())
    return "malformed";
  if (!Ok->asBool()) {
    const Json *E = Resp->find("error");
    const Json *Code = E ? E->find("code") : nullptr;
    return Code && Code->isString() ? Code->asString() : "malformed";
  }
  const Json *ResultPtr = Resp->find("result");
  if (!ResultPtr)
    return "malformed";
  const Json &Result = *ResultPtr;
  if (Op.Kind == Decide) {
    const Json *A = Result.find("answer");
    return A && A->isBool() && A->asBool() == DecideRef.at(Op.Index)
               ? ""
               : "wrong_answer";
  }
  const SolveInput &In = Op.Kind == CorpusSolve ? Corpus[Op.Index] : Heavy[Op.Index];
  std::string Fp = verdictFingerprint(Result);
  bool Sat = Fp.rfind("sat ", 0) == 0;
  if (Op.Kind == CorpusSolve && Fp != CorpusRef[Op.Index])
    return "wrong_answer";
  if (In.KnownSat && !Sat)
    return "wrong_answer";
  if (!Sat)
    return "";
  uint64_t Key = (uint64_t(Op.Kind) << 32) | Op.Index;
  if (Replayed.count({Key, Fp}))
    return "";
  std::string Why;
  const Json *Assignments = Result.find("assignments");
  if (!Assignments ||
      !replayWitnesses(In.System.Constraints, *Assignments, Regexes, &Why)) {
    std::fprintf(stderr, "serve_mix: %s\n", Why.c_str());
    return "wrong_answer";
  }
  Replayed.insert({Key, Fp});
  return "";
}

void ServeMix::layers(const TimedRun &Loaded, LayerReport &Out) {
  // The replay sample: the distinct requests among the first scheduled
  // ops, in schedule order (so the mix is represented).
  std::vector<ScheduledOp> Sample;
  std::set<std::pair<int, uint32_t>> Seen;
  size_t Want = Ctx.Smoke ? 60 : 400;
  for (const ScheduledOp &Op : Schedule) {
    if (Sample.size() == Want)
      break;
    if (Seen.insert({int(Op.Kind), Op.Index}).second)
      Sample.push_back(Op);
  }
  std::vector<std::string> Lines;
  for (size_t I = 0; I != Sample.size(); ++I)
    Lines.push_back(withId(static_cast<long long>(I), bodyOf(Sample[I])));

  // Unloaded round trips through the router (warm) and straight to a
  // SolverService configured like one worker (warmed by a first pass).
  std::string Err;
  ServerConfig Plain;
  Plain.Jobs = 1;
  Plain.MaxQueue = MaxQueue;
  std::vector<double> ViaRouter, ViaService, Handle;
  std::vector<std::string> Responses;
  if (Direct.start(Ctx.WorkDir + "/direct.sock", Plain, &Err)) {
    roundTripsUs(Direct.socketPath(), Lines);
    ViaService = roundTripsUs(Direct.socketPath(), Lines);
    Direct.stop();
  }
  roundTripsUs(Server.socketPath(), Lines);
  ViaRouter = roundTripsUs(Server.socketPath(), Lines, &Responses);
  Handle = handleUs(Lines, 1);
  measureWire(Lines, Responses, Out);

  std::vector<double> Transport, Hop;
  std::map<std::pair<int, uint32_t>, double> UnloadedMs;
  for (size_t I = 0; I != Sample.size() && I < ViaService.size() &&
                     I < ViaRouter.size() && I < Handle.size();
       ++I) {
    Transport.push_back(ViaService[I] - Handle[I] -
                        Out.Metrics["service.wire_emit_us"]);
    Hop.push_back(ViaRouter[I] - ViaService[I]);
    UnloadedMs[{int(Sample[I].Kind), Sample[I].Index}] = ViaRouter[I] / 1e3;
  }
  Out.Metrics["service.handle_us"] = median(Handle);
  Out.Metrics["service.transport_us"] = median(Transport);
  Out.Metrics["service.router_hop_us"] = median(Hop);

  // Queue wait: loaded latency minus the unloaded latency of the same
  // request, over loaded ops whose request was replayed.
  std::vector<double> Wait;
  size_t Shed = 0;
  std::vector<double> DecideLat, SolveLat;
  for (const OpRecord &R : Loaded.Ops) {
    if (R.Failure == "overloaded")
      ++Shed;
    if (!R.Ok)
      continue;
    (R.Verb == "decide" ? DecideLat : SolveLat).push_back(R.LatencyMs);
    auto It = UnloadedMs.find({int(kindOf(R.Verb)), uint32_t(R.Input)});
    if (It != UnloadedMs.end())
      Wait.push_back(R.LatencyMs - It->second);
  }
  Out.Metrics["service.queue_wait_p99_ms"] = quantile(Wait, 0.99);
  Out.Metrics["service.shed_rate"] = ratio(double(Shed), double(Loaded.Ops.size()));
  Out.Metrics["serve.decide.latency_p99_ms"] = quantile(DecideLat, 0.99);
  Out.Metrics["serve.solve.latency_p99_ms"] = quantile(SolveLat, 0.99);
  Out.Metrics["loadgen.late_p99_ms"] = Loaded.LateP99Ms;
  counterLayers(Loaded.CounterDelta, Out);

  // The decision kernel alone, cache off.
  std::vector<double> DecideUs;
  std::vector<std::pair<std::string, unsigned>> Solves;
  {
    ColdCaches Cold;
    for (const ScheduledOp &Op : Sample) {
      if (Op.Kind != Decide) {
        const SolveInput &In = Op.Kind == CorpusSolve ? Corpus[Op.Index] : Heavy[Op.Index];
        Solves.push_back({In.Text, In.MaxSolutions});
        continue;
      }
      DecideInput D = decidePair(Ctx.Seed, Op.Index);
      NfaParseResult L = parseNfa(D.Lhs), R = parseNfa(D.Rhs);
      DecideUs.push_back(timeUs([&] { subsetOf(*L.Machine, *R.Machine); }));
    }
  }
  Out.Metrics["automata.decide_us"] = median(DecideUs);
  measureSolverLayers(Solves, 1, Ctx.Smoke ? 0.5 : 2.0, Out);
  measureTraceOverhead([&] { handleUs(Lines, 1); }, Out);

  Out.Breakdown = {
      {"service.handle", median(Handle) / 1e3},
      {"service.wire_emit", Out.Metrics["service.wire_emit_us"] / 1e3},
      {"service.transport", median(Transport) / 1e3},
      {"service.router_hop", median(Hop) / 1e3},
      {"service.queue_wait", median(Wait)},
  };
}

} // namespace

std::unique_ptr<Workload> makeServeMix(const WorkloadContext &Ctx) {
  return std::make_unique<ServeMix>(Ctx);
}

} // namespace ledger
