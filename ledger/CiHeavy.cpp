//===- CiHeavy.cpp - Closed-loop distinct heavy solves --------------------===//
//
// One connection, closed loop, to a Listener fronting a SolverService at
// jobs=min(4, nproc). Every request is a distinct seeded constraint
// system (concat chains of depth 2-4 over 16-64 state machines in
// several independent CI-groups; max_solutions=1 mixed with bounded
// enumeration), so the caches cannot serve across requests and the only
// parallelism is inside one solve.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Oracle.h"
#include "Transport.h"
#include "Workload.h"

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "service/Service.h"

using namespace dprle;

namespace ledger {

namespace {

std::string solveLine(size_t Id, const SolveInput &In) {
  Json Req = Json::object();
  Req["id"] = uint64_t(Id);
  Req["method"] = "solve";
  Json P = Json::object();
  P["constraints"] = In.Text;
  if (In.MaxSolutions)
    P["max_solutions"] = In.MaxSolutions;
  Req["params"] = std::move(P);
  return Req.dump(0);
}

/// Independent CI-groups per system.
constexpr unsigned Groups = 4;
/// Inputs generated per second of run: above the fastest rate seen
/// (about 300 solves/s on 4 cores), so the pool never runs out.
constexpr double PoolPerSecond = 400;

class CiHeavy final : public Workload {
public:
  explicit CiHeavy(const WorkloadContext &Ctx)
      : Ctx(Ctx), Jobs(std::min(4u, std::max(1u, Ctx.Nproc))) {}
  ~CiHeavy() override { tearDown(); }

  bool setUp(std::string *Err) override {
    size_t PoolSize = size_t(PoolPerSecond * Ctx.Seconds) + 64;
    Rng R(subSeed(Ctx.Seed, 3));
    Pool.clear();
    for (size_t I = 0; I != PoolSize; ++I)
      Pool.push_back(heavyInput(R, Groups, /*Enumerate=*/true));
    ServerConfig Config;
    Config.Jobs = Jobs;
    if (!Server.start(Ctx.WorkDir + "/heavy.sock", Config, Err))
      return false;
    // Warm the process (code, allocator) on instances never measured.
    Rng WarmRng(subSeed(Ctx.Seed, 4));
    std::vector<std::string> Warm;
    for (size_t I = 0; I != 8; ++I)
      Warm.push_back(solveLine(I, heavyInput(WarmRng, Groups, /*Enumerate=*/true)));
    Client C;
    if (!C.connect(Server.socketPath()) ||
        pipeline(C, Warm).size() != Warm.size()) {
      *Err = "warm-up failed";
      return false;
    }
    return true;
  }

  TimedRun run() override {
    TimedRun Out;
    Client C;
    C.connect(Server.socketPath());
    Json Before = serverCounters(Server.socketPath());
    std::vector<std::string> Responses;
    double Start = nowSeconds(), End = Start;
    for (size_t I = 0; End - Start < Ctx.Seconds; ++I) {
      if (I == Pool.size()) {
        std::fprintf(stderr, "ci_heavy: input pool exhausted\n");
        break;
      }
      OpRecord R;
      R.Verb = "solve";
      R.Input = I;
      double T0 = nowSeconds();
      std::optional<std::string> Resp = C.call(solveLine(I, Pool[I]));
      End = nowSeconds();
      R.LatencyMs = (End - T0) * 1e3;
      if (!Resp) {
        R.Failure = "no_reply";
        Out.Ops.push_back(R);
        break;
      }
      Responses.push_back(std::move(*Resp));
      Out.Ops.push_back(R);
    }
    Out.WindowSec = End - Start;
    Out.CounterDelta = counterDelta(Before, serverCounters(Server.socketPath()));
    for (size_t I = 0; I != Responses.size(); ++I) {
      OpRecord &R = Out.Ops[I];
      R.Failure = checkSatResponse(Responses[I], Pool[I].System, Regexes, "ci_heavy");
      R.Ok = R.Failure.empty();
    }
    return Out;
  }

  double peakRssMb() const override { return Server.peakRssMb(); }
  unsigned threads() const override { return Jobs; }
  unsigned clients() const override { return 1; }
  void tearDown() override { Server.stop(); }

  void layers(const TimedRun &Loaded, LayerReport &Out) override {
    // Fresh instances the server has never seen, one at a time.
    Rng R(subSeed(Ctx.Seed, 7));
    std::vector<SolveInput> Sample;
    std::vector<std::string> Lines;
    std::vector<std::pair<std::string, unsigned>> Texts;
    for (size_t I = 0, N = Ctx.Smoke ? 8 : 40; I != N; ++I) {
      Sample.push_back(heavyInput(R, Groups, /*Enumerate=*/true));
      Lines.push_back(solveLine(I, Sample.back()));
      Texts.push_back({Sample.back().Text, Sample.back().MaxSolutions});
    }
    std::vector<std::string> Responses;
    std::vector<double> Rtt = roundTripsUs(Server.socketPath(), Lines, &Responses);
    measureWire(Lines, Responses, Out);

    // handleLine with cold caches, as a distinct request meets them.
    service::ServiceOptions Opts;
    Opts.Jobs = Jobs;
    service::SolverService Service(Opts);
    auto HandleAll = [&](std::vector<double> *Us) {
      for (const std::string &L : Lines) {
        quiesce();
        DecisionCache::global().clear();
        clearMinimizeCache();
        double T = timeUs([&] { Service.handleLine(L); });
        if (Us)
          Us->push_back(T);
      }
    };
    std::vector<double> Handle, Transport;
    HandleAll(&Handle);
    for (size_t I = 0; I != Rtt.size() && I != Handle.size(); ++I)
      Transport.push_back(Rtt[I] - Handle[I] - Out.Metrics["service.wire_emit_us"]);
    Out.Metrics["service.handle_us"] = median(Handle);
    Out.Metrics["service.transport_us"] = median(Transport);
    counterLayers(Loaded.CounterDelta, Out);
    measureSolverLayers(Texts, Jobs, Ctx.Smoke ? 1.0 : 4.0, Out);
    measureTraceOverhead([&] { HandleAll(nullptr); }, Out);

    // Solver::solve includes its graph build; the service's own work
    // (budget, response rendering) is what handleLine adds on top.
    double SolveN = ratio(Out.Metrics["solver.solve_ms"],
                          Out.Metrics["solver.parallel_speedup"]);
    double Parse = Out.Metrics["solver.parse_ms"];
    Out.Breakdown = {
        {"service.transport", median(Transport) / 1e3},
        {"service.wire_emit", Out.Metrics["service.wire_emit_us"] / 1e3},
        {"solver.parse", Parse},
        {"solver.solve_at_jobs", SolveN},
        {"service.handle_rest", median(Handle) / 1e3 - Parse - SolveN},
    };
  }

private:
  WorkloadContext Ctx;
  unsigned Jobs;
  std::vector<SolveInput> Pool;
  ServerProcess Server;
  RegexCache Regexes;
};

} // namespace

std::unique_ptr<Workload> makeCiHeavy(const WorkloadContext &Ctx) {
  return std::make_unique<CiHeavy>(Ctx);
}

} // namespace ledger
