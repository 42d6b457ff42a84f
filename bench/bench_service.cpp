//===- bench_service.cpp - Concurrent solving-service throughput ----------===//
//
// Pushes the Figure 11 corpus through `dprle serve`'s scheduler at job
// counts {1, 2, 4, 8}: every sink path of every corpus file becomes one
// NDJSON solve request, and each configuration answers the same batch.
//
// The scaling batch is the corpus batch four times over, answered with
// the machine memos switched off (DecisionCache::setEnabled(false), as
// `--no-decision-cache` does) at every job count. One corpus request,
// warp/xw_mn.php#0, is most of the corpus batch's serial time: a single
// gci over one 161-constraint CI-group. One copy of it is one job, so a
// single batch cannot scale past it; four copies, with no memo to let
// the later ones reuse the first one's work, give each worker one.
//
// Two gates:
//   * correctness (always enforced): the per-request verdicts at jobs=4
//     must be identical to the serial run — the service's determinism
//     guarantee (docs/SERVICE.md);
//   * scaling (enforced only when the hardware has >= 4 cores): jobs=4
//     must beat jobs=1 by >= 2.5x on the scaling batch's wall time. On
//     smaller machines the measured ratio is reported and the gate is
//     skipped — a 1-core container cannot demonstrate parallel speedup.
//
// Emits BENCH_service.json with per-configuration throughput and p50/p95
// request latency (the per-request solver wall time reported in each
// response).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "automata/Decide.h"
#include "automata/Serialize.h"
#include "miniphp/Cfg.h"
#include "miniphp/Corpus.h"
#include "miniphp/Parser.h"
#include "miniphp/SymExec.h"
#include "miniphp/Unroll.h"
#include "service/FdIo.h"
#include "service/Listener.h"
#include "service/Router.h"
#include "service/Service.h"
#include "solver/ConstraintParser.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

// The sharded scenarios fork worker processes, which ThreadSanitizer
// cannot follow; they are skipped (and their gates auto-pass) there.
#if defined(__SANITIZE_THREAD__)
#define DPRLE_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DPRLE_TSAN_ACTIVE 1
#endif
#endif
#ifndef DPRLE_TSAN_ACTIVE
#define DPRLE_TSAN_ACTIVE 0
#endif

using namespace dprle;
using namespace dprle::miniphp;
using namespace dprle::service;

namespace {

/// One prepared request: an id, the NDJSON line carrying it, and the
/// constraint text it was built from (the affinity batch re-derives
/// decide queries from it).
struct PreparedRequest {
  std::string Id;
  std::string Line;
  std::string Constraints;
};

/// Sink paths per file pushed through the service. The corpus has files
/// with many redundant paths; a handful per file keeps the batch
/// representative without repeating near-identical instances. The number
/// dropped is reported in the artifact (paths_dropped).
constexpr size_t MaxPathsPerFile = 4;

/// Copies of the corpus batch in the scaling batch (see the file comment).
constexpr size_t ScalingCopies = 4;

std::string solveRequestLine(const std::string &Id,
                             const std::string &Constraints) {
  Json Req = Json::object();
  Req["id"] = Id;
  Req["method"] = "solve";
  Json Params = Json::object();
  Params["constraints"] = Constraints;
  Params["max_solutions"] = 1;
  Req["params"] = std::move(Params);
  return Req.dump(0);
}

/// The constraint text of \p Instance with every variable renamed to an
/// identifier the constraint grammar accepts (docs/CONSTRAINTS.md): the
/// symbolic executor names inputs "_POST:id", and ':' is not an identifier
/// character. The index prefix keeps the renamed variables distinct.
std::string requestConstraints(const Problem &Instance) {
  Problem Renamed;
  for (VarId V = 0; V != Instance.numVariables(); ++V) {
    std::string Name = "v" + std::to_string(V) + "_";
    for (char C : Instance.variableName(V))
      Name += std::isalnum(static_cast<unsigned char>(C)) ? C : '_';
    Renamed.addVariable(std::move(Name));
  }
  for (const Constraint &C : Instance.constraints())
    Renamed.addConstraint(C.Lhs, C.Rhs, C.RhsName);
  return Renamed.str();
}

/// Figure 11 corpus -> one solve request per (capped) sink path.
std::vector<PreparedRequest> buildBatch(size_t &PathsDropped) {
  std::vector<PreparedRequest> Out;
  SymExecOptions SymOpts;
  SymOpts.TaintPrune = true;
  for (const Suite &S : figure11Suites()) {
    for (const SuiteFile &F : S.Files) {
      ParseResult P = parseProgram(F.Source);
      if (!P.Ok) {
        std::fprintf(stderr, "parse error in %s/%s: %s\n", S.Name.c_str(),
                     F.Name.c_str(), P.Error.c_str());
        continue;
      }
      Program Unrolled = unrollLoops(P.Prog, 3);
      Cfg G = Cfg::build(Unrolled);
      std::vector<PathCondition> Paths =
          enumerateSinkPaths(Unrolled, G, AttackSpec::sqlQuote(), SymOpts);
      size_t Take = std::min(Paths.size(), MaxPathsPerFile);
      PathsDropped += Paths.size() - Take;
      for (size_t I = 0; I != Take; ++I) {
        std::string Id =
            S.Name + "/" + F.Name + "#" + std::to_string(I);
        std::string Constraints = requestConstraints(Paths[I].Instance);
        Out.push_back({Id, solveRequestLine(Id, Constraints), Constraints});
      }
    }
  }
  return Out;
}

/// The verdict-relevant slice of a response, for cross-configuration
/// comparison: satisfiable + the full assignment list (or the error code).
std::string verdictKey(const Json &Resp) {
  const Json *Ok = Resp.find("ok");
  if (!Ok || !Ok->isBool())
    return "malformed:" + Resp.dump(0);
  if (!Ok->asBool())
    return "error:" + Resp.find("error")->find("code")->asString();
  const Json *Result = Resp.find("result");
  Json Key = Json::object();
  Key["satisfiable"] = *Result->find("satisfiable");
  Key["assignments"] = *Result->find("assignments");
  return Key.dump(0);
}

struct BatchOutcome {
  double WallSeconds = 0.0;
  /// Id -> verdict key.
  std::map<std::string, std::string> Verdicts;
  /// Per-request solver wall times, sorted ascending.
  std::vector<double> Latencies;
};

BatchOutcome runBatch(const std::vector<PreparedRequest> &Batch,
                      const ServiceOptions &Opts) {
  std::string Input;
  for (const PreparedRequest &R : Batch)
    Input += R.Line + "\n";
  std::istringstream In(Input);
  std::ostringstream Out;

  SolverService Service(Opts);
  Timer Clock;
  Service.serve(In, Out);

  BatchOutcome Outcome;
  Outcome.WallSeconds = Clock.seconds();
  std::istringstream Lines(Out.str());
  std::string Line;
  while (std::getline(Lines, Line)) {
    if (Line.empty())
      continue;
    std::optional<Json> Resp = Json::parse(Line);
    if (!Resp) {
      std::fprintf(stderr, "unparseable response: %s\n", Line.c_str());
      continue;
    }
    Outcome.Verdicts[Resp->find("id")->asString()] = verdictKey(*Resp);
    if (const Json *Result = Resp->find("result"))
      if (const Json *Solver = Result->find("solver"))
        if (const Json *Seconds = Solver->find("solve_seconds"))
          Outcome.Latencies.push_back(Seconds->asDouble());
  }
  std::sort(Outcome.Latencies.begin(), Outcome.Latencies.end());
  return Outcome;
}

double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  size_t Index = static_cast<size_t>(P * double(Sorted.size() - 1) + 0.5);
  return Sorted[std::min(Index, Sorted.size() - 1)];
}

/// Pushes \p Batch through a Unix-domain-socket Listener backed by a
/// jobs=\p Jobs SolverService: a writer thread pipelines every request
/// while the caller thread collects responses, end to end over the real
/// network front end.
BatchOutcome runSocketBatch(const std::vector<PreparedRequest> &Batch,
                            unsigned Jobs) {
  BatchOutcome Outcome;
  ServiceOptions Opts;
  Opts.Jobs = Jobs;
  SolverService Service(Opts);
  service::Listener Front(Service, service::ListenerOptions{});
  std::string Path = "/tmp/dprle-bench-" +
                     std::to_string(static_cast<unsigned long>(::getpid())) +
                     ".sock";
  std::string Err;
  if (!Front.listenUnix(Path, &Err)) {
    std::fprintf(stderr, "listenUnix: %s\n", Err.c_str());
    return Outcome;
  }
  Front.start();

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  if (Fd < 0 || ::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                          sizeof(Addr)) != 0) {
    std::fprintf(stderr, "connect %s failed\n", Path.c_str());
    if (Fd >= 0)
      ::close(Fd);
    Front.stop();
    return Outcome;
  }

  std::string Input;
  for (const PreparedRequest &R : Batch)
    Input += R.Line + "\n";
  Timer Clock;
  // Write and read concurrently: reading keeps the server's response
  // writes draining, so a full socket buffer can never stall the pool.
  std::thread Writer([&] {
    service::writeAllFd(Fd, Input.data(), Input.size());
  });
  service::FdLineReader Lines(Fd);
  for (size_t I = 0; I != Batch.size(); ++I) {
    std::optional<std::string> Line = Lines.readLine();
    if (!Line)
      break;
    std::optional<Json> Resp = Json::parse(*Line);
    if (!Resp)
      continue;
    Outcome.Verdicts[Resp->find("id")->asString()] = verdictKey(*Resp);
    if (const Json *Result = Resp->find("result"))
      if (const Json *Solver = Result->find("solver"))
        if (const Json *Seconds = Solver->find("solve_seconds"))
          Outcome.Latencies.push_back(Seconds->asDouble());
  }
  Outcome.WallSeconds = Clock.seconds();
  Writer.join();
  ::close(Fd);
  Front.stop();
  std::sort(Outcome.Latencies.begin(), Outcome.Latencies.end());
  return Outcome;
}

/// Pushes \p Batch through a --shards=\p Shards Router (one forked
/// worker process per shard) via the same stdio loop `dprle serve` uses.
BatchOutcome runShardedBatch(const std::vector<PreparedRequest> &Batch,
                             unsigned Shards) {
  BatchOutcome Outcome;
  service::RouterOptions ROpts;
  ROpts.Shards = Shards;
  service::Router R(ROpts);
  std::string Err;
  if (!R.start(&Err)) {
    std::fprintf(stderr, "router start: %s\n", Err.c_str());
    return Outcome;
  }
  std::string Input;
  for (const PreparedRequest &Req : Batch)
    Input += Req.Line + "\n";
  std::istringstream In(Input);
  std::ostringstream Out;
  Timer Clock;
  serveStreams(R, In, Out);
  Outcome.WallSeconds = Clock.seconds();
  R.stop();
  std::istringstream OutLines(Out.str());
  std::string Line;
  while (std::getline(OutLines, Line)) {
    if (Line.empty())
      continue;
    std::optional<Json> Resp = Json::parse(Line);
    if (!Resp)
      continue;
    Outcome.Verdicts[Resp->find("id")->asString()] = verdictKey(*Resp);
  }
  return Outcome;
}

std::string decideRequestLine(const std::string &Id, const std::string &Lhs,
                              const std::string &Rhs) {
  Json Req = Json::object();
  Req["id"] = Id;
  Req["method"] = "decide";
  Json Params = Json::object();
  Params["query"] = "subset";
  Params["lhs"] = Lhs;
  Params["rhs"] = Rhs;
  Req["params"] = std::move(Params);
  return Req.dump(0);
}

/// Derives a decide batch from the solve batch's constraint machines:
/// every constant-term subset query, deduplicated, two passes — the
/// second pass repeats every query, so its hit rate measures how well the
/// serving topology keeps the decision cache warm.
std::vector<PreparedRequest>
buildDecideBatch(const std::vector<PreparedRequest> &SolveBatch,
                 size_t MaxUnique) {
  std::vector<std::pair<std::string, std::string>> Unique;
  std::set<std::string> Seen;
  for (const PreparedRequest &R : SolveBatch) {
    if (Unique.size() == MaxUnique)
      break;
    if (R.Constraints.empty())
      continue;
    ConstraintParseResult Parsed = parseConstraintText(R.Constraints);
    if (!Parsed.Ok)
      continue;
    // Corpus machines whose labels the textual NFA format cannot
    // round-trip (e.g. a bare space transition) are skipped: the batch
    // must measure cache behavior, not serializer coverage.
    auto RoundTrips = [](const std::string &Text) {
      return parseNfa(Text).ok();
    };
    for (const Constraint &C : Parsed.Instance.constraints()) {
      std::string Rhs = serializeNfa(C.Rhs);
      if (!RoundTrips(Rhs))
        continue;
      for (const Term &T : C.Lhs) {
        if (T.isVariable() || Unique.size() == MaxUnique)
          continue;
        std::string Lhs = serializeNfa(T.Language);
        std::string Key = Lhs + "\x01" + Rhs;
        if (!Seen.insert(Key).second || !RoundTrips(Lhs))
          continue;
        Unique.emplace_back(std::move(Lhs), Rhs);
      }
    }
  }
  std::vector<PreparedRequest> Out;
  for (int Pass = 0; Pass != 2; ++Pass)
    for (size_t I = 0; I != Unique.size(); ++I) {
      std::string Id =
          "affinity-p" + std::to_string(Pass) + "#" + std::to_string(I);
      Out.push_back(
          {Id, decideRequestLine(Id, Unique[I].first, Unique[I].second), ""});
    }
  return Out;
}

double statsCounter(const Json &Resp, const char *Name) {
  const Json *Result = Resp.find("result");
  const Json *Counters = Result ? Result->find("counters") : nullptr;
  const Json *V = Counters ? Counters->find(Name) : nullptr;
  return V && V->isNumber() ? V->asDouble() : 0.0;
}

/// Decision-cache hit rate over one run of the affinity batch, measured
/// from the stats responses bracketing it (summed across shards when the
/// handler is a router).
struct AffinityOutcome {
  double Hits = 0.0;
  double Misses = 0.0;
  size_t DecidesAnswered = 0;
  double hitRate() const {
    double Total = Hits + Misses;
    return Total > 0.0 ? Hits / Total : 0.0;
  }
};

AffinityOutcome affinityFromOutput(const std::string &Output) {
  AffinityOutcome O;
  Json Before, After;
  std::istringstream Lines(Output);
  std::string Line;
  while (std::getline(Lines, Line)) {
    if (Line.empty())
      continue;
    std::optional<Json> Resp = Json::parse(Line);
    if (!Resp)
      continue;
    std::string Id = Resp->find("id")->asString();
    if (Id == "affinity-stats-before")
      Before = *Resp;
    else if (Id == "affinity-stats-after")
      After = *Resp;
    else if (const Json *Ok = Resp->find("ok")) {
      if (Ok->isBool() && Ok->asBool())
        ++O.DecidesAnswered;
      else
        std::fprintf(stderr, "affinity non-ok: %s\n", Line.c_str());
    }
  }
  O.Hits = statsCounter(After, "decide.cache_hits") -
           statsCounter(Before, "decide.cache_hits");
  O.Misses = statsCounter(After, "decide.cache_misses") -
             statsCounter(Before, "decide.cache_misses");
  return O;
}

std::string affinityInput(const std::vector<PreparedRequest> &DecideBatch) {
  std::string Input =
      "{\"id\": \"affinity-stats-before\", \"method\": \"stats\"}\n";
  for (const PreparedRequest &R : DecideBatch)
    Input += R.Line + "\n";
  Input += "{\"id\": \"affinity-stats-after\", \"method\": \"stats\"}\n";
  return Input;
}

} // namespace

int main() {
  std::printf("Concurrent solving service: Figure 11 corpus through "
              "`dprle serve` at jobs {1, 2, 4, 8}.\n\n");

  size_t PathsDropped = 0;
  std::vector<PreparedRequest> Batch = buildBatch(PathsDropped);
  if (Batch.empty()) {
    std::fprintf(stderr, "no requests generated from the corpus\n");
    return 1;
  }
  // The first copy keeps the corpus ids, so the serial verdicts of the
  // scaling batch also serve as the reference of the single-batch runs
  // below.
  std::vector<PreparedRequest> Scaling;
  for (size_t Copy = 0; Copy != ScalingCopies; ++Copy)
    for (const PreparedRequest &R : Batch) {
      std::string Id = Copy ? R.Id + "@" + std::to_string(Copy) : R.Id;
      Scaling.push_back(
          {Id, solveRequestLine(Id, R.Constraints), R.Constraints});
    }
  std::printf("batch: %zu solve requests (%zu further sink paths per-file "
              "capped); scaling batch: %zu copies, machine memos off\n\n",
              Batch.size(), PathsDropped, ScalingCopies);
  std::printf("%6s %10s %14s %12s %12s\n", "jobs", "wall (s)",
              "req/s", "p50 (s)", "p95 (s)");
  std::printf("%.*s\n", 58,
              "-----------------------------------------------------------");

  benchjson::BenchReport Report("service");
  std::map<unsigned, BatchOutcome> Outcomes;
  DecisionCache::global().setEnabled(false);
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    ServiceOptions Opts;
    Opts.Jobs = Jobs;
    BatchOutcome O = runBatch(Scaling, Opts);
    std::printf("%6u %10.3f %14.1f %12.4f %12.4f\n", Jobs, O.WallSeconds,
                double(Scaling.size()) / O.WallSeconds,
                percentile(O.Latencies, 0.50), percentile(O.Latencies, 0.95));
    benchjson::BenchRun &Run =
        Report.addRun("jobs_" + std::to_string(Jobs));
    Run.RealSeconds = O.WallSeconds;
    Run.Counters = {
        {"jobs", double(Jobs)},
        {"requests", double(Scaling.size())},
        {"batch_copies", double(ScalingCopies)},
        {"paths_dropped", double(PathsDropped)},
        {"throughput_rps", double(Scaling.size()) / O.WallSeconds},
        {"latency_p50_seconds", percentile(O.Latencies, 0.50)},
        {"latency_p95_seconds", percentile(O.Latencies, 0.95)},
        {"latency_max_seconds",
         O.Latencies.empty() ? 0.0 : O.Latencies.back()},
    };
    Outcomes[Jobs] = std::move(O);
  }
  DecisionCache::global().setEnabled(true);
  // The serial verdicts of the corpus batch itself.
  std::map<std::string, std::string> Serial;
  for (const PreparedRequest &R : Batch)
    Serial[R.Id] = Outcomes[1].Verdicts[R.Id];

  // Correctness gates: every corpus request is well-formed and answered
  // `ok` (an error answer would make the equality gates below compare
  // errors with themselves), and jobs=4 answers match serial exactly.
  size_t Errors = 0;
  for (const auto &[Id, Verdict] : Outcomes[1].Verdicts)
    if (Verdict.rfind("error:", 0) == 0 ||
        Verdict.rfind("malformed:", 0) == 0) {
      ++Errors;
      std::fprintf(stderr, "%s answered %s\n", Id.c_str(), Verdict.c_str());
    }
  bool AllOk = Errors == 0 && Outcomes[1].Verdicts.size() == Scaling.size();
  std::printf("\nserial run: %zu of %zu requests answered an error — %s\n",
              Errors, Scaling.size(), AllOk ? "PASS" : "FAIL");
  bool VerdictsMatch = Outcomes[4].Verdicts == Outcomes[1].Verdicts &&
                       Outcomes[1].Verdicts.size() == Scaling.size();
  std::printf("jobs=4 verdicts %s the serial run (%zu/%zu answered)\n",
              VerdictsMatch ? "MATCH" : "DO NOT MATCH",
              Outcomes[4].Verdicts.size(), Scaling.size());

  // Scaling gate: only meaningful with >= 4 cores.
  double Speedup = Outcomes[4].WallSeconds > 0.0
                       ? Outcomes[1].WallSeconds / Outcomes[4].WallSeconds
                       : 0.0;
  unsigned Cores = std::thread::hardware_concurrency();
  bool ScalingOk = true;
  if (Cores >= 4) {
    ScalingOk = Speedup >= 2.5;
    std::printf("jobs=4 speedup %.2fx over serial (gate: >= 2.5x on %u "
                "cores) — %s\n",
                Speedup, Cores, ScalingOk ? "PASS" : "FAIL");
  } else {
    std::printf("jobs=4 speedup %.2fx over serial — scaling gate skipped "
                "(%u core%s; need >= 4)\n",
                Speedup, Cores, Cores == 1 ? "" : "s");
  }
  benchjson::BenchRun &Gate = Report.addRun("gates");
  Gate.Counters = {{"all_requests_ok", AllOk ? 1.0 : 0.0},
                   {"request_errors", double(Errors)},
                   {"verdicts_match", VerdictsMatch ? 1.0 : 0.0},
                   {"speedup_jobs4", Speedup},
                   {"hardware_threads", double(Cores)},
                   {"scaling_gate_enforced", Cores >= 4 ? 1.0 : 0.0},
                   {"scaling_gate_ok", ScalingOk ? 1.0 : 0.0}};

  // Chaos scenario (docs/ROBUSTNESS.md): pathological budgeted requests —
  // small operands whose product explodes — ride along with normal ones.
  // Gates: every pathological request is answered `resource_exhausted`
  // (structured, within its budget) and the normal requests' verdicts are
  // unchanged by the mayhem next to them.
  constexpr size_t NormalInChaos = 8;
  constexpr size_t PathologicalInChaos = 4;
  std::vector<PreparedRequest> Chaos(
      Batch.begin(),
      Batch.begin() + std::min(Batch.size(), NormalInChaos));
  std::vector<std::string> PathologicalIds;
  for (size_t I = 0; I != PathologicalInChaos; ++I) {
    std::string Id = "pathological#" + std::to_string(I);
    PathologicalIds.push_back(Id);
    Json Req = Json::object();
    Req["id"] = Id;
    Req["method"] = "solve";
    Json Params = Json::object();
    Params["constraints"] = "var v; var w; v . w <= /(a|b)*a(a|b){10}/;";
    Params["max_states"] = 500;
    Params["max_solutions"] = 1;
    Req["params"] = std::move(Params);
    Chaos.push_back({Id, Req.dump(0), ""});
  }

  StatsRegistry::Snapshot StatsBefore = StatsRegistry::global().snapshot();
  ServiceOptions ChaosOpts;
  ChaosOpts.Jobs = 2;
  BatchOutcome ChaosOutcome = runBatch(Chaos, ChaosOpts);
  StatsRegistry::Snapshot StatsDelta = StatsRegistry::delta(
      StatsBefore, StatsRegistry::global().snapshot());

  bool ChaosOk = true;
  for (const std::string &Id : PathologicalIds)
    if (ChaosOutcome.Verdicts[Id] != "error:resource_exhausted")
      ChaosOk = false;
  for (size_t I = 0; I != std::min(Batch.size(), NormalInChaos); ++I)
    if (ChaosOutcome.Verdicts[Batch[I].Id] != Serial[Batch[I].Id])
      ChaosOk = false;
  std::printf("chaos: %zu pathological + %zu normal requests, "
              "budget-governed — %s\n",
              PathologicalIds.size(), std::min(Batch.size(), NormalInChaos),
              ChaosOk ? "PASS" : "FAIL");

  benchjson::BenchRun &ChaosRun = Report.addRun("chaos");
  ChaosRun.RealSeconds = ChaosOutcome.WallSeconds;
  ChaosRun.Counters = {
      {"chaos_gate_ok", ChaosOk ? 1.0 : 0.0},
      {"pathological_requests", double(PathologicalIds.size())},
  };
  for (const auto &[Name, Value] : StatsDelta)
    if (Name.rfind("budget.", 0) == 0 || Name.rfind("fault.", 0) == 0)
      ChaosRun.Counters.emplace_back(Name, double(Value));

  // Socket scenario: the same batch end to end over a Unix-domain-socket
  // Listener at jobs=4. Gate: verdicts identical to the serial stdio run.
  BatchOutcome SocketOutcome = runSocketBatch(Batch, 4);
  bool SocketOk = SocketOutcome.Verdicts == Serial;
  std::printf("\nsocket (unix, jobs=4): %.3fs wall, %.1f req/s — "
              "verdicts %s the serial run\n",
              SocketOutcome.WallSeconds,
              double(Batch.size()) / SocketOutcome.WallSeconds,
              SocketOk ? "MATCH" : "DO NOT MATCH");
  benchjson::BenchRun &SocketRun = Report.addRun("socket");
  SocketRun.RealSeconds = SocketOutcome.WallSeconds;
  SocketRun.Counters = {
      {"jobs", 4.0},
      {"requests", double(Batch.size())},
      {"throughput_rps", double(Batch.size()) / SocketOutcome.WallSeconds},
      {"latency_p50_seconds", percentile(SocketOutcome.Latencies, 0.50)},
      {"latency_p95_seconds", percentile(SocketOutcome.Latencies, 0.95)},
      {"socket_verdicts_match", SocketOk ? 1.0 : 0.0},
  };

  // Sharded scenario: the batch through a --shards=4 router fleet.
  // Gates: verdicts bit-identical to single-process serve, and the
  // content-affinity routing keeps shard caches at least as hot as one
  // shared in-process cache (decide batch hit-rate comparison).
  bool ShardedOk = true;
  bool AffinityOk = true;
  if (DPRLE_TSAN_ACTIVE) {
    std::printf("shards=4 scenario skipped under ThreadSanitizer (fork)\n");
    benchjson::BenchRun &ShardRun = Report.addRun("shards_4");
    ShardRun.Counters = {{"skipped_tsan", 1.0}};
  } else {
    BatchOutcome ShardedOutcome = runShardedBatch(Batch, 4);
    ShardedOk = ShardedOutcome.Verdicts == Serial;
    std::printf("shards=4 (4 worker processes): %.3fs wall, %.1f req/s — "
                "verdicts %s the single-process run\n",
                ShardedOutcome.WallSeconds,
                double(Batch.size()) / ShardedOutcome.WallSeconds,
                ShardedOk ? "MATCH" : "DO NOT MATCH");

    // Affinity comparison. Both topologies answer the identical decide
    // batch from a cold cache: DecisionCache::global() is cleared before
    // the single-process run, and cleared again before the router forks
    // so every worker inherits an empty cache.
    std::vector<PreparedRequest> DecideBatch = buildDecideBatch(Batch, 48);
    std::string Input = affinityInput(DecideBatch);
    AffinityOutcome Single, Sharded;
    {
      DecisionCache::global().clear();
      std::istringstream In(Input);
      std::ostringstream Out;
      ServiceOptions Opts;
      Opts.Jobs = 1;
      SolverService Service(Opts);
      Service.serve(In, Out);
      Single = affinityFromOutput(Out.str());
    }
    {
      DecisionCache::global().clear();
      service::RouterOptions ROpts;
      ROpts.Shards = 4;
      service::Router R(ROpts);
      std::string Err;
      if (R.start(&Err)) {
        std::istringstream In(Input);
        std::ostringstream Out;
        serveStreams(R, In, Out);
        R.stop();
        Sharded = affinityFromOutput(Out.str());
      } else {
        std::fprintf(stderr, "affinity router start: %s\n", Err.c_str());
      }
    }
    bool AllAnswered = Single.DecidesAnswered == DecideBatch.size() &&
                       Sharded.DecidesAnswered == DecideBatch.size();
    if (!AllAnswered)
      std::fprintf(stderr,
                   "affinity: answered single=%zu sharded=%zu of %zu\n",
                   Single.DecidesAnswered, Sharded.DecidesAnswered,
                   DecideBatch.size());
    AffinityOk = AllAnswered && Sharded.hitRate() >= Single.hitRate() - 1e-9;
    std::printf("affinity: %zu decide requests, cache hit rate %.1f%% "
                "sharded vs %.1f%% single-process (gate: sharded >= "
                "single) — %s\n",
                DecideBatch.size(), 100.0 * Sharded.hitRate(),
                100.0 * Single.hitRate(), AffinityOk ? "PASS" : "FAIL");

    benchjson::BenchRun &ShardRun = Report.addRun("shards_4");
    ShardRun.RealSeconds = ShardedOutcome.WallSeconds;
    ShardRun.Counters = {
        {"shards", 4.0},
        {"requests", double(Batch.size())},
        {"throughput_rps",
         double(Batch.size()) / ShardedOutcome.WallSeconds},
        {"sharded_verdicts_match", ShardedOk ? 1.0 : 0.0},
        {"affinity_decide_requests", double(DecideBatch.size())},
        {"cache_hit_rate_single", Single.hitRate()},
        {"cache_hit_rate_sharded", Sharded.hitRate()},
        {"affinity_gate_ok", AffinityOk ? 1.0 : 0.0},
    };
  }

  Report.write();
  return AllOk && VerdictsMatch && ScalingOk && ChaosOk && SocketOk &&
                 ShardedOk && AffinityOk
             ? 0
             : 1;
}
