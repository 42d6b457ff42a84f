//===- Layers.cpp - Per-layer measurements from outside -------------------===//
//
// Every number here comes from timing a public entry point of one layer,
// or from the spans the library already records when the trace collector
// is armed. Nothing is added inside the library.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"
#include "Transport.h"
#include "Workload.h"

#include "automata/CsrNfa.h"
#include "automata/Decide.h"
#include "automata/OpStats.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "service/ThreadPool.h"
#include "solver/ConstraintParser.h"
#include "solver/DependencyGraph.h"
#include "solver/Solver.h"
#include "support/Trace.h"

#include <chrono>

using namespace dprle;

namespace ledger {

double timeUs(const std::function<void()> &Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

double configNumber(const Json &Config, const char *Key) {
  const Json *V = Config.find(Key);
  if (!V || !V->isNumber()) {
    std::fprintf(stderr, "ledger: workloads.json lacks number \"%s\"\n", Key);
    std::exit(2);
  }
  return V->asDouble();
}

Json counterDelta(const Json &Before, const Json &After) {
  Json Out = Json::object();
  for (const auto &[Name, V] : After.members())
    if (V.isNumber())
      Out[Name] = V.asDouble() - counter(Before, Name.c_str());
  return Out;
}

void counterLayers(const Json &Delta, LayerReport &Out) {
  auto C = [&](const char *Name) { return counter(Delta, Name); };
  Out.Metrics["automata.decide_cache_hit_ratio"] =
      ratio(C("decide.cache_hits"), C("decide.cache_hits") + C("decide.cache_misses"));
  Out.Metrics["automata.decide_cache_evictions"] = C("decide.cache_evictions");
  Out.Metrics["automata.csr_reuse_ratio"] =
      ratio(C("csr.reuses"), C("csr.reuses") + C("csr.builds"));
  Out.Metrics["automata.minimize_hit_ratio"] =
      ratio(C("minimize.hits"), C("minimize.hits") + C("minimize.misses"));
  Out.Metrics["session.groups_reused_ratio"] =
      ratio(C("session.groups_reused"), C("session.groups_total"));
}

namespace {

/// Total and self time (ms) per span name over a trace forest.
struct SpanTotals {
  std::map<std::string, double> Total, Self;

  void add(const Json &Span) {
    const Json *Name = Span.find("name");
    const Json *Dur = Span.find("duration_seconds");
    if (!Name || !Dur)
      return;
    double Ms = Dur->asDouble() * 1e3, ChildMs = 0.0;
    if (const Json *Kids = Span.find("children"))
      for (const Json &K : Kids->elements()) {
        if (const Json *D = K.find("duration_seconds"))
          ChildMs += D->asDouble() * 1e3;
        add(K);
      }
    Total[Name->asString()] += Ms;
    Self[Name->asString()] += std::max(0.0, Ms - ChildMs);
  }
};

SpanTotals tracedRun(const std::function<void()> &Fn) {
  TraceCollector &T = TraceCollector::global();
  T.setMaxSpans(size_t(1) << 20);
  T.start();
  Fn();
  T.stop();
  SpanTotals Out;
  Json Trace = T.toJson();
  if (const Json *Spans = Trace.find("spans"))
    for (const Json &S : Spans->elements())
      Out.add(S);
  return Out;
}

} // namespace

void measureSolverLayers(
    const std::vector<std::pair<std::string, unsigned>> &Texts, unsigned Jobs,
    double BudgetSec, LayerReport &Out) {
  std::vector<double> Parse, Build, Solve1, Reduce, Gci, Assemble, Csr,
      States, Intersect, Determinize;
  double Serial = 0.0, Parallel = 0.0;
  service::ThreadPool Pool(Jobs);
  double Deadline = nowSeconds() + BudgetSec;
  for (const auto &[Text, MaxSolutions] : Texts) {
    if (nowSeconds() > Deadline && !Parse.empty())
      break;
    ConstraintParseResult Parsed;
    Parse.push_back(timeUs([&] { Parsed = parseConstraintText(Text); }) / 1e3);
    if (!Parsed.Ok)
      continue;
    const Problem &P = Parsed.Instance;
    Build.push_back(timeUs([&] { DependencyGraph::build(P); }) / 1e3);
    for (const Constraint &C : P.constraints()) {
      Csr.push_back(timeUs([&] { CsrNfa View(C.Rhs); }));
      for (const Term &T : C.Lhs)
        if (!T.isVariable())
          Csr.push_back(timeUs([&] { CsrNfa View(T.Language); }));
    }

    SolverOptions Opts;
    if (MaxSolutions)
      Opts.MaxSolutions = MaxSolutions;
    // Each solve starts from an empty decision cache, as a distinct
    // request in the service would.
    DecisionCache::global().clear();
    uint64_t StatesBefore = OpStats::global().totalStatesVisited();
    double One = timeUs([&] { Solver(Opts).solve(P); }) / 1e3;
    States.push_back(
        double(OpStats::global().totalStatesVisited() - StatesBefore));
    Solve1.push_back(One);

    SolverOptions ParOpts = Opts;
    ParOpts.Jobs = Jobs;
    ParOpts.Exec = Jobs > 1 ? &Pool : nullptr;
    quiesce();
    DecisionCache::global().clear();
    double Many = timeUs([&] { Solver(ParOpts).solve(P); }) / 1e3;
    Serial += One;
    Parallel += Many;

    quiesce();
    DecisionCache::global().clear();
    SpanTotals S = tracedRun([&] { Solver(Opts).solve(P); });
    Reduce.push_back(S.Total["reduce"]);
    Gci.push_back(S.Total["gci_group"]);
    Assemble.push_back(S.Total["assemble"]);
    Intersect.push_back(S.Self["intersect"]);
    Determinize.push_back(S.Self["determinize"]);
  }
  Out.Metrics["solver.parse_ms"] = median(Parse);
  Out.Metrics["solver.graph_build_ms"] = median(Build);
  Out.Metrics["solver.solve_ms"] = median(Solve1);
  Out.Metrics["solver.reduce_ms"] = median(Reduce);
  Out.Metrics["solver.gci_ms"] = median(Gci);
  Out.Metrics["solver.assemble_ms"] = median(Assemble);
  Out.Metrics["solver.parallel_speedup"] = ratio(Serial, Parallel);
  Out.Metrics["automata.csr_build_us"] = median(Csr);
  Out.Metrics["automata.states_visited_per_op"] = median(States);
  Out.Metrics["automata.intersect_ms"] = median(Intersect);
  Out.Metrics["automata.determinize_ms"] = median(Determinize);
}

std::vector<double> roundTripsUs(const std::string &SocketPath,
                                 const std::vector<std::string> &Lines,
                                 std::vector<std::string> *Responses) {
  std::vector<double> Out;
  Client C;
  if (!C.connect(SocketPath))
    return Out;
  for (const std::string &L : Lines) {
    std::optional<std::string> Resp;
    Out.push_back(timeUs([&] { Resp = C.call(L); }));
    if (Responses)
      Responses->push_back(Resp.value_or(""));
  }
  return Out;
}

std::vector<double> handleUs(const std::vector<std::string> &Lines,
                             unsigned Jobs) {
  service::ServiceOptions Opts;
  Opts.Jobs = Jobs;
  service::SolverService Service(Opts);
  std::vector<double> Out;
  for (const std::string &L : Lines) {
    Service.handleLine(L);
    Out.push_back(timeUs([&] { Service.handleLine(L); }));
  }
  return Out;
}

void measureWire(const std::vector<std::string> &Requests,
                 const std::vector<std::string> &Responses, LayerReport &Out) {
  std::vector<double> Parse, Emit;
  for (size_t I = 0; I != Requests.size() && I != Responses.size(); ++I) {
    std::optional<Json> Resp;
    double Us = timeUs([&] { service::parseRequest(Requests[I]); });
    Us += timeUs([&] { Resp = Json::parse(Responses[I]); });
    Parse.push_back(Us);
    if (Resp)
      Emit.push_back(timeUs([&] { Resp->dump(0); }));
  }
  Out.Metrics["service.wire_parse_us"] = median(Parse);
  Out.Metrics["service.wire_emit_us"] = median(Emit);
}

void measureTraceOverhead(const std::function<void()> &Fn, LayerReport &Out) {
  Fn(); // Warm both measured passes alike.
  std::vector<double> Untraced, Traced;
  for (int Pair = 0; Pair != 3; ++Pair) {
    Untraced.push_back(timeUs(Fn) / 1e3);
    tracedRun([&] { Traced.push_back(timeUs(Fn) / 1e3); });
  }
  Out.UntracedMs = median(Untraced);
  Out.TracedMs = median(Traced);
}

} // namespace ledger
