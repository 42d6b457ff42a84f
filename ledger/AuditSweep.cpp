//===- AuditSweep.cpp - Closed-loop multi-policy audits -------------------===//
//
// One caller runs auditSource with all four policies over the Figure 11
// suites plus auditShowcase() (82 files), in a seeded order per sweep; the
// run measures whole sweeps. The decision and minimize caches are cleared
// before every file, because every audit starts cold as a fresh process
// would (so a file's cost does not depend on which files the seeded order
// put before it). The op is one file; its findings must equal the cold
// reference computed in set-up with the caches off.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Oracle.h"
#include "Transport.h"
#include "Workload.h"

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "miniphp/Cfg.h"
#include "miniphp/Inline.h"
#include "miniphp/Parser.h"
#include "miniphp/Slice.h"
#include "miniphp/SymExec.h"
#include "miniphp/Taint.h"
#include "miniphp/Unroll.h"
#include "support/Stats.h"

#include <new>

#include <sched.h>
#include <sys/resource.h>

using namespace dprle;
using namespace dprle::miniphp;

namespace ledger {

namespace {

void clearCaches() {
  DecisionCache::global().clear();
  clearMinimizeCache();
}

/// Moves the calling thread to each of its processors in turn. A single
/// caller left to the scheduler stays on one processor, and on a shared
/// host each processor's speed changes on its own, for tens of seconds at
/// a time, with what the host runs beside it; visiting every processor
/// makes each second of the run sample all of them.
class CpuRotation {
public:
  CpuRotation() {
    if (::sched_getaffinity(0, sizeof(Saved), &Saved) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Saved))
          Cpus.push_back(C);
  }
  ~CpuRotation() {
    if (!Cpus.empty())
      ::sched_setaffinity(0, sizeof(Saved), &Saved);
  }
  void next() {
    if (Cpus.size() < 2)
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Turn++ % Cpus.size()], &One);
    ::sched_setaffinity(0, sizeof(One), &One);
  }

private:
  cpu_set_t Saved;
  std::vector<int> Cpus;
  size_t Turn = 0;
};

class AuditSweep final : public Workload {
public:
  explicit AuditSweep(const WorkloadContext &Ctx) : Ctx(Ctx) {}

  bool setUp(std::string *Err) override {
    Files = auditFiles();
    Policies = allPolicies();
    Reference.clear();
    ColdCaches Cold;
    CpuRotation Rotation;
    for (const AuditFile &F : Files) {
      Rotation.next();
      AuditResult R = auditSource(F.Source, Policies, Opts);
      if (!R.ParseOk) {
        *Err = "audit corpus file does not parse: " + F.Name;
        return false;
      }
      Reference.push_back(auditFingerprint(R));
    }
    return true;
  }

  TimedRun run() override {
    TimedRun Out;
    StatsRegistry::Snapshot Before = StatsRegistry::global().snapshot();
    Rng R(subSeed(Ctx.Seed, 5));
    std::vector<size_t> Order(Files.size());
    const double Start = nowSeconds();
    double End = Start;
    ExploredPaths = 0;
    CpuRotation Rotation;
    // Whole sweeps only.
    while (End - Start < Ctx.Seconds) {
      for (size_t I = 0; I != Order.size(); ++I)
        Order[I] = I;
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[R.below(I)]);
      for (size_t File : Order) {
        OpRecord Op;
        Op.Verb = "file";
        Op.Input = File;
        std::string Fp;
        Rotation.next();
        clearCaches();
        double T0 = nowSeconds();
        try {
          AuditResult Result = auditSource(Files[File].Source, Policies, Opts);
          End = nowSeconds();
          Fp = auditFingerprint(Result);
          for (const PolicyFinding &F : Result.Findings)
            ExploredPaths += F.SinkPaths;
        } catch (const std::bad_alloc &) {
          End = nowSeconds();
          Op.Failure = "internal_error";
        }
        Op.LatencyMs = (End - T0) * 1e3;
        if (Op.Failure.empty() && Fp != Reference[File])
          Op.Failure = "wrong_answer";
        Op.Ok = Op.Failure.empty();
        Out.Ops.push_back(std::move(Op));
      }
    }
    Out.WindowSec = End - Start;
    Out.CounterDelta = StatsRegistry::toJson(
        StatsRegistry::delta(Before, StatsRegistry::global().snapshot()));
    return Out;
  }

  double peakRssMb() const override {
    struct rusage U;
    ::getrusage(RUSAGE_SELF, &U);
    return double(U.ru_maxrss) / 1024.0;
  }
  unsigned threads() const override { return 1; }
  unsigned clients() const override { return 1; }
  void tearDown() override {}

  void layers(const TimedRun &Loaded, LayerReport &Out) override {
    std::vector<AttackSpec> Specs;
    for (const Policy *P : Policies)
      Specs.push_back(P->Attack);
    SymExecOptions SymOpts = Opts.SymExec;
    SymOpts.TaintPrune = Opts.TaintPrune;
    std::vector<double> Parse, CfgMs, Taint, Slice, Sym, Solve;
    size_t N = Ctx.Smoke ? 8 : Files.size();
    for (size_t I = 0; I != N; ++I) {
      const std::string &Src = Files[I].Source;
      clearCaches();
      double Whole = timeUs([&] { auditSource(Src, Policies, Opts); }) / 1e3;

      clearCaches();
      ParseResult P;
      Parse.push_back(timeUs([&] { P = parseProgram(Src); }) / 1e3);
      Program Prog;
      std::optional<Cfg> G;
      CfgMs.push_back(timeUs([&] {
                        Prog = unrollLoops(inlineFunctions(P.Prog).Prog,
                                           Opts.LoopUnroll);
                        G.emplace(Cfg::build(Prog));
                      }) /
                      1e3);
      std::vector<TaintResult> Taints;
      Taint.push_back(
          timeUs([&] { Taints = analyzeTaintAll(Prog, *G, Specs); }) / 1e3);
      Slice.push_back(timeUs([&] { computeAuditSlices(*G, Taints); }) / 1e3);
      // runSymExecAll repeats the taint and slice passes it prunes with,
      // from the same cold caches.
      clearCaches();
      double All = timeUs([&] { runSymExecAll(Prog, *G, Specs, SymOpts); }) / 1e3;
      Sym.push_back(std::max(0.0, All - Taint.back() - Slice.back()));
      Solve.push_back(std::max(0.0, Whole - Parse.back() - CfgMs.back() - All));
    }
    Out.Metrics["miniphp.parse_ms"] = median(Parse);
    Out.Metrics["miniphp.cfg_ms"] = median(CfgMs);
    Out.Metrics["miniphp.taint_ms"] = median(Taint);
    Out.Metrics["miniphp.slice_ms"] = median(Slice);
    Out.Metrics["miniphp.symexec_ms"] = median(Sym);
    Out.Metrics["miniphp.solve_ms"] = median(Solve);
    double Pruned = counter(Loaded.CounterDelta, "miniphp.taint.sink_paths_pruned");
    Out.Metrics["miniphp.sink_paths_pruned_ratio"] =
        ratio(Pruned, Pruned + double(ExploredPaths));
    counterLayers(Loaded.CounterDelta, Out);
    measureTraceOverhead(
        [&] {
          clearCaches();
          for (size_t I = 0; I != std::min<size_t>(N, 16); ++I)
            auditSource(Files[I].Source, Policies, Opts);
        },
        Out);
    Out.Breakdown = {
        {"miniphp.parse", median(Parse)},     {"miniphp.cfg", median(CfgMs)},
        {"miniphp.taint", median(Taint)},     {"miniphp.slice", median(Slice)},
        {"miniphp.symexec", median(Sym)},     {"miniphp.solve", median(Solve)},
    };
  }

private:
  WorkloadContext Ctx;
  AnalysisOptions Opts;
  std::vector<AuditFile> Files;
  std::vector<const Policy *> Policies;
  std::vector<std::string> Reference;
  uint64_t ExploredPaths = 0;
};

} // namespace

std::unique_ptr<Workload> makeAuditSweep(const WorkloadContext &Ctx) {
  return std::make_unique<AuditSweep>(Ctx);
}

} // namespace ledger
