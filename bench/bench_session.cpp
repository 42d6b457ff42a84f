//===- bench_session.cpp - Incremental session warm-restart speedup -------===//
//
// Measures the tentpole claim of docs/SESSIONS.md: after a 1-constraint
// delta is pushed onto a SolverSession, a warm check() — which rebuilds
// the dependency graph incrementally and splices every clean CI-group
// from the session's content-keyed caches — beats a cold Solver::solve
// of the same flattened instance.
//
// Instances are synthetic constraint systems at the scale of paper
// Figures 11/12 (tens of constraints, half a dozen to a dozen
// independent CI-groups of concat chains). For each instance the bench:
//
//   1. opens a fresh session, asserts the base system, and runs the cold
//      first check (populating the session caches);
//   2. pushes a 1-constraint delta (a new free variable — the IDE/audit
//      "one more query against unchanged program state" shape);
//   3. times the warm check(), and separately times a from-scratch
//      Solver::solve of the identical flattened Problem.
//
// Two hard gates (exit 1 on violation):
//   * equality: the warm result must be bit-identical to the cold solve
//     — status bits, assignment languages (structural encoding), and
//     witnesses;
//   * speedup: geomean(cold / warm) >= 5x (>= 2x under --smoke, which
//     runs fewer and smaller instances for CI sanity runs).
//
// Emits BENCH_session.json with per-instance times and reuse counters
// plus a summary row carrying session.groups_reused /
// session.groups_total aggregated over every measured warm check.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "automata/Decide.h"
#include "service/Journal.h"
#include "service/Service.h"
#include "solver/Session.h"
#include "solver/Solver.h"
#include "support/Timer.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace dprle;

namespace {

/// One benchmark scenario: a base constraint system and the textual
/// 1-constraint delta pushed on top of it.
struct Instance {
  std::string Name;
  std::string Base;
  std::string Delta;
};

/// Regular-expression pool over {a, b}; every entry is nonempty and the
/// generated chains stay satisfiable (asserted at run time).
const char *const Patterns[] = {
    "(a|b)(a|b)(a|b)(a|b)*", "(ab|ba)(ab|ba)*", "a(a|b)*b",
    "(aa|bb)(a|b)*",         "(a|b)*ab(a|b)*",  "b(ab)*a(a|b)*",
};
constexpr size_t NumPatterns = sizeof(Patterns) / sizeof(Patterns[0]);

/// Builds a base system of \p Groups independent 3-variable concat
/// chains plus \p FreeVars free variables — the dependency-graph shape
/// the Figure 11/12 suites reduce to (many small CI-groups).
Instance makeInstance(unsigned Index, unsigned Groups, unsigned FreeVars) {
  std::ostringstream Base;
  for (unsigned G = 0; G != Groups; ++G) {
    std::string V0 = "g" + std::to_string(G) + "x";
    std::string V1 = "g" + std::to_string(G) + "y";
    std::string V2 = "g" + std::to_string(G) + "z";
    Base << "var " << V0 << "; var " << V1 << "; var " << V2 << ";\n";
    Base << V0 << " . " << V1 << " <= /"
         << Patterns[(Index + G) % NumPatterns] << "/;\n";
    Base << V1 << " . " << V2 << " <= /"
         << Patterns[(Index + G + 1) % NumPatterns] << "/;\n";
    Base << V2 << " <= /" << Patterns[(Index + G + 2) % NumPatterns]
         << "/;\n";
  }
  for (unsigned F = 0; F != FreeVars; ++F) {
    std::string V = "f" + std::to_string(F);
    Base << "var " << V << "; " << V << " <= /"
         << Patterns[(Index + F) % NumPatterns] << "/;\n";
  }
  Instance Out;
  Out.Name = "groups" + std::to_string(Groups) + "_i" +
             std::to_string(Index);
  Out.Base = Base.str();
  Out.Delta = "var dlt; dlt <= /a(ab|ba)*b/;\n";
  return Out;
}

std::vector<Instance> buildInstances(bool Smoke) {
  std::vector<Instance> Out;
  if (Smoke) {
    Out.push_back(makeInstance(0, 3, 1));
    Out.push_back(makeInstance(1, 4, 2));
    Out.push_back(makeInstance(2, 5, 1));
    return Out;
  }
  for (unsigned I = 0; I != 6; ++I)
    Out.push_back(makeInstance(I, 6 + 2 * I, 1 + I % 3));
  return Out;
}

/// Everything the session equivalence guarantee covers: the status bit plus
/// per-assignment languages and witnesses (stats counters excluded — a
/// warm check legitimately does less work).
std::string fingerprint(const SolveResult &R) {
  std::ostringstream Os;
  Os << "sat=" << R.Satisfiable << " interrupted=" << R.Interrupted
     << " n=" << R.Assignments.size() << "\n";
  for (const Assignment &A : R.Assignments)
    for (VarId V = 0; V != A.numVariables(); ++V) {
      std::optional<std::string> W = A.witness(V);
      Os << V << " lang=" << A.language(V).identity().encoding()
         << " witness=" << (W ? *W : std::string("<empty>")) << "\n";
    }
  return Os.str();
}

//===--------------------------------------------------------------------===//
// `recovery` scenario: crash + journal replay vs uninterrupted control
//===--------------------------------------------------------------------===//

/// Issues one session verb against a SolverService, max_solutions=1 on
/// open (matching the default scenario's first-solution setting).
Json serviceVerb(dprle::service::SolverService &S, const std::string &Method,
                 const std::string &Sid, const std::string &Text = "") {
  Json Req = Json::object();
  Req["id"] = "bench";
  Req["method"] = Method;
  Json P = Json::object();
  P["session"] = Sid;
  if (Method == "session_open")
    P["max_solutions"] = uint64_t(1);
  if (!Text.empty())
    P["constraints"] = Text;
  Req["params"] = std::move(P);
  return S.handleLine(Req.dump(0));
}

bool okOf(const Json &Resp) {
  const Json *Ok = Resp.find("ok");
  return Ok && Ok->isBool() && Ok->asBool();
}

/// The recovery equivalence guarantee: verdict + assignment payload of a
/// session_check response (session/stats subsections excluded — a
/// replayed check legitimately starts with cold caches).
std::string checkFingerprint(const Json &Resp) {
  const Json *R = Resp.find("result");
  if (!R)
    return "<error: " + Resp.dump(0) + ">";
  std::ostringstream Os;
  const Json *Sat = R->find("satisfiable");
  Os << "sat=" << (Sat && Sat->asBool());
  const Json *A = R->find("assignments");
  Os << " " << (A ? A->dump(0) : "<none>");
  return Os.str();
}

/// Crash-recovery scenario (`bench_session recovery [--smoke]`): for each
/// instance, open+push on a journaled service, destroy it mid-session
/// (the crash), time the journal replay of the reborn service, and gate
/// that the post-recovery check answers bit-identically to an
/// uninterrupted control — plus that journaling keeps the warm-check
/// path within 5% of the journal-less service (checks append nothing, so
/// the overhead must be noise).
int runRecoveryScenario(bool Smoke) {
  const unsigned Reps = Smoke ? 3 : 5;
  const double OverheadGate = Smoke ? 1.25 : 1.05;
  std::vector<Instance> Instances = buildInstances(Smoke);
  std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("dprle_bench_recovery_" + std::to_string(::getpid()));
  std::filesystem::create_directories(Dir);

  std::printf("Durable-session crash recovery: journal replay vs "
              "uninterrupted control (%s mode)\n",
              Smoke ? "smoke" : "full");
  std::printf("%-14s %10s %8s %10s %10s %9s\n", "instance", "replay(ms)",
              "records", "plain(ms)", "jrnl(ms)", "overhead");

  benchjson::BenchReport Report("session_recovery");
  bool EqualityOk = true, RecoveredOk = true;
  double OverheadLogSum = 0.0;

  for (const Instance &Inst : Instances) {
    const std::string Sid = "bench";
    // Uninterrupted control: journaling off.
    dprle::service::ServiceOptions Plain;
    dprle::service::SolverService Control(Plain);
    if (!okOf(serviceVerb(Control, "session_open", Sid, Inst.Base)) ||
        !okOf(serviceVerb(Control, "session_push", Sid, Inst.Delta))) {
      std::fprintf(stderr, "%s: control setup failed\n", Inst.Name.c_str());
      return 1;
    }
    std::string ControlFp =
        checkFingerprint(serviceVerb(Control, "session_check", Sid));

    // Victim: same trajectory on a journaled service, crashed (destroyed
    // without close) right after the push.
    dprle::service::ServiceOptions JOpts;
    JOpts.JournalPath = (Dir / (Inst.Name + ".journal")).string();
    auto Victim =
        std::make_unique<dprle::service::SolverService>(JOpts);
    if (!okOf(serviceVerb(*Victim, "session_open", Sid, Inst.Base)) ||
        !okOf(serviceVerb(*Victim, "session_push", Sid, Inst.Delta))) {
      std::fprintf(stderr, "%s: victim setup failed\n", Inst.Name.c_str());
      return 1;
    }
    Victim.reset(); // the crash

    Timer ReplayClock;
    auto Reborn =
        std::make_unique<dprle::service::SolverService>(JOpts);
    double ReplaySeconds = ReplayClock.seconds();
    uint64_t Records = dprle::service::Journal::replay(JOpts.JournalPath).size();

    Json Checked = serviceVerb(*Reborn, "session_check", Sid);
    if (checkFingerprint(Checked) != ControlFp) {
      std::fprintf(stderr,
                   "%s: EQUALITY GATE FAILED — post-recovery check "
                   "diverged from the uninterrupted control\n",
                   Inst.Name.c_str());
      EqualityOk = false;
    }
    const Json *Result = Checked.find("result");
    const Json *Session = Result ? Result->find("session") : nullptr;
    const Json *Recovered = Session ? Session->find("recovered") : nullptr;
    if (!Recovered || !Recovered->asBool()) {
      std::fprintf(stderr, "%s: recovered flag missing on first check\n",
                   Inst.Name.c_str());
      RecoveredOk = false;
    }

    // Warm-check overhead, journaled vs plain (both caches warm now;
    // checks journal nothing, so this pins the bookkeeping cost).
    auto bestCheck = [&](dprle::service::SolverService &S) {
      double Best = 0.0;
      for (unsigned R = 0; R != Reps; ++R) {
        Timer Clock;
        serviceVerb(S, "session_check", Sid);
        double Seconds = Clock.seconds();
        if (R == 0 || Seconds < Best)
          Best = Seconds;
      }
      return Best;
    };
    double PlainSeconds = bestCheck(Control);
    double JournalSeconds = bestCheck(*Reborn);
    double Overhead =
        JournalSeconds / (PlainSeconds > 0.0 ? PlainSeconds : 1e-9);
    OverheadLogSum += std::log(Overhead);

    std::printf("%-14s %10.3f %8llu %10.3f %10.3f %8.2fx\n",
                Inst.Name.c_str(), ReplaySeconds * 1e3,
                static_cast<unsigned long long>(Records),
                PlainSeconds * 1e3, JournalSeconds * 1e3, Overhead);

    benchjson::BenchRun &Run = Report.addRun(Inst.Name);
    Run.RealSeconds = ReplaySeconds;
    Run.Counters = {
        {"replay_seconds", ReplaySeconds},
        {"journal_records", double(Records)},
        {"warm_plain_seconds", PlainSeconds},
        {"warm_journaled_seconds", JournalSeconds},
        {"warm_overhead", Overhead},
    };
  }

  double GeoOverhead = std::exp(OverheadLogSum / double(Instances.size()));
  bool OverheadOk = GeoOverhead <= OverheadGate;
  std::printf("\nequality gate (recovered checks match control): %s\n",
              EqualityOk ? "PASS" : "FAIL");
  std::printf("recovered-flag gate: %s\n", RecoveredOk ? "PASS" : "FAIL");
  std::printf("warm-check journaling overhead: geomean %.2fx "
              "(gate: <= %.2fx, %s)\n",
              GeoOverhead, OverheadGate, OverheadOk ? "PASS" : "FAIL");

  benchjson::BenchRun &Summary = Report.addRun("summary");
  Summary.Counters = {
      {"equality_ok", EqualityOk ? 1.0 : 0.0},
      {"recovered_ok", RecoveredOk ? 1.0 : 0.0},
      {"warm_overhead_geomean", GeoOverhead},
      {"overhead_gate", OverheadGate},
      {"smoke", Smoke ? 1.0 : 0.0},
  };
  Report.write();
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
  return (EqualityOk && RecoveredOk && OverheadOk) ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  bool Recovery = false;
  for (int I = 1; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strcmp(Argv[I], "recovery") == 0 ||
             std::strcmp(Argv[I], "--recovery") == 0)
      Recovery = true;
  }
  if (Recovery)
    return runRecoveryScenario(Smoke);

  const double Gate = Smoke ? 2.0 : 5.0;
  const unsigned Reps = Smoke ? 2 : 3;
  std::vector<Instance> Instances = buildInstances(Smoke);

  std::printf("Incremental session warm-restart speedup "
              "(1-constraint delta, %s mode)\n",
              Smoke ? "smoke" : "full");
  std::printf("%-14s %6s %10s %10s %9s %12s\n", "instance", "|C|",
              "cold (ms)", "warm (ms)", "speedup", "groups reused");

  benchjson::BenchReport Report("session");
  bool EqualityOk = true;
  double LogSum = 0.0;
  uint64_t TotalGroups = 0, ReusedGroups = 0;

  // First solution only, like the service front end and the Figure 12
  // reproduction: with the default MaxSolutions the assignment list is
  // the cross-product of per-group solutions and its materialization —
  // identical on the warm and cold paths — swamps the solving time being
  // compared.
  SolverOptions SessionOpts;
  SessionOpts.MaxSolutions = 1;

  for (const Instance &Inst : Instances) {
    // The cold oracle: a from-scratch solve of the flattened instance
    // (base + delta), timed over Reps repetitions, best run kept.
    SolverSession Scratch(SessionOpts);
    std::string Err;
    if (!Scratch.assertText(Inst.Base, &Err) || !Scratch.push(Inst.Delta, &Err)) {
      std::fprintf(stderr, "%s: bad instance text: %s\n", Inst.Name.c_str(),
                   Err.c_str());
      return 1;
    }
    const Problem &Flat = Scratch.problem();
    double ColdSeconds = 0.0;
    SolveResult Cold;
    for (unsigned R = 0; R != Reps; ++R) {
      Timer Clock;
      SolveResult Res = Solver(Scratch.options()).solve(Flat);
      double Seconds = Clock.seconds();
      if (R == 0 || Seconds < ColdSeconds) {
        ColdSeconds = Seconds;
        Cold = std::move(Res);
      }
    }
    if (!Cold.Satisfiable) {
      // An unsatisfiable base would early-exit the cache-warming check
      // and make the splice measurement meaningless.
      std::fprintf(stderr, "%s: instance unexpectedly unsatisfiable\n",
                   Inst.Name.c_str());
      return 1;
    }

    // The measured path: fresh session per repetition — cold check warms
    // the caches, then the delta push and the timed warm check.
    double WarmSeconds = 0.0;
    SessionCheckInfo Info;
    for (unsigned R = 0; R != Reps; ++R) {
      SolverSession S(SessionOpts);
      if (!S.assertText(Inst.Base, &Err) || (S.check(), false) ||
          !S.push(Inst.Delta, &Err)) {
        std::fprintf(stderr, "%s: %s\n", Inst.Name.c_str(), Err.c_str());
        return 1;
      }
      Timer Clock;
      SolveResult Warm = S.check();
      double Seconds = Clock.seconds();
      if (fingerprint(Warm) != fingerprint(Cold)) {
        std::fprintf(stderr,
                     "%s: EQUALITY GATE FAILED — warm check diverged "
                     "from the cold solve\n",
                     Inst.Name.c_str());
        EqualityOk = false;
      }
      if (R == 0 || Seconds < WarmSeconds) {
        WarmSeconds = Seconds;
        Info = S.lastCheckInfo();
      }
    }

    double Speedup = ColdSeconds / (WarmSeconds > 0.0 ? WarmSeconds : 1e-9);
    LogSum += std::log(Speedup);
    TotalGroups += Info.GroupsTotal;
    ReusedGroups += Info.GroupsReused;
    std::printf("%-14s %6zu %10.3f %10.3f %8.1fx %8llu/%llu\n",
                Inst.Name.c_str(), Flat.constraints().size(),
                ColdSeconds * 1e3, WarmSeconds * 1e3, Speedup,
                static_cast<unsigned long long>(Info.GroupsReused),
                static_cast<unsigned long long>(Info.GroupsTotal));

    benchjson::BenchRun &Run = Report.addRun(Inst.Name);
    Run.RealSeconds = WarmSeconds;
    Run.Counters = {
        {"constraints", double(Flat.constraints().size())},
        {"cold_seconds", ColdSeconds},
        {"warm_seconds", WarmSeconds},
        {"speedup", Speedup},
        {"session.groups_total", double(Info.GroupsTotal)},
        {"session.groups_reused", double(Info.GroupsReused)},
        {"session.dirty_constraints", double(Info.DirtyConstraints)},
        {"session.constants_reused", double(Info.ConstantsReused)},
        {"incremental", Info.Incremental ? 1.0 : 0.0},
    };
  }

  double Geomean = std::exp(LogSum / double(Instances.size()));
  bool SpeedupOk = Geomean >= Gate;
  std::printf("\ngeomean speedup: %.1fx (gate: >= %.1fx, %s)\n", Geomean,
              Gate, SpeedupOk ? "PASS" : "FAIL");
  std::printf("equality gate (bit-identical verdicts/witnesses): %s\n",
              EqualityOk ? "PASS" : "FAIL");
  std::printf("groups spliced from cache across all warm checks: %llu/%llu\n",
              static_cast<unsigned long long>(ReusedGroups),
              static_cast<unsigned long long>(TotalGroups));

  benchjson::BenchRun &Summary = Report.addRun("summary");
  Summary.Counters = {
      {"geomean_speedup", Geomean},
      {"gate", Gate},
      {"smoke", Smoke ? 1.0 : 0.0},
      {"equality_ok", EqualityOk ? 1.0 : 0.0},
      {"session.groups_reused", double(ReusedGroups)},
      {"session.groups_total", double(TotalGroups)},
  };
  Report.write();
  return (EqualityOk && SpeedupOk) ? 0 : 1;
}
