//===- Commands.cpp - dprle tool command library ---------------------------===//

#include "tools/Commands.h"

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "automata/OpStats.h"
#include "automata/Print.h"
#include "automata/Serialize.h"
#include "miniphp/Analysis.h"
#include "miniphp/Corpus.h"
#include "miniphp/Inline.h"
#include "miniphp/Parser.h"
#include "miniphp/Policy.h"
#include "miniphp/Slice.h"
#include "miniphp/Taint.h"
#include "miniphp/Unroll.h"
#include "regex/NfaToRegex.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"
#include "service/Listener.h"
#include "service/Router.h"
#include "service/Service.h"
#include "service/Signals.h"
#include "service/ThreadPool.h"
#include "solver/ConstraintParser.h"
#include "solver/Session.h"
#include "solver/Solver.h"
#include "support/FaultInjector.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>

#include <unistd.h>

using namespace dprle;
using namespace dprle::tools;

namespace {

/// Reads a whole file (or stdin for "-").
bool readInput(const std::string &Path, std::istream &Stdin,
               std::string &Out, std::ostream &Err) {
  if (Path == "-") {
    std::ostringstream Buffer;
    Buffer << Stdin.rdbuf();
    Out = Buffer.str();
    return true;
  }
  std::ifstream In(Path);
  if (!In) {
    Err << "error: cannot open " << Path << "\n";
    return false;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

/// Loads a machine spec: /regex/ literal or serialized-NFA file path.
bool loadMachine(const std::string &Spec, Nfa &Out, std::ostream &Err) {
  if (Spec.size() >= 2 && Spec.front() == '/' && Spec.back() == '/') {
    std::string Pattern = Spec.substr(1, Spec.size() - 2);
    RegexParseResult R = parseRegexExtended(Pattern);
    if (!R.ok()) {
      Err << "error: regex " << Spec << ": " << R.Error << " at offset "
          << R.ErrorPos << "\n";
      return false;
    }
    Out = compileRegex(*R.Ast);
    return true;
  }
  std::ifstream In(Spec);
  if (!In) {
    Err << "error: cannot open machine file " << Spec << "\n";
    return false;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  NfaParseResult R = parseNfa(Buffer.str());
  if (!R.ok()) {
    Err << "error: " << Spec << ":" << R.ErrorLine << ": " << R.Error
        << "\n";
    return false;
  }
  Out = std::move(*R.Machine);
  return true;
}

/// Shared --stats=/--trace= handling (see docs/OBSERVABILITY.md for the
/// emitted schemas). The collector is armed before the measured work and
/// the files are written after it; on a hard input error (exit code 2)
/// nothing is written.
struct ObservabilityOptions {
  std::string StatsPath;
  std::string TracePath;
  /// Set when an option was recognized but malformed (empty path).
  std::string ArgError;

  /// Returns true when \p Arg is one of ours (and consumes it).
  bool consume(const std::string &Arg) {
    for (const char *Prefix : {"--stats=", "--trace="}) {
      if (Arg.rfind(Prefix, 0) != 0)
        continue;
      std::string Value = Arg.substr(std::char_traits<char>::length(Prefix));
      if (Value.empty())
        ArgError = std::string("error: ") +
                   std::string(Prefix, 7) + " requires a file path\n";
      else
        (Prefix[2] == 's' ? StatsPath : TracePath) = std::move(Value);
      return true;
    }
    return false;
  }

  bool traceRequested() const { return !TracePath.empty(); }

  void beginTrace() const {
    if (traceRequested())
      TraceCollector::global().start();
  }

  /// Builds the common JSON envelope both artifacts share.
  static Json envelope(const char *Command, const std::string &Input) {
    Json Out = Json::object();
    Out["schema_version"] = 1;
    Out["tool"] = "dprle";
    Out["command"] = Command;
    Out["input"] = Input;
    return Out;
  }

  /// Writes the trace artifact (if requested) and stops the collector.
  bool finishTrace(const char *Command, const std::string &Input,
                   std::ostream &Err) const {
    if (!traceRequested())
      return true;
    TraceCollector &TC = TraceCollector::global();
    TC.stop();
    Json Out = envelope(Command, Input);
    Out["trace"] = TC.toJson();
    return writeJson(TracePath, Out, Err);
  }

  static bool writeJson(const std::string &Path, const Json &J,
                        std::ostream &Err) {
    std::ofstream Out(Path);
    if (!Out) {
      Err << "error: cannot write " << Path << "\n";
      return false;
    }
    Out << J.dump() << "\n";
    return true;
  }
};

/// Renders a registry snapshot-delta as the "automata" stats section,
/// appending the derived headline total (see OpStats::totalStatesVisited
/// for why epsilon_closure_steps is not part of the total).
Json automataSection(const StatsRegistry::Snapshot &Before,
                     const StatsRegistry::Snapshot &After) {
  StatsRegistry::Snapshot Delta = StatsRegistry::delta(Before, After);
  Json Out = Json::object();
  uint64_t Total = 0;
  for (const auto &[Name, Value] : Delta) {
    if (Name.rfind("automata.", 0) != 0)
      continue;
    std::string Short = Name.substr(std::char_traits<char>::length("automata."));
    Out[Short] = Value;
    if (Short != "epsilon_closure_steps")
      Total += Value;
  }
  Out["total_states_visited"] = Total;
  return Out;
}

/// Renders a registry snapshot-delta restricted to the counters under
/// \p Prefix, with the prefix stripped from the names.
Json prefixSection(const StatsRegistry::Snapshot &Before,
                   const StatsRegistry::Snapshot &After,
                   const char *Prefix) {
  StatsRegistry::Snapshot Delta = StatsRegistry::delta(Before, After);
  Json Out = Json::object();
  for (const auto &[Name, Value] : Delta) {
    if (Name.rfind(Prefix, 0) != 0)
      continue;
    Out[Name.substr(std::char_traits<char>::length(Prefix))] = Value;
  }
  return Out;
}

/// Renders the "miniphp.taint.*" registry delta as the "taint" stats
/// section (short names, see docs/OBSERVABILITY.md).
Json taintSection(const StatsRegistry::Snapshot &Before,
                  const StatsRegistry::Snapshot &After) {
  return prefixSection(Before, After, "miniphp.taint.");
}

/// Renders the "decide.*" registry delta as the "decide" stats section:
/// queries by kind, early-exit depth totals, and memoization cache
/// hits/misses/evictions (see docs/OBSERVABILITY.md).
Json decideSection(const StatsRegistry::Snapshot &Before,
                   const StatsRegistry::Snapshot &After) {
  Json Out = prefixSection(Before, After, "decide.");
  Out["cache_enabled"] = DecisionCache::global().enabled();
  return Out;
}

/// Resolves a `--attack=<id>` / `--policy=<id>` value against the policy
/// registry; reports the known ids on failure.
const miniphp::Policy *lookupPolicy(const std::string &Id,
                                    std::ostream &Err) {
  const miniphp::Policy *P = miniphp::PolicyRegistry::global().byId(Id);
  if (!P)
    Err << "error: unknown policy '" << Id << "' (known: "
        << miniphp::PolicyRegistry::global().idList()
        << "; alias sql for sqli)\n";
  return P;
}

/// Parses a `--name=N` unsigned option value; returns false (and reports)
/// on a malformed number.
bool parseUnsignedOption(const std::string &Arg, const char *Prefix,
                         uint64_t &Out, std::ostream &Err) {
  std::string Value = Arg.substr(std::string(Prefix).size());
  if (Value.empty() || Value.find_first_not_of("0123456789") !=
                           std::string::npos) {
    Err << "error: " << Prefix << " requires a non-negative integer\n";
    return false;
  }
  Out = std::stoull(Value);
  return true;
}

/// Every assignment of \p R, one `name = /regex/  e.g. "witness"` line
/// per variable, rendered through the render memo (solver/Solution.h).
/// Runs under the caller's ambient budget; the text is meaningless once
/// it trips.
std::string assignmentsText(const Problem &P, const SolveResult &R) {
  std::ostringstream Out;
  for (size_t I = 0; I != R.Assignments.size(); ++I) {
    Out << "assignment " << I + 1 << ":\n";
    for (VarId V = 0; V != P.numVariables(); ++V) {
      RenderedLanguage Text = renderLanguage(R.Assignments[I].language(V));
      Out << "  " << P.variableName(V) << " = /" << Text.Regex
          << "/  e.g. \"" << Text.Witness.value_or("<empty>") << "\"\n";
    }
  }
  return Out.str();
}

void printUsage(std::ostream &Err) {
  std::string Ids = miniphp::PolicyRegistry::global().idList();
  Err << "usage:\n"
      << "  dprle solve [--first] [--jobs=N] [--no-decision-cache]\n"
      << "              [--deadline-ms=D] [--max-memory-bytes=N]\n"
      << "              [--stats=<file.json>] [--trace=<file.json>] "
         "<file.rma | ->\n"
      << "     exits 0 sat, 1 unsat, 2 on a usage or input error or when\n"
      << "     the budget trips (`resource_exhausted: <dimension>`)\n"
      << "  dprle analyze [--attack=<policy>] [--all] [--no-taint-prune]\n"
      << "                [--no-decision-cache] [--stats=<file.json>]\n"
      << "                [--trace=<file.json>] <file.php | ->\n"
      << "  dprle taint [--attack=<policy>] [--no-decision-cache]\n"
      << "              [--stats=<file.json>] [--trace=<file.json>] "
         "<file.php | ->\n"
      << "     policies: " << Ids << " (default sqli; alias sql)\n"
      << "  dprle audit [--policy=<id>[,<id>...]] [--all] "
         "[--no-taint-prune]\n"
      << "              [--no-decision-cache] [--stats=<file.json>]\n"
      << "              [--trace=<file.json>] <file.php... | ->\n"
      << "     audits every registered policy (" << Ids << ") in one\n"
      << "     shared pass, JSON report on stdout; several input files\n"
      << "     share the decision cache (see docs/TAINT.md)\n"
      << "  dprle audit --watch=<dir> [--watch-poll-ms=D] "
         "[--watch-max-sweeps=N]\n"
      << "     streaming mode: poll <dir> for *.php files, re-audit only\n"
      << "     content-changed files with warm caches, one NDJSON report\n"
      << "     line per sweep (see docs/SESSIONS.md)\n"
      << "  dprle repl [--first] [--jobs=N] [--no-decision-cache]\n"
      << "     incremental solving session on stdin (docs/SESSIONS.md):\n"
      << "     constraint statements assert; push/pop manage frames;\n"
      << "     check re-solves with warm restarts; depth, reset, quit\n"
      << "  dprle automata <op> <machine...>\n"
      << "     ops: info, minimize, complement, dot, to-regex, shortest,\n"
      << "          enumerate, intersect, union, concat, equiv, subset,\n"
      << "          accepts\n"
      << "     machines: /regex/ (extended dialect) or serialized .nfa "
         "file\n"
      << "  dprle corpus <output-directory>\n"
      << "  dprle serve [--jobs=N] [--deadline-ms=D] [--max-states=N]\n"
      << "              [--max-states-budget=N] [--max-transitions-budget=N]\n"
      << "              [--max-memory-bytes=N] [--max-queue=N]\n"
      << "              [--retry-after-ms=D] [--fault=<site>:<nth>]\n"
      << "              [--listen=[host]:port | --unix-socket=<path>]\n"
      << "              [--max-inflight=N] [--shards=N] [--max-restarts=N]\n"
      << "              [--max-sessions=N] [--session-idle-ms=D]\n"
      << "              [--journal-dir=<dir>] [--journal-fsync]\n"
      << "              [--journal-compact-bytes=N] [--watchdog-ms=D]\n"
      << "     NDJSON requests on stdin (or over the socket with --listen /\n"
      << "     --unix-socket; --shards=N forwards to N worker processes);\n"
      << "     --journal-dir makes sessions durable: ops are journaled and\n"
      << "     replayed after a crash; --watchdog-ms (with --shards) sweeps\n"
      << "     for hung workers; SIGTERM/SIGINT drain gracefully;\n"
      << "     see docs/PROTOCOL.md for the wire format, docs/DEPLOYMENT.md\n"
      << "     for operating the network service, and docs/ROBUSTNESS.md\n"
      << "     for budgets, backpressure, and fault injection\n";
}

} // namespace

int dprle::tools::runSolve(const std::vector<std::string> &Args,
                           std::istream &In, std::ostream &Out,
                           std::ostream &Err) {
  SolverOptions Opts;
  ObservabilityOptions Obs;
  std::string Path;
  uint64_t Jobs = 1;
  uint64_t DeadlineMs = 0;
  ResourceLimits Limits;
  for (const std::string &Arg : Args) {
    if (Arg == "--first")
      Opts.MaxSolutions = 1;
    else if (Arg == "--no-decision-cache") {
      // One switch turns off every machine memo (decide answers, minimize
      // results, renders): no cross-run memoization.
      DecisionCache::global().setEnabled(false);
    } else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--deadline-ms=", DeadlineMs, Err))
        return 2;
    } else if (Arg.rfind("--max-memory-bytes=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--max-memory-bytes=",
                               Limits.MaxMemoryBytes, Err))
        return 2;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--jobs=", Jobs, Err) || Jobs == 0) {
        if (Jobs == 0)
          Err << "error: --jobs= must be at least 1\n";
        return 2;
      }
    } else if (Obs.consume(Arg))
      continue;
    else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      Err << "error: unknown option " << Arg << "\n";
      return 2;
    } else
      Path = Arg;
  }
  if (!Obs.ArgError.empty()) {
    Err << Obs.ArgError;
    return 2;
  }
  if (Path.empty()) {
    Err << "error: no input file (use '-' for stdin)\n";
    return 2;
  }
  std::string Text;
  if (!readInput(Path, In, Text, Err))
    return 2;

  // The pool outlives the solve; with --jobs=1 (the default) no pool is
  // created and the solve is the historical serial path.
  std::unique_ptr<dprle::service::ThreadPool> Pool;
  if (Jobs > 1) {
    Pool = std::make_unique<dprle::service::ThreadPool>(
        static_cast<unsigned>(Jobs));
    Opts.Jobs = static_cast<unsigned>(Jobs);
    Opts.Exec = Pool.get();
  }

  // One budget governs the parse (whose & and ~ determinize), the solve
  // and the render, as for a `dprle serve` request. A trip, or running
  // out of memory outright, ends the run with one line and exit code 2.
  ResourceBudget Budget(Limits);
  if (DeadlineMs != 0)
    Budget.armDeadlineAfterMs(DeadlineMs);
  auto Exhausted = [&Err](BudgetDimension D) {
    Err << "resource_exhausted: " << budgetDimensionName(D) << "\n";
    return 2;
  };
  try {
    ResourceGuard Guard(&Budget);
    ConstraintParseResult Parsed = parseConstraintText(Text);
    if (ResourceGuard::exhausted())
      return Exhausted(Budget.dimension());
    if (!Parsed.Ok) {
      Err << Path << ":" << Parsed.ErrorLine << ": error: " << Parsed.Error
          << "\n";
      return 2;
    }

    StatsRegistry::Snapshot Before = StatsRegistry::global().snapshot();
    Obs.beginTrace();
    SolveResult R = Solver(Opts).solve(Parsed.Instance);
    bool ArtifactsOk = Obs.finishTrace("solve", Path, Err);
    if (R.Interrupted)
      return Exhausted(Budget.dimension());
    if (!Obs.StatsPath.empty()) {
      Json Doc = ObservabilityOptions::envelope("solve", Path);
      Json Result = Json::object();
      Result["satisfiable"] = R.Satisfiable;
      Result["assignments"] = static_cast<uint64_t>(R.Assignments.size());
      Result["exit_code"] = R.Satisfiable ? 0 : 1;
      Doc["result"] = std::move(Result);
      Json SolverSection = Json::object();
      for (const auto &[Name, Value] : R.Stats.counters())
        SolverSection[Name] = Value;
      SolverSection["solve_seconds"] = R.Stats.SolveSeconds;
      Doc["solver"] = std::move(SolverSection);
      StatsRegistry::Snapshot After = StatsRegistry::global().snapshot();
      Doc["automata"] = automataSection(Before, After);
      Doc["decide"] = decideSection(Before, After);
      ArtifactsOk = ObservabilityOptions::writeJson(Obs.StatsPath, Doc, Err) &&
                    ArtifactsOk;
    }
    if (!ArtifactsOk)
      return 2;

    if (!R.Satisfiable) {
      Out << "unsat\n";
      return 1;
    }
    // Rendered in full before anything is printed, so a trip leaves no
    // partial answer on stdout.
    std::string Answer = assignmentsText(Parsed.Instance, R);
    if (ResourceGuard::exhausted())
      return Exhausted(Budget.dimension());
    Out << "sat (" << R.Assignments.size() << " assignment"
        << (R.Assignments.size() == 1 ? "" : "s") << ")\n"
        << Answer;
    return 0;
  } catch (const std::bad_alloc &) {
    return Exhausted(BudgetDimension::Memory);
  }
}

int dprle::tools::runAnalyze(const std::vector<std::string> &Args,
                             std::istream &In, std::ostream &Out,
                             std::ostream &Err) {
  miniphp::AttackSpec Attack = miniphp::AttackSpec::sqlQuote();
  miniphp::AnalysisOptions Opts;
  ObservabilityOptions Obs;
  std::string Path;
  for (const std::string &Arg : Args) {
    if (Arg.rfind("--attack=", 0) == 0) {
      const miniphp::Policy *P = lookupPolicy(
          Arg.substr(std::char_traits<char>::length("--attack=")), Err);
      if (!P)
        return 2;
      Attack = P->Attack;
    } else if (Arg == "--all") {
      Opts.StopAtFirstVulnerability = false;
      Opts.SymExec.StopAtFirstSink = false;
    } else if (Arg == "--no-taint-prune") {
      Opts.TaintPrune = false;
    } else if (Arg == "--no-decision-cache") {
      DecisionCache::global().setEnabled(false);
    } else if (Obs.consume(Arg)) {
      continue;
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      Err << "error: unknown option " << Arg << "\n";
      return 2;
    } else {
      Path = Arg;
    }
  }
  if (!Obs.ArgError.empty()) {
    Err << Obs.ArgError;
    return 2;
  }
  if (Path.empty()) {
    Err << "error: no input file (use '-' for stdin)\n";
    return 2;
  }
  std::string Source;
  if (!readInput(Path, In, Source, Err))
    return 2;
  StatsRegistry::Snapshot Before = StatsRegistry::global().snapshot();
  Obs.beginTrace();
  miniphp::AnalysisResult R = analyzeSource(Source, Attack, Opts);
  bool ArtifactsOk = Obs.finishTrace("analyze", Path, Err);
  if (!R.ParseOk) {
    Err << Path << ": parse error: " << R.ParseError << "\n";
    return 2;
  }
  int ExitCode = R.vulnerable() ? 0 : (R.noSinks() ? 3 : 1);
  if (!Obs.StatsPath.empty()) {
    Json Doc = ObservabilityOptions::envelope("analyze", Path);
    Json Result = Json::object();
    Result["vulnerable"] = R.vulnerable();
    Result["no_sinks"] = R.noSinks();
    Result["exit_code"] = ExitCode;
    Doc["result"] = std::move(Result);
    Json Analysis = Json::object();
    Analysis["blocks"] = static_cast<uint64_t>(R.NumBlocks);
    Analysis["sinks_found"] = static_cast<uint64_t>(R.SinksFound);
    Analysis["sinks_proven_safe"] =
        static_cast<uint64_t>(R.SinksProvenSafe);
    Analysis["sink_paths"] = static_cast<uint64_t>(R.SinkPaths);
    Analysis["vulnerable_paths"] = static_cast<uint64_t>(R.VulnerablePaths);
    Analysis["num_constraints"] = static_cast<uint64_t>(R.NumConstraints);
    Analysis["solve_seconds"] = R.SolveSeconds;
    Doc["analysis"] = std::move(Analysis);
    StatsRegistry::Snapshot After = StatsRegistry::global().snapshot();
    Doc["taint"] = taintSection(Before, After);
    Doc["automata"] = automataSection(Before, After);
    Doc["decide"] = decideSection(Before, After);
    Doc["symexec"] = prefixSection(Before, After, "miniphp.symexec.");
    ArtifactsOk =
        ObservabilityOptions::writeJson(Obs.StatsPath, Doc, Err) && ArtifactsOk;
  }
  if (!ArtifactsOk)
    return 2;
  Out << "blocks: " << R.NumBlocks << ", sinks: " << R.SinksFound
      << ", sink paths: " << R.SinkPaths
      << ", vulnerable paths: " << R.VulnerablePaths << "\n";
  if (R.noSinks()) {
    // Distinguish "nothing to audit" from "audited and found safe":
    // corpus scripts treat these differently.
    Out << "result: no sinks found\n";
    return 3;
  }
  if (!R.vulnerable()) {
    Out << "result: not vulnerable\n";
    return 1;
  }
  Out << "result: VULNERABLE at line " << R.SinkLine << " (|C|="
      << R.NumConstraints << ", solve " << R.SolveSeconds << "s)\n";
  for (const auto &[Key, Value] : R.ExploitInputs)
    Out << "  " << Key << " = \"" << Value << "\"\n";
  Out << "slice:";
  for (unsigned Line : R.SliceLines)
    Out << " " << Line;
  Out << "\n";
  return 0;
}

int dprle::tools::runTaint(const std::vector<std::string> &Args,
                           std::istream &In, std::ostream &Out,
                           std::ostream &Err) {
  miniphp::AttackSpec Attack = miniphp::AttackSpec::sqlQuote();
  ObservabilityOptions Obs;
  unsigned LoopUnroll = miniphp::AnalysisOptions().LoopUnroll;
  std::string Path;
  for (const std::string &Arg : Args) {
    if (Arg.rfind("--attack=", 0) == 0) {
      const miniphp::Policy *P = lookupPolicy(
          Arg.substr(std::char_traits<char>::length("--attack=")), Err);
      if (!P)
        return 2;
      Attack = P->Attack;
    } else if (Arg == "--no-decision-cache") {
      DecisionCache::global().setEnabled(false);
    } else if (Obs.consume(Arg)) {
      continue;
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      Err << "error: unknown option " << Arg << "\n";
      return 2;
    } else {
      Path = Arg;
    }
  }
  if (!Obs.ArgError.empty()) {
    Err << Obs.ArgError;
    return 2;
  }
  if (Path.empty()) {
    Err << "error: no input file (use '-' for stdin)\n";
    return 2;
  }
  std::string Source;
  if (!readInput(Path, In, Source, Err))
    return 2;

  StatsRegistry::Snapshot Before = StatsRegistry::global().snapshot();
  Obs.beginTrace();
  miniphp::ParseResult Parsed = miniphp::parseProgram(Source);
  if (!Parsed.Ok) {
    Err << Path << ": parse error: " << Parsed.Error << " (line "
        << Parsed.ErrorLine << ")\n";
    return 2;
  }
  miniphp::InlineResult Inlined = miniphp::inlineFunctions(Parsed.Prog);
  if (!Inlined.Ok) {
    Err << Path << ": parse error: " << Inlined.Error << " (line "
        << Inlined.ErrorLine << ")\n";
    return 2;
  }
  miniphp::Program Prog = miniphp::unrollLoops(Inlined.Prog, LoopUnroll);
  miniphp::Cfg G = miniphp::Cfg::build(Prog);
  miniphp::TaintResult Taint = miniphp::analyzeTaint(Prog, G, Attack);
  miniphp::SliceResult Slices = miniphp::computeSlices(G, Taint);
  bool ArtifactsOk = Obs.finishTrace("taint", Path, Err);
  if (!Taint.Ok) {
    Err << Path << ": error: taint pass could not order the CFG\n";
    return 2;
  }

  unsigned ProvenSafe = Taint.numProvenSafe();
  int ExitCode = Taint.Sinks.empty()
                     ? 3
                     : (ProvenSafe == Taint.Sinks.size() ? 0 : 1);
  if (!Obs.StatsPath.empty()) {
    Json Doc = ObservabilityOptions::envelope("taint", Path);
    Json Result = Json::object();
    Result["sinks"] = static_cast<uint64_t>(Taint.Sinks.size());
    Result["proven_safe"] = static_cast<uint64_t>(ProvenSafe);
    Result["exit_code"] = ExitCode;
    Doc["result"] = std::move(Result);
    StatsRegistry::Snapshot After = StatsRegistry::global().snapshot();
    Doc["taint"] = taintSection(Before, After);
    Doc["automata"] = automataSection(Before, After);
    Doc["decide"] = decideSection(Before, After);
    ArtifactsOk =
        ObservabilityOptions::writeJson(Obs.StatsPath, Doc, Err) && ArtifactsOk;
  }
  if (!ArtifactsOk)
    return 2;

  Out << "blocks: " << G.numBlocks() << ", sinks: " << Taint.Sinks.size()
      << ", proven safe: " << ProvenSafe << "\n";
  if (Taint.Sinks.empty()) {
    Out << "result: no sinks found\n";
    return 3;
  }
  for (const miniphp::SinkFact &Fact : Taint.Sinks) {
    Out << "sink at line " << Fact.Line << " (" << Fact.Callee
        << "): " << miniphp::taintLevelName(Fact.Level) << "\n";
    if (!Fact.Sources.empty()) {
      Out << "  sources:";
      for (const std::string &S : Fact.Sources)
        Out << " " << S;
      Out << "\n";
    }
    Out << "  verdict: "
        << (!Fact.Reachable ? "unreachable (proven safe)"
            : Fact.ProvenSafe ? "proven safe"
                              : "needs solving")
        << "\n";
    if (const miniphp::SinkSlice *Slice = Slices.sliceFor(Fact.Sink)) {
      Out << "  slice:";
      for (unsigned Line : Slice->Lines)
        Out << " " << Line;
      Out << "\n";
    }
  }
  Out << "result: "
      << (ExitCode == 0 ? "all sinks proven safe" : "needs solving")
      << "\n";
  return ExitCode;
}

namespace {

/// Audits one already-read source through the shared multi-policy pass
/// (miniphp::auditSource) and renders the per-file report object of
/// docs/TAINT.md. False on a parse failure (reported to \p Err).
bool auditFileReport(const std::string &Path, const std::string &Source,
                     const std::vector<const miniphp::Policy *> &Policies,
                     const miniphp::AnalysisOptions &Opts, Json &FileDoc,
                     bool &Vulnerable, bool &AnySinks, std::ostream &Err) {
  miniphp::AuditResult R = miniphp::auditSource(Source, Policies, Opts);
  if (!R.ParseOk) {
    Err << Path << ": parse error: " << R.ParseError << "\n";
    return false;
  }
  FileDoc = Json::object();
  FileDoc["file"] = Path;
  FileDoc["blocks"] = static_cast<uint64_t>(R.NumBlocks);
  FileDoc["vulnerable"] = R.anyVulnerable();
  FileDoc["any_sinks"] = R.anySinks();
  Json Findings = Json::array();
  for (const miniphp::PolicyFinding &F : R.Findings) {
    Json FJ = Json::object();
    FJ["policy"] = F.PolicyId;
    FJ["verdict"] = F.vulnerable()  ? "vulnerable"
                    : F.noSinks()   ? "no-sinks"
                                    : "safe";
    FJ["sinks_found"] = static_cast<uint64_t>(F.SinksFound);
    FJ["sinks_proven_safe"] = static_cast<uint64_t>(F.SinksProvenSafe);
    FJ["sink_paths"] = static_cast<uint64_t>(F.SinkPaths);
    FJ["vulnerable_paths"] = static_cast<uint64_t>(F.VulnerablePaths);
    if (F.vulnerable()) {
      FJ["sink_line"] = static_cast<uint64_t>(F.SinkLine);
      FJ["num_constraints"] = static_cast<uint64_t>(F.NumConstraints);
      FJ["solve_seconds"] = F.SolveSeconds;
      Json Exploit = Json::object();
      for (const auto &[Key, Value] : F.ExploitInputs)
        Exploit[Key] = Value;
      FJ["exploit_inputs"] = std::move(Exploit);
      Json Slice = Json::array();
      for (unsigned Line : F.SliceLines)
        Slice.push(static_cast<uint64_t>(Line));
      FJ["slice_lines"] = std::move(Slice);
    }
    Findings.push(std::move(FJ));
  }
  FileDoc["findings"] = std::move(Findings);
  Vulnerable = R.anyVulnerable();
  AnySinks = R.anySinks();
  return true;
}

/// The `dprle audit --watch=<dir>` streaming loop: poll the directory,
/// re-audit only files whose *content* changed (mtime churn with equal
/// bytes is a no-op), one NDJSON report line per sweep. The process-wide
/// decision and minimize caches stay warm across sweeps, so a re-audit of
/// a touched file redoes only what its edit invalidated.
int runAuditWatch(const std::string &Dir, uint64_t PollMs, uint64_t MaxSweeps,
                  const std::vector<const miniphp::Policy *> &Policies,
                  const miniphp::AnalysisOptions &Opts, std::ostream &Out,
                  std::ostream &Err) {
  std::error_code Ec;
  if (!std::filesystem::is_directory(Dir, Ec)) {
    Err << "error: --watch= expects a directory: " << Dir << "\n";
    return 2;
  }
  std::map<std::string, uint64_t> Seen;
  for (uint64_t Sweep = 0;; ++Sweep) {
    if (Sweep)
      std::this_thread::sleep_for(std::chrono::milliseconds(PollMs));
    std::vector<std::string> Files;
    for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec)) {
      if (!Entry.is_regular_file(Ec) || Entry.path().extension() != ".php")
        continue;
      Files.push_back(Entry.path().string());
    }
    std::sort(Files.begin(), Files.end());

    Json Reports = Json::array();
    uint64_t Changed = 0, Vulnerable = 0;
    std::map<std::string, uint64_t> Next;
    for (const std::string &Path : Files) {
      std::ifstream InFile(Path);
      if (!InFile)
        continue; // Mid-write or vanished; picked up next sweep.
      std::ostringstream Buffer;
      Buffer << InFile.rdbuf();
      std::string Source = Buffer.str();
      uint64_t Hash = fnv1a(Source);
      auto It = Seen.find(Path);
      if (It != Seen.end() && It->second == Hash) {
        Next[Path] = Hash;
        continue;
      }
      // The hash is recorded even when the audit fails to parse, so a
      // broken file is reported once, not every sweep.
      Next[Path] = Hash;
      ++Changed;
      Json FileDoc;
      bool FileVuln = false, FileSinks = false;
      if (!auditFileReport(Path, Source, Policies, Opts, FileDoc, FileVuln,
                           FileSinks, Err)) {
        FileDoc = Json::object();
        FileDoc["file"] = Path;
        FileDoc["parse_error"] = true;
      }
      if (FileVuln)
        ++Vulnerable;
      Reports.push(std::move(FileDoc));
    }
    // Removed files drop out of the ledger; re-added ones re-audit.
    Seen = std::move(Next);

    Json Line = Json::object();
    Line["sweep"] = Sweep;
    Line["files_scanned"] = static_cast<uint64_t>(Files.size());
    Line["files_changed"] = Changed;
    Line["vulnerable_changed"] = Vulnerable;
    Line["reports"] = std::move(Reports);
    Out << Line.dump(0) << "\n";
    Out.flush();
    if (MaxSweeps != 0 && Sweep + 1 >= MaxSweeps)
      return 0;
  }
}

} // namespace

int dprle::tools::runAudit(const std::vector<std::string> &Args,
                           std::istream &In, std::ostream &Out,
                           std::ostream &Err) {
  miniphp::AnalysisOptions Opts;
  ObservabilityOptions Obs;
  std::vector<const miniphp::Policy *> Policies;
  std::vector<std::string> Paths;
  std::string WatchDir;
  uint64_t WatchPollMs = 500;
  uint64_t WatchMaxSweeps = 0;
  for (const std::string &Arg : Args) {
    if (Arg.rfind("--watch=", 0) == 0) {
      WatchDir = Arg.substr(std::char_traits<char>::length("--watch="));
      if (WatchDir.empty()) {
        Err << "error: --watch= requires a directory path\n";
        return 2;
      }
    } else if (Arg.rfind("--watch-poll-ms=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--watch-poll-ms=", WatchPollMs, Err))
        return 2;
    } else if (Arg.rfind("--watch-max-sweeps=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--watch-max-sweeps=", WatchMaxSweeps,
                               Err))
        return 2;
    } else if (Arg.rfind("--policy=", 0) == 0) {
      std::string Value =
          Arg.substr(std::char_traits<char>::length("--policy="));
      if (Value.empty()) {
        Err << "error: --policy= requires a comma-separated policy list\n";
        return 2;
      }
      // Comma-separated ids; repeated flags accumulate, and a policy
      // named more than once (also through an alias) is audited once, in
      // the place it was first named.
      size_t Pos = 0;
      while (Pos <= Value.size()) {
        size_t Comma = Value.find(',', Pos);
        size_t End = Comma == std::string::npos ? Value.size() : Comma;
        const miniphp::Policy *P =
            lookupPolicy(Value.substr(Pos, End - Pos), Err);
        if (!P)
          return 2;
        if (std::find(Policies.begin(), Policies.end(), P) == Policies.end())
          Policies.push_back(P);
        if (Comma == std::string::npos)
          break;
        Pos = Comma + 1;
      }
    } else if (Arg == "--all") {
      Opts.StopAtFirstVulnerability = false;
      Opts.SymExec.StopAtFirstSink = false;
    } else if (Arg == "--no-taint-prune") {
      Opts.TaintPrune = false;
    } else if (Arg == "--no-decision-cache") {
      DecisionCache::global().setEnabled(false);
    } else if (Obs.consume(Arg)) {
      continue;
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      Err << "error: unknown option " << Arg << "\n";
      return 2;
    } else {
      Paths.push_back(Arg);
    }
  }
  if (!Obs.ArgError.empty()) {
    Err << Obs.ArgError;
    return 2;
  }
  if (Policies.empty())
    for (const miniphp::Policy &P : miniphp::PolicyRegistry::global().policies())
      Policies.push_back(&P);
  if (!WatchDir.empty()) {
    if (!Paths.empty()) {
      Err << "error: --watch= takes no positional input files\n";
      return 2;
    }
    if (!Obs.StatsPath.empty() || Obs.traceRequested()) {
      Err << "error: --stats=/--trace= are not supported with --watch=\n";
      return 2;
    }
    return runAuditWatch(WatchDir, WatchPollMs, WatchMaxSweeps, Policies,
                         Opts, Out, Err);
  }
  if (Paths.empty()) {
    Err << "error: no input files (use '-' for stdin)\n";
    return 2;
  }

  // The stats/trace "input" label: the single path, or a batch summary.
  std::string InputLabel =
      Paths.size() == 1
          ? Paths.front()
          : Paths.front() + " (+" + std::to_string(Paths.size() - 1) +
                " more)";

  StatsRegistry::Snapshot Before = StatsRegistry::global().snapshot();
  Obs.beginTrace();

  // Batch mode: every file goes through the same shared single pass, and
  // the process-wide DecisionCache persists across files, so repeated
  // filter languages and attack machines are decided once per batch.
  Json Files = Json::array();
  unsigned VulnerableFiles = 0;
  bool AnyVulnerable = false;
  bool AnySinks = false;
  std::string ReadOrParseError;
  for (const std::string &Path : Paths) {
    std::string Source;
    if (!readInput(Path, In, Source, Err)) {
      ReadOrParseError = Path;
      break;
    }
    Json FileDoc;
    bool FileVuln = false, FileSinks = false;
    if (!auditFileReport(Path, Source, Policies, Opts, FileDoc, FileVuln,
                         FileSinks, Err)) {
      ReadOrParseError = Path;
      break;
    }
    Files.push(std::move(FileDoc));
    if (FileVuln)
      ++VulnerableFiles;
    AnyVulnerable = AnyVulnerable || FileVuln;
    AnySinks = AnySinks || FileSinks;
  }

  bool ArtifactsOk = Obs.finishTrace("audit", InputLabel, Err);
  if (!ReadOrParseError.empty())
    return 2;
  int ExitCode = AnyVulnerable ? 0 : (AnySinks ? 1 : 3);

  Json Doc = ObservabilityOptions::envelope("audit", InputLabel);
  Json PolicyIds = Json::array();
  for (const miniphp::Policy *P : Policies)
    PolicyIds.push(P->Id);
  Doc["policies"] = std::move(PolicyIds);
  Doc["files"] = std::move(Files);
  Json Summary = Json::object();
  Summary["files"] = static_cast<uint64_t>(Paths.size());
  Summary["vulnerable_files"] = static_cast<uint64_t>(VulnerableFiles);
  Summary["exit_code"] = ExitCode;
  Doc["summary"] = std::move(Summary);

  if (!Obs.StatsPath.empty()) {
    Json Stats = ObservabilityOptions::envelope("audit", InputLabel);
    Json Result = Json::object();
    Result["files"] = static_cast<uint64_t>(Paths.size());
    Result["vulnerable_files"] = static_cast<uint64_t>(VulnerableFiles);
    Result["exit_code"] = ExitCode;
    Stats["result"] = std::move(Result);
    StatsRegistry::Snapshot After = StatsRegistry::global().snapshot();
    Stats["taint"] = taintSection(Before, After);
    Stats["automata"] = automataSection(Before, After);
    Stats["decide"] = decideSection(Before, After);
    Stats["symexec"] = prefixSection(Before, After, "miniphp.symexec.");
    ArtifactsOk =
        ObservabilityOptions::writeJson(Obs.StatsPath, Stats, Err) &&
        ArtifactsOk;
  }
  if (!ArtifactsOk)
    return 2;

  Out << Doc.dump() << "\n";
  return ExitCode;
}

int dprle::tools::runAutomata(const std::vector<std::string> &Args,
                              std::ostream &Out, std::ostream &Err) {
  if (Args.empty()) {
    printUsage(Err);
    return 2;
  }
  const std::string &Op = Args[0];
  std::vector<std::string> Rest(Args.begin() + 1, Args.end());

  auto Need = [&](size_t N) {
    if (Rest.size() == N)
      return true;
    Err << "error: '" << Op << "' expects " << N << " argument"
        << (N == 1 ? "" : "s") << "\n";
    return false;
  };

  // Unary machine -> machine/text operations.
  if (Op == "info" || Op == "minimize" || Op == "complement" ||
      Op == "dot" || Op == "to-regex" || Op == "shortest" ||
      Op == "enumerate") {
    if (!Need(1))
      return 2;
    Nfa M;
    if (!loadMachine(Rest[0], M, Err))
      return 2;
    if (Op == "info") {
      Out << "states:      " << M.numStates() << "\n"
          << "transitions: " << M.numTransitions() << "\n"
          << "epsilons:    " << M.numEpsilonTransitions() << "\n"
          << "accepting:   " << M.numAccepting() << "\n"
          << "empty:       " << (M.languageIsEmpty() ? "yes" : "no") << "\n"
          << "dfa states:  " << determinize(M).numStates() << "\n"
          << "minimal dfa: " << determinize(M).minimized().numStates()
          << "\n";
      return 0;
    }
    if (Op == "minimize") {
      Out << serializeNfa(minimized(M), "minimized");
      return 0;
    }
    if (Op == "complement") {
      Out << serializeNfa(complement(M), "complement");
      return 0;
    }
    if (Op == "dot") {
      printNfaDot(Out, M);
      return 0;
    }
    if (Op == "to-regex") {
      Out << "/" << nfaToRegex(M) << "/\n";
      return 0;
    }
    if (Op == "shortest") {
      auto S = shortestString(M);
      if (!S) {
        Out << "<empty language>\n";
        return 1;
      }
      Out << "\"" << *S << "\"\n";
      return 0;
    }
    // enumerate
    for (const std::string &S : enumerateStrings(M, 16, 20))
      Out << "\"" << S << "\"\n";
    return 0;
  }

  // Binary machine x machine operations.
  if (Op == "intersect" || Op == "union" || Op == "concat" ||
      Op == "equiv" || Op == "subset") {
    if (!Need(2))
      return 2;
    Nfa A, B;
    if (!loadMachine(Rest[0], A, Err) || !loadMachine(Rest[1], B, Err))
      return 2;
    if (Op == "intersect") {
      Out << serializeNfa(intersect(A, B).trimmed(), "intersection");
      return 0;
    }
    if (Op == "union") {
      Out << serializeNfa(alternate(A, B), "union");
      return 0;
    }
    if (Op == "concat") {
      Out << serializeNfa(concat(A, B), "concatenation");
      return 0;
    }
    if (Op == "equiv") {
      bool Eq = equivalentTo(A, B);
      Out << (Eq ? "equivalent" : "different") << "\n";
      return Eq ? 0 : 1;
    }
    bool Sub = subsetOf(A, B);
    Out << (Sub ? "subset" : "not a subset") << "\n";
    return Sub ? 0 : 1;
  }

  if (Op == "accepts") {
    if (!Need(2))
      return 2;
    Nfa M;
    if (!loadMachine(Rest[0], M, Err))
      return 2;
    bool Ok = M.accepts(Rest[1]);
    Out << (Ok ? "accepted" : "rejected") << "\n";
    return Ok ? 0 : 1;
  }

  Err << "error: unknown automata op '" << Op << "'\n";
  printUsage(Err);
  return 2;
}

int dprle::tools::runCorpus(const std::vector<std::string> &Args,
                            std::ostream &Out, std::ostream &Err) {
  if (Args.size() != 1) {
    Err << "error: corpus expects an output directory\n";
    return 2;
  }
  std::filesystem::path Root(Args[0]);
  std::error_code Ec;
  std::filesystem::create_directories(Root, Ec);
  if (Ec) {
    Err << "error: cannot create " << Args[0] << ": " << Ec.message()
        << "\n";
    return 1;
  }
  for (const miniphp::Suite &S : miniphp::figure11Suites()) {
    std::filesystem::path Dir = Root / (S.Name + "-" + S.Version);
    std::filesystem::create_directories(Dir, Ec);
    for (const miniphp::SuiteFile &F : S.Files) {
      std::ofstream File(Dir / F.Name);
      if (!File) {
        Err << "error: cannot write " << (Dir / F.Name).string() << "\n";
        return 1;
      }
      File << F.Source;
    }
    Out << S.Name << " " << S.Version << ": " << S.Files.size()
        << " files, " << S.totalLines() << " lines\n";
  }
  return 0;
}

int dprle::tools::runServe(const std::vector<std::string> &Args,
                           std::istream &In, std::ostream &Out,
                           std::ostream &Err) {
  dprle::service::ServiceOptions Opts;
  std::string ListenSpec;
  std::string UnixPath;
  std::string JournalDir;
  uint64_t Shards = 0;
  uint64_t MaxInflight = 0;
  uint64_t MaxRestarts = 8;
  uint64_t WatchdogMs = 0;
  for (const std::string &Arg : Args) {
    uint64_t Value = 0;
    if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--jobs=", Value, Err))
        return 2;
      if (Value == 0) {
        Err << "error: --jobs= must be at least 1\n";
        return 2;
      }
      Opts.Jobs = static_cast<unsigned>(Value);
    } else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--deadline-ms=", Value, Err))
        return 2;
      Opts.DefaultDeadlineMs = Value;
    } else if (Arg.rfind("--max-states=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--max-states=", Value, Err))
        return 2;
      Opts.MaxNfaStates = Value;
    } else if (Arg.rfind("--max-states-budget=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--max-states-budget=", Value, Err))
        return 2;
      Opts.MaxStatesBudget = Value;
    } else if (Arg.rfind("--max-transitions-budget=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--max-transitions-budget=", Value, Err))
        return 2;
      Opts.MaxTransitionsBudget = Value;
    } else if (Arg.rfind("--max-memory-bytes=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--max-memory-bytes=", Value, Err))
        return 2;
      Opts.MaxMemoryBytes = Value;
    } else if (Arg.rfind("--max-queue=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--max-queue=", Value, Err))
        return 2;
      Opts.MaxQueueDepth = Value;
    } else if (Arg.rfind("--retry-after-ms=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--retry-after-ms=", Value, Err))
        return 2;
      Opts.RetryAfterMsHint = Value;
    } else if (Arg.rfind("--max-sessions=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--max-sessions=", Value, Err))
        return 2;
      Opts.MaxSessions = Value;
    } else if (Arg.rfind("--session-idle-ms=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--session-idle-ms=", Value, Err))
        return 2;
      Opts.SessionIdleTimeoutMs = Value;
    } else if (Arg.rfind("--listen=", 0) == 0) {
      ListenSpec = Arg.substr(std::char_traits<char>::length("--listen="));
      if (ListenSpec.empty()) {
        Err << "error: --listen= expects [host]:port\n";
        return 2;
      }
    } else if (Arg.rfind("--unix-socket=", 0) == 0) {
      UnixPath = Arg.substr(std::char_traits<char>::length("--unix-socket="));
      if (UnixPath.empty()) {
        Err << "error: --unix-socket= expects a filesystem path\n";
        return 2;
      }
    } else if (Arg.rfind("--shards=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--shards=", Shards, Err))
        return 2;
    } else if (Arg.rfind("--max-inflight=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--max-inflight=", MaxInflight, Err))
        return 2;
    } else if (Arg.rfind("--max-restarts=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--max-restarts=", MaxRestarts, Err))
        return 2;
    } else if (Arg.rfind("--journal-dir=", 0) == 0) {
      JournalDir =
          Arg.substr(std::char_traits<char>::length("--journal-dir="));
      if (JournalDir.empty()) {
        Err << "error: --journal-dir= expects a directory path\n";
        return 2;
      }
    } else if (Arg == "--journal-fsync") {
      Opts.JournalFsync = true;
    } else if (Arg.rfind("--journal-compact-bytes=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--journal-compact-bytes=", Value, Err))
        return 2;
      Opts.JournalCompactBytes = Value;
    } else if (Arg.rfind("--watchdog-ms=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--watchdog-ms=", WatchdogMs, Err))
        return 2;
    } else if (Arg.rfind("--fault=", 0) == 0) {
      // Same spec as the DPRLE_FAULT env var; the flag wins when both
      // are given (it arms later).
      std::string Spec = Arg.substr(std::char_traits<char>::length("--fault="));
      if (!FaultInjector::global().arm(Spec)) {
        Err << "error: --fault= expects <site>:<nth>, e.g. io.write:1 "
               "(see docs/ROBUSTNESS.md)\n";
        return 2;
      }
    } else {
      Err << "error: unknown option " << Arg << "\n";
      return 2;
    }
  }
  if (!ListenSpec.empty() && !UnixPath.empty()) {
    Err << "error: --listen= and --unix-socket= are mutually exclusive\n";
    return 2;
  }
  if (!JournalDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(JournalDir, Ec);
    if (Ec) {
      Err << "error: cannot create --journal-dir= " << JournalDir << ": "
          << Ec.message() << "\n";
      return 1;
    }
  }

  // The handler every transport feeds: sharded (a Router forwarding to
  // worker processes) or local (one in-process SolverService).
  std::unique_ptr<dprle::service::SolverService> Local;
  std::unique_ptr<dprle::service::Router> Routed;
  dprle::service::LineHandler *Handler = nullptr;
  if (Shards > 0) {
    dprle::service::RouterOptions ROpts;
    ROpts.Shards = static_cast<unsigned>(Shards);
    ROpts.Worker = Opts;
    ROpts.MaxRestartsPerShard = static_cast<unsigned>(MaxRestarts);
    ROpts.RetryAfterMsHint = Opts.RetryAfterMsHint;
    ROpts.JournalDir = JournalDir;
    ROpts.WatchdogIntervalMs = WatchdogMs;
    Routed = std::make_unique<dprle::service::Router>(ROpts);
    std::string RouterErr;
    if (!Routed->start(&RouterErr)) {
      Err << "error: failed to start shard workers: " << RouterErr << "\n";
      return 1;
    }
    Handler = Routed.get();
  } else {
    // Same file name a one-shard fleet would use, so a deployment can
    // move between --shards=1 and the local service without losing its
    // journaled sessions.
    if (!JournalDir.empty())
      Opts.JournalPath = JournalDir + "/shard-0.journal";
    Local = std::make_unique<dprle::service::SolverService>(Opts);
    Handler = Local.get();
  }

  if (ListenSpec.empty() && UnixPath.empty()) {
    // The classic stdio transport. A stdin read cannot be unblocked from
    // another thread, so the SIGTERM/SIGINT watcher finishes the drain
    // itself: answer what is in flight, flush durable state, exit 0.
    dprle::service::SignalDrainGuard Drain([&] {
      Handler->drain();
      if (Routed)
        Routed->stop();
      Out.flush();
      ::_exit(0);
    });
    int Rc = dprle::service::serveStreams(*Handler, In, Out);
    if (Routed)
      Routed->stop();
    return Rc;
  }

  dprle::service::ListenerOptions LOpts;
  LOpts.Conn.MaxInflight = static_cast<size_t>(MaxInflight);
  LOpts.Conn.RetryAfterMsHint = Opts.RetryAfterMsHint;
  dprle::service::Listener Front(*Handler, LOpts);
  std::string ListenErr;
  std::string Announce;
  if (!UnixPath.empty()) {
    if (!Front.listenUnix(UnixPath, &ListenErr)) {
      Err << "error: " << ListenErr << "\n";
      return 1;
    }
    Announce = "unix:" + UnixPath;
  } else {
    std::string Host = "127.0.0.1";
    size_t Colon = ListenSpec.rfind(':');
    std::string PortStr =
        Colon == std::string::npos ? ListenSpec : ListenSpec.substr(Colon + 1);
    if (Colon != std::string::npos && Colon > 0)
      Host = ListenSpec.substr(0, Colon);
    if (PortStr.empty() ||
        PortStr.find_first_not_of("0123456789") != std::string::npos ||
        std::stoull(PortStr) > 65535) {
      Err << "error: --listen= expects [host]:port with port in 0..65535\n";
      return 2;
    }
    if (!Front.listenTcp(Host, static_cast<uint16_t>(std::stoull(PortStr)),
                         &ListenErr)) {
      Err << "error: " << ListenErr << "\n";
      return 1;
    }
    Announce = Host + ":" + std::to_string(Front.boundPort());
  }
  // Scrapable by scripts and tests (port 0 resolves to the bound port).
  Out << "listening on " << Announce << "\n";
  Out.flush();
  Front.start();
  // SIGTERM/SIGINT: stop accepting, drain in-flight work (Listener::stop
  // drains the handler, which flushes journals), and let run() return 0.
  dprle::service::SignalDrainGuard Drain([&Front] { Front.stop(); });
  int Rc = Front.run();
  if (Routed)
    Routed->stop();
  return Rc;
}

int dprle::tools::runRepl(const std::vector<std::string> &Args,
                          std::istream &In, std::ostream &Out,
                          std::ostream &Err) {
  SolverOptions Opts;
  uint64_t Jobs = 1;
  for (const std::string &Arg : Args) {
    if (Arg == "--first")
      Opts.MaxSolutions = 1;
    else if (Arg == "--no-decision-cache") {
      DecisionCache::global().setEnabled(false);
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseUnsignedOption(Arg, "--jobs=", Jobs, Err) || Jobs == 0) {
        if (Jobs == 0)
          Err << "error: --jobs= must be at least 1\n";
        return 2;
      }
    } else {
      Err << "error: unknown option " << Arg << "\n";
      return 2;
    }
  }
  std::unique_ptr<dprle::service::ThreadPool> Pool;
  if (Jobs > 1) {
    Pool = std::make_unique<dprle::service::ThreadPool>(
        static_cast<unsigned>(Jobs));
    Opts.Jobs = static_cast<unsigned>(Jobs);
    Opts.Exec = Pool.get();
  }

  // Line-oriented loop: the bare keywords below are session commands;
  // every other non-blank line is constraint text (ConstraintParser.h
  // syntax, complete statements) asserted into the current frame.
  SolverSession Session(Opts);
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    // Trim and skip blanks / comment-only lines cheaply; full comment
    // handling is the parser's job.
    size_t Begin = Line.find_first_not_of(" \t\r");
    if (Begin == std::string::npos)
      continue;
    size_t End = Line.find_last_not_of(" \t\r");
    std::string Cmd = Line.substr(Begin, End - Begin + 1);
    if (Cmd == "quit" || Cmd == "exit")
      break;
    if (Cmd == "push") {
      Session.push();
      Out << "pushed (depth " << Session.depth() << ")\n";
    } else if (Cmd == "pop") {
      if (!Session.pop())
        Out << "error: no frame to pop\n";
      else
        Out << "popped (depth " << Session.depth() << ")\n";
    } else if (Cmd == "depth") {
      Out << Session.depth() << "\n";
    } else if (Cmd == "reset") {
      // Cold restart: drop the warm caches but keep the constraints.
      Session.invalidate();
      Out << "caches cleared\n";
    } else if (Cmd == "check") {
      SolveResult R = Session.check();
      const SessionCheckInfo &Info = Session.lastCheckInfo();
      const Problem &P = Session.problem();
      if (!R.Satisfiable) {
        Out << "unsat";
      } else {
        Out << "sat (" << R.Assignments.size() << " assignment"
            << (R.Assignments.size() == 1 ? "" : "s") << ")";
      }
      Out << "  [" << (Info.Incremental ? "warm" : "cold") << ", groups "
          << Info.GroupsReused << "/" << Info.GroupsTotal << " reused]\n";
      Out << assignmentsText(P, R);
    } else {
      std::string Error;
      size_t ErrLine = 0;
      if (!Session.assertText(Cmd, &Error, &ErrLine))
        Out << "error: line " << LineNo << ": " << Error << "\n";
      else
        Out << "ok\n";
    }
    Out.flush();
  }
  return 0;
}

int dprle::tools::runMain(const std::vector<std::string> &Args,
                          std::istream &In, std::ostream &Out,
                          std::ostream &Err) {
  if (Args.empty()) {
    printUsage(Err);
    return 2;
  }
  std::vector<std::string> Rest(Args.begin() + 1, Args.end());
  if (Args[0] == "solve")
    return runSolve(Rest, In, Out, Err);
  if (Args[0] == "analyze")
    return runAnalyze(Rest, In, Out, Err);
  if (Args[0] == "taint")
    return runTaint(Rest, In, Out, Err);
  if (Args[0] == "audit")
    return runAudit(Rest, In, Out, Err);
  if (Args[0] == "automata")
    return runAutomata(Rest, Out, Err);
  if (Args[0] == "corpus")
    return runCorpus(Rest, Out, Err);
  if (Args[0] == "serve")
    return runServe(Rest, In, Out, Err);
  if (Args[0] == "repl")
    return runRepl(Rest, In, Out, Err);
  if (Args[0] == "--help" || Args[0] == "help") {
    printUsage(Out);
    return 0;
  }
  Err << "error: unknown command '" << Args[0] << "'\n";
  printUsage(Err);
  return 2;
}
