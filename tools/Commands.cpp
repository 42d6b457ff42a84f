//===- Commands.cpp - dprle tool command library ---------------------------===//

#include "tools/Commands.h"

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "automata/Print.h"
#include "automata/Serialize.h"
#include "miniphp/Analysis.h"
#include "miniphp/Corpus.h"
#include "miniphp/Policy.h"
#include "miniphp/Slice.h"
#include "miniphp/Taint.h"
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
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include <unistd.h>

using namespace dprle;
using namespace dprle::tools;

namespace {

//===----------------------------------------------------------------------===//
// Flags: one declaration each drives the parse, the range check and help
//===----------------------------------------------------------------------===//

enum class Kind { Switch, Unsigned, String, List };

/// One flag of one subcommand. A switch is spelled `--Name`, every other
/// kind `--Name=value`; the value is stored only once it has been checked.
struct Flag {
  const char *Name;
  Kind K;
  const char *Help;
  /// The value's placeholder in `dprle help`; null for a switch.
  const char *Meta = nullptr;
  /// Unsigned: the accepted range. String: Min is the shortest value.
  uint64_t Min = 0, Max = 0;
  /// Unsigned: the value when the flag is not given, for the help.
  uint64_t Default = 0;
  /// Stores the value: the text, and for Unsigned also its number.
  std::function<void(const std::string &, uint64_t)> Store;
};

Flag flag(const char *Name, bool &Dest, const char *Help) {
  return {Name, Kind::Switch, Help, nullptr, 0, 0, 0,
          [&Dest](const std::string &, uint64_t) { Dest = true; }};
}

template <typename T>
Flag flag(const char *Name, T &Dest, const char *Help, uint64_t Min = 0,
          uint64_t Max = std::numeric_limits<uint64_t>::max()) {
  Max = std::min<uint64_t>(Max, std::numeric_limits<T>::max());
  return {Name, Kind::Unsigned, Help, "N", Min, Max, Dest,
          [&Dest](const std::string &, uint64_t V) {
            Dest = static_cast<T>(V);
          }};
}

Flag flag(const char *Name, const char *Meta, std::string &Dest,
          const char *Help) {
  return {Name, Kind::String, Help, Meta, 1, 0, 0,
          [&Dest](const std::string &V, uint64_t) { Dest = V; }};
}

/// A comma list: repeated flags accumulate, and empty items are kept for
/// the command to reject.
Flag flag(const char *Name, const char *Meta, std::vector<std::string> &Dest,
          const char *Help) {
  return {Name, Kind::List, Help, Meta, 1, 0, 0,
          [&Dest](const std::string &V, uint64_t) {
            for (size_t Pos = 0, Comma = 0; Comma != std::string::npos;
                 Pos = Comma + 1) {
              Comma = V.find(',', Pos);
              Dest.push_back(V.substr(Pos, Comma - Pos));
            }
          }};
}

/// Parses a decimal number; false on anything else, overflow included.
bool parseNumber(const std::string &Text, uint64_t &Out) {
  const char *End = Text.data() + Text.size();
  std::from_chars_result R = std::from_chars(Text.data(), End, Out);
  return R.ec == std::errc() && R.ptr == End;
}

/// "Min..Max"; empty for the full range of a uint64_t.
std::string rangeText(const Flag &F) {
  if (F.Min == 0 && F.Max == std::numeric_limits<uint64_t>::max())
    return "";
  return std::to_string(F.Min) + ".." + std::to_string(F.Max);
}

//===----------------------------------------------------------------------===//
// Subcommands: one table drives dispatch, parsing and `dprle help`
//===----------------------------------------------------------------------===//

struct Command {
  const char *Name;
  /// The inputs' placeholder in the usage line; "" for none.
  const char *Inputs;
  size_t MinInputs, MaxInputs;
  /// The help paragraph; "{policies}" and "{ops}" are filled in.
  const char *Summary;
  int (*Run)(const Command &, const std::vector<std::string> &,
             std::istream &, std::ostream &, std::ostream &);
  /// The command's flags, bound to a default-constructed instance.
  std::vector<Flag> (*DefaultFlags)();
};

std::string usageLine(const Command &C) {
  return std::string("dprle ") + C.Name +
         (C.DefaultFlags().empty() ? "" : " [flags]") +
         (*C.Inputs ? " " : "") + C.Inputs;
}

/// Parses \p Args against \p Flags: a flag starts with '-' ("-" alone is
/// stdin); every other argument is an input, and so is every argument of
/// a command without flags. Reports the first problem as one `error:`
/// line.
bool parseArgs(const Command &C, const std::vector<Flag> &Flags,
               const std::vector<std::string> &Args,
               std::vector<std::string> &Inputs, std::ostream &Err) {
  for (const std::string &Arg : Args) {
    if (Flags.empty() || Arg.size() < 2 || Arg[0] != '-') {
      if (Inputs.size() == C.MaxInputs) {
        Err << "error: unexpected argument '" << Arg
            << "' (usage: " << usageLine(C) << ")\n";
        return false;
      }
      Inputs.push_back(Arg);
      continue;
    }
    size_t Eq = Arg.find('=');
    std::string Spelled = Arg.substr(0, Eq);
    auto F = std::find_if(Flags.begin(), Flags.end(), [&](const Flag &F) {
      return Spelled == std::string("--") + F.Name;
    });
    if (F == Flags.end()) {
      Err << "error: unknown option " << Arg << "\n";
      return false;
    }
    if (F->K == Kind::Switch) {
      if (Eq != std::string::npos) {
        Err << "error: " << Spelled << " takes no value\n";
        return false;
      }
      F->Store("", 0);
      continue;
    }
    std::string Value = Eq == std::string::npos ? "" : Arg.substr(Eq + 1);
    uint64_t Number = 0;
    if (F->K == Kind::Unsigned &&
        (!parseNumber(Value, Number) || Number < F->Min || Number > F->Max)) {
      std::string Range = rangeText(*F);
      Err << "error: " << Spelled << "= expects an integer in "
          << (Range.empty() ? "0..2^64-1" : Range) << ", got '" << Value
          << "'\n";
      return false;
    }
    if (F->K != Kind::Unsigned &&
        (Eq == std::string::npos || Value.size() < F->Min)) {
      Err << "error: " << Spelled << "= expects " << F->Meta << "\n";
      return false;
    }
    F->Store(Value, Number);
  }
  if (Inputs.size() < C.MinInputs) {
    Err << "error: missing input (usage: " << usageLine(C) << ")\n";
    return false;
  }
  return true;
}

/// Parses the command line into a fresh \p C, then runs it.
template <typename C>
int run(const Command &Cmd, const std::vector<std::string> &Args,
        std::istream &In, std::ostream &Out, std::ostream &Err) {
  C Instance;
  std::vector<std::string> Inputs;
  if (!parseArgs(Cmd, Instance.flags(), Args, Inputs, Err))
    return 2;
  return Instance.run(Inputs, In, Out, Err);
}

template <typename C> std::vector<Flag> defaultFlags() {
  static C Defaults;
  return Defaults.flags();
}

//===----------------------------------------------------------------------===//
// Shared pieces
//===----------------------------------------------------------------------===//

/// Reads a whole file (or stdin for "-").
bool readInput(const std::string &Path, std::istream &Stdin,
               std::string &Out, std::ostream &Err) {
  std::ifstream File;
  if (Path != "-") {
    File.open(Path);
    if (!File) {
      Err << "error: cannot open " << Path << "\n";
      return false;
    }
  }
  std::ostringstream Buffer;
  Buffer << (Path == "-" ? Stdin : File).rdbuf();
  Out = Buffer.str();
  return true;
}

/// Loads a machine spec: /regex/ literal or serialized-NFA file path.
bool loadMachine(const std::string &Spec, std::istream &In, Nfa &Out,
                 std::ostream &Err) {
  if (Spec.size() >= 2 && Spec.front() == '/' && Spec.back() == '/') {
    RegexParseResult R = parseRegexExtended(Spec.substr(1, Spec.size() - 2));
    if (!R.ok()) {
      Err << "error: regex " << Spec << ": " << R.Error << " at offset "
          << R.ErrorPos << "\n";
      return false;
    }
    Out = compileRegex(*R.Ast);
    return true;
  }
  std::string Text;
  if (!readInput(Spec, In, Text, Err))
    return false;
  NfaParseResult R = parseNfa(Text);
  if (!R.ok()) {
    Err << "error: " << Spec << ":" << R.ErrorLine << ": " << R.Error
        << "\n";
    return false;
  }
  Out = std::move(*R.Machine);
  return true;
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

/// The header every artifact and the audit report share; "input" is the
/// single path, or a batch summary.
Json envelope(const char *Command, const std::vector<std::string> &Paths) {
  Json Out = Json::object();
  Out["schema_version"] = 1;
  Out["tool"] = "dprle";
  Out["command"] = Command;
  Out["input"] = Paths.size() == 1 ? Paths.front()
                                   : Paths.front() + " (+" +
                                         std::to_string(Paths.size() - 1) +
                                         " more)";
  return Out;
}

/// Writes \p Body's members under the envelope to \p Path.
bool writeArtifact(const std::string &Path, Json Doc, const Json &Body,
                   std::ostream &Err) {
  for (const auto &[Key, Value] : Body.members())
    Doc[Key] = Value;
  std::ofstream Out(Path);
  if (!Out) {
    Err << "error: cannot write " << Path << "\n";
    return false;
  }
  Out << Doc.dump() << "\n";
  return true;
}

/// Resolves a policy id against the registry; reports the known ids on
/// failure.
const miniphp::Policy *lookupPolicy(const std::string &Id,
                                    std::ostream &Err) {
  const miniphp::Policy *P = miniphp::PolicyRegistry::global().byId(Id);
  if (!P)
    Err << "error: unknown policy '" << Id << "' (known: "
        << miniphp::PolicyRegistry::global().idList()
        << "; alias sql for sqli)\n";
  return P;
}

/// "unsat", or "sat (N assignments)".
std::string verdictText(const SolveResult &R) {
  size_t N = R.Assignments.size();
  return R.Satisfiable ? "sat (" + std::to_string(N) + " assignment" +
                             (N == 1 ? "" : "s") + ")"
                       : "unsat";
}

/// \p Label and each of \p Items, space-separated, on one line.
template <typename Range>
void printList(std::ostream &Out, const char *Label, const Range &Items) {
  Out << Label;
  for (const auto &Item : Items)
    Out << " " << Item;
  Out << "\n";
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

/// Applies `--first` to \p Opts and wires in the pool behind `--jobs=N`;
/// none at N = 1, which keeps the solver on its serial path.
std::unique_ptr<service::ThreadPool> setUpSolver(bool First,
                                                 SolverOptions &Opts) {
  if (First)
    Opts.MaxSolutions = 1;
  if (Opts.Jobs <= 1)
    return nullptr;
  auto Pool = std::make_unique<service::ThreadPool>(Opts.Jobs);
  Opts.Exec = Pool.get();
  return Pool;
}

Flag jobsFlag(unsigned &Jobs) {
  return flag("jobs", Jobs, "threads for the solver's parallel stages", 1,
              MaxJobs);
}

Flag noDecisionCacheFlag(bool &Off) {
  return flag("no-decision-cache", Off,
              "turn off every machine memo (decide answers, minimize "
              "results, renders)");
}

/// The flags and the skeleton of the four file commands (`solve`,
/// `analyze`, `taint`, `audit`); docs/OBSERVABILITY.md has the schemas
/// of the files they write.
struct FileCommand {
  bool NoDecisionCache = false;
  std::string StatsPath;
  std::string TracePath;
  /// `--all` and `--no-taint-prune`: `analyze` and `audit` take them.
  bool All = false;
  bool NoTaintPrune = false;

  /// The run, as the work sees it: the inputs' contents; the counter
  /// window of --stats and the --trace spans, from begin() to end(); the
  /// command's own --stats sections; and the answer, printed once the
  /// files are written.
  std::vector<std::string> Sources;
  StatsRegistry::Snapshot Before, After;
  bool Ended = false;
  Json Stats = Json::object();
  std::ostringstream Answer;

  /// \p Flags followed by the rows every file command takes.
  std::vector<Flag> fileFlags(std::vector<Flag> Flags) {
    Flags.push_back(noDecisionCacheFlag(NoDecisionCache));
    Flags.push_back(flag("stats", "<file.json>", StatsPath,
                         "write run counters (docs/OBSERVABILITY.md)"));
    Flags.push_back(flag("trace", "<file.json>", TracePath,
                         "write a span trace of the run"));
    return Flags;
  }

  Flag all() {
    return flag("all", All, "report every vulnerable path, not only the first");
  }

  Flag noTaintPrune() {
    return flag("no-taint-prune", NoTaintPrune,
                "solve every sink path; skip the taint pre-pass "
                "(docs/TAINT.md)");
  }

  miniphp::AnalysisOptions walkOptions() const {
    miniphp::AnalysisOptions Opts;
    Opts.StopAtFirstVulnerability = !All;
    Opts.SymExec.StopAtFirstSink = !All;
    Opts.TaintPrune = !NoTaintPrune;
    return Opts;
  }

  void begin() {
    Before = StatsRegistry::global().snapshot();
    if (!TracePath.empty())
      TraceCollector::global().start();
  }

  void end() {
    if (Ended)
      return;
    Ended = true;
    After = StatsRegistry::global().snapshot();
    if (!TracePath.empty())
      TraceCollector::global().stop();
  }

  /// Reads the inputs, does the work, writes the --stats file (with the
  /// "taint" and "symexec" sections when asked) and the --trace file,
  /// prints the answer and returns the work's exit code. After an exit
  /// code of 2, an input error the work has reported, nothing is written
  /// or printed.
  int runFile(const char *Name, bool Taint, bool SymExec,
              const std::vector<std::string> &Paths, std::istream &In,
              std::ostream &Out, std::ostream &Err,
              const std::function<int()> &Work) {
    Sources.resize(Paths.size());
    for (size_t I = 0; I != Paths.size(); ++I)
      if (!readInput(Paths[I], In, Sources[I], Err))
        return 2;
    if (NoDecisionCache)
      DecisionCache::global().setEnabled(false);

    begin();
    int Code = Work();
    end();
    if (Code == 2)
      return 2;
    Json Envelope = envelope(Name, Paths);
    bool Written = true;
    if (!TracePath.empty()) {
      Json Trace = Json::object();
      Trace["trace"] = TraceCollector::global().toJson();
      Written = writeArtifact(TracePath, Envelope, Trace, Err);
    }
    if (!StatsPath.empty()) {
      auto Section = [&](const char *Prefix) {
        return prefixSection(Before, After, Prefix);
      };
      if (Taint)
        Stats["taint"] = Section("miniphp.taint.");
      Stats["automata"] = Section("automata.");
      uint64_t Total = 0;
      for (const auto &[Counter, Value] : Stats["automata"].members())
        if (Counter != "epsilon_closure_steps")
          Total += Value.asUnsigned();
      // epsilon_closure_steps is no state visit; see
      // OpStats::totalStatesVisited (automata/OpStats.h).
      Stats["automata"]["total_states_visited"] = Total;
      Stats["decide"] = Section("decide.");
      Stats["decide"]["cache_enabled"] = DecisionCache::global().enabled();
      if (SymExec)
        Stats["symexec"] = Section("miniphp.symexec.");
      Written = writeArtifact(StatsPath, Envelope, Stats, Err) && Written;
    }
    if (!Written)
      return 2;
    Out << Answer.str();
    return Code;
  }
};

//===----------------------------------------------------------------------===//
// solve
//===----------------------------------------------------------------------===//

struct Solve : FileCommand {
  bool First = false;
  SolverOptions Opts;
  uint64_t DeadlineMs = 0;
  ResourceLimits Limits;

  std::vector<Flag> flags() {
    return fileFlags({
        flag("first", First, "report one assignment, not all of them"),
        jobsFlag(Opts.Jobs),
        flag("deadline-ms", DeadlineMs,
             "budget: milliseconds for parse, solve and render; 0 = none"),
        flag("max-memory-bytes", Limits.MaxMemoryBytes,
             "budget: bytes of automata; 0 = none"),
    });
  }

  int run(const std::vector<std::string> &Paths, std::istream &In,
          std::ostream &Out, std::ostream &Err) {
    std::unique_ptr<service::ThreadPool> Pool = setUpSolver(First, Opts);

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
      return runFile("solve", false, false, Paths, In, Out, Err, [&] {
        ConstraintParseResult Parsed = parseConstraintText(Sources[0]);
        if (ResourceGuard::exhausted())
          return Exhausted(Budget.dimension());
        if (!Parsed.Ok) {
          Err << Paths[0] << ":" << Parsed.ErrorLine
              << ": error: " << Parsed.Error << "\n";
          return 2;
        }
        // The stats and the trace cover the solve, not the parse or the
        // render: the window restarts here and ends after the solve.
        begin();
        SolveResult R = Solver(Opts).solve(Parsed.Instance);
        end();
        if (R.Interrupted)
          return Exhausted(Budget.dimension());
        int Code = R.Satisfiable ? 0 : 1;
        Json &Result = Stats["result"] = Json::object();
        Result["satisfiable"] = R.Satisfiable;
        Result["assignments"] = static_cast<uint64_t>(R.Assignments.size());
        Result["exit_code"] = Code;
        Json &Counters = Stats["solver"] = Json::object();
        for (const auto &[Name, Value] : R.Stats.counters())
          Counters[Name] = Value;
        Counters["solve_seconds"] = R.Stats.SolveSeconds;
        // Rendered in full before anything is printed, so a trip leaves
        // no partial answer on stdout.
        std::string Assignments = assignmentsText(Parsed.Instance, R);
        if (R.Satisfiable && ResourceGuard::exhausted())
          return Exhausted(Budget.dimension());
        Answer << verdictText(R) << "\n" << Assignments;
        return Code;
      });
    } catch (const std::bad_alloc &) {
      end();
      return Exhausted(BudgetDimension::Memory);
    }
  }
};

//===----------------------------------------------------------------------===//
// analyze, taint
//===----------------------------------------------------------------------===//

struct Analyze : FileCommand {
  std::string AttackId = "sqli";

  std::vector<Flag> flags() {
    return fileFlags({flag("attack", "<policy>", AttackId,
                           "the policy to check (default sqli)"),
                      all(), noTaintPrune()});
  }

  int run(const std::vector<std::string> &Paths, std::istream &In,
          std::ostream &Out, std::ostream &Err) {
    const miniphp::Policy *Policy = lookupPolicy(AttackId, Err);
    if (!Policy)
      return 2;
    return runFile("analyze", true, true, Paths, In, Out, Err, [&] {
      miniphp::AnalysisResult R =
          analyzeSource(Sources[0], Policy->Attack, walkOptions());
      if (!R.ParseOk) {
        Err << Paths[0] << ": parse error: " << R.ParseError << "\n";
        return 2;
      }
      int Code = R.vulnerable() ? 0 : (R.noSinks() ? 3 : 1);
      Json &Result = Stats["result"] = Json::object();
      Result["vulnerable"] = R.vulnerable();
      Result["no_sinks"] = R.noSinks();
      Result["exit_code"] = Code;
      Json &Analysis = Stats["analysis"] = Json::object();
      Analysis["blocks"] = static_cast<uint64_t>(R.NumBlocks);
      Analysis["sinks_found"] = static_cast<uint64_t>(R.SinksFound);
      Analysis["sinks_proven_safe"] = static_cast<uint64_t>(R.SinksProvenSafe);
      Analysis["sink_paths"] = static_cast<uint64_t>(R.SinkPaths);
      Analysis["vulnerable_paths"] = static_cast<uint64_t>(R.VulnerablePaths);
      Analysis["num_constraints"] = static_cast<uint64_t>(R.NumConstraints);
      Analysis["solve_seconds"] = R.SolveSeconds;

      Answer << "blocks: " << R.NumBlocks << ", sinks: " << R.SinksFound
             << ", sink paths: " << R.SinkPaths
             << ", vulnerable paths: " << R.VulnerablePaths << "\n";
      if (Code != 0) {
        // Distinguish "nothing to audit" from "audited and found safe":
        // corpus scripts treat these differently.
        Answer << "result: "
               << (Code == 3 ? "no sinks found" : "not vulnerable") << "\n";
        return Code;
      }
      Answer << "result: VULNERABLE at line " << R.SinkLine << " (|C|="
             << R.NumConstraints << ", solve " << R.SolveSeconds << "s)\n";
      for (const auto &[Key, Value] : R.ExploitInputs)
        Answer << "  " << Key << " = \"" << Value << "\"\n";
      printList(Answer, "slice:", R.SliceLines);
      return Code;
    });
  }
};

struct Taint : FileCommand {
  std::string AttackId = "sqli";

  std::vector<Flag> flags() {
    return fileFlags({flag("attack", "<policy>", AttackId,
                           "the policy to check (default sqli)")});
  }

  int run(const std::vector<std::string> &Paths, std::istream &In,
          std::ostream &Out, std::ostream &Err) {
    const miniphp::Policy *Policy = lookupPolicy(AttackId, Err);
    if (!Policy)
      return 2;
    return runFile("taint", true, false, Paths, In, Out, Err, [&] {
      miniphp::FrontEnd Front = miniphp::buildFrontEnd(
          Sources[0], miniphp::AnalysisOptions().LoopUnroll);
      if (!Front.Ok) {
        Err << Paths[0] << ": parse error: " << Front.Error << "\n";
        return 2;
      }
      miniphp::TaintResult Facts =
          miniphp::analyzeTaint(Front.Prog, Front.G, Policy->Attack);
      miniphp::SliceResult Slices = miniphp::computeSlices(Front.G, Facts);
      if (!Facts.Ok) {
        Err << Paths[0] << ": error: taint pass could not order the CFG\n";
        return 2;
      }
      unsigned ProvenSafe = Facts.numProvenSafe();
      int Code = Facts.Sinks.empty()
                     ? 3
                     : (ProvenSafe == Facts.Sinks.size() ? 0 : 1);
      Json &Result = Stats["result"] = Json::object();
      Result["sinks"] = static_cast<uint64_t>(Facts.Sinks.size());
      Result["proven_safe"] = static_cast<uint64_t>(ProvenSafe);
      Result["exit_code"] = Code;

      Answer << "blocks: " << Front.G.numBlocks()
             << ", sinks: " << Facts.Sinks.size()
             << ", proven safe: " << ProvenSafe << "\n";
      if (Code == 3) {
        Answer << "result: no sinks found\n";
        return Code;
      }
      for (const miniphp::SinkFact &Fact : Facts.Sinks) {
        Answer << "sink at line " << Fact.Line << " (" << Fact.Callee
               << "): " << miniphp::taintLevelName(Fact.Level) << "\n";
        if (!Fact.Sources.empty())
          printList(Answer, "  sources:", Fact.Sources);
        Answer << "  verdict: "
               << (!Fact.Reachable   ? "unreachable (proven safe)"
                   : Fact.ProvenSafe ? "proven safe"
                                     : "needs solving")
            << "\n";
        if (const miniphp::SinkSlice *Slice = Slices.sliceFor(Fact.Sink))
          printList(Answer, "  slice:", Slice->Lines);
      }
      Answer << "result: "
             << (Code == 0 ? "all sinks proven safe" : "needs solving") << "\n";
      return Code;
    });
  }
};

//===----------------------------------------------------------------------===//
// audit
//===----------------------------------------------------------------------===//

/// Audits one already-read source through the shared multi-policy pass
/// (miniphp::auditSource) and renders the per-file report object of
/// docs/TAINT.md; none on a parse failure (reported to \p Err).
std::optional<Json>
auditFileReport(const std::string &Path, const std::string &Source,
                const std::vector<const miniphp::Policy *> &Policies,
                const miniphp::AnalysisOptions &Opts, std::ostream &Err) {
  miniphp::AuditResult R = miniphp::auditSource(Source, Policies, Opts);
  if (!R.ParseOk) {
    Err << Path << ": parse error: " << R.ParseError << "\n";
    return std::nullopt;
  }
  Json FileDoc = Json::object();
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
  return FileDoc;
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
      // The hash is recorded even when the audit fails to parse, so a
      // broken file is reported once, not every sweep.
      uint64_t Hash = Next[Path] = fnv1a(Source);
      if (auto It = Seen.find(Path); It != Seen.end() && It->second == Hash)
        continue;
      ++Changed;
      std::optional<Json> FileDoc =
          auditFileReport(Path, Source, Policies, Opts, Err);
      if (FileDoc) {
        Vulnerable += FileDoc->find("vulnerable")->asBool();
      } else {
        FileDoc = Json::object();
        (*FileDoc)["file"] = Path;
        (*FileDoc)["parse_error"] = true;
      }
      Reports.push(std::move(*FileDoc));
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

struct Audit : FileCommand {
  std::vector<std::string> PolicyIds;
  std::string WatchDir;
  uint64_t WatchPollMs = 500;
  uint64_t WatchMaxSweeps = 0;

  std::vector<Flag> flags() {
    std::vector<Flag> Flags = fileFlags(
        {flag("policy", "<id>[,<id>...]", PolicyIds,
              "audit these policies only; repeated flags accumulate"),
         all(), noTaintPrune()});
    Flags.push_back(flag("watch", "<dir>", WatchDir,
                         "stream re-audits of <dir>'s *.php files instead"));
    Flags.push_back(flag("watch-poll-ms", WatchPollMs,
                         "with --watch: milliseconds between sweeps", 0,
                         MaxIntervalMs));
    Flags.push_back(flag("watch-max-sweeps", WatchMaxSweeps,
                         "with --watch: stop after N sweeps; 0 = never"));
    return Flags;
  }

  int run(const std::vector<std::string> &Paths, std::istream &In,
          std::ostream &Out, std::ostream &Err) {
    // A policy named more than once (also through an alias) is audited
    // once, in the place it was first named.
    std::vector<const miniphp::Policy *> Policies;
    for (const std::string &Id : PolicyIds) {
      const miniphp::Policy *P = lookupPolicy(Id, Err);
      if (!P)
        return 2;
      if (std::find(Policies.begin(), Policies.end(), P) == Policies.end())
        Policies.push_back(P);
    }
    if (Policies.empty())
      for (const miniphp::Policy &P :
           miniphp::PolicyRegistry::global().policies())
        Policies.push_back(&P);
    miniphp::AnalysisOptions Opts = walkOptions();
    if (!WatchDir.empty()) {
      if (!Paths.empty()) {
        Err << "error: --watch= takes no positional input files\n";
        return 2;
      }
      if (!StatsPath.empty() || !TracePath.empty()) {
        Err << "error: --stats=/--trace= are not supported with --watch=\n";
        return 2;
      }
      if (NoDecisionCache)
        DecisionCache::global().setEnabled(false);
      return runAuditWatch(WatchDir, WatchPollMs, WatchMaxSweeps, Policies,
                           Opts, Out, Err);
    }
    if (Paths.empty()) {
      Err << "error: no input files (use '-' for stdin)\n";
      return 2;
    }

    // Every file goes through the same shared single pass, and the
    // process-wide DecisionCache persists across files, so repeated
    // filter languages and attack machines are decided once per batch.
    return runFile("audit", true, true, Paths, In, Out, Err, [&] {
      Json Files = Json::array();
      uint64_t VulnerableFiles = 0;
      bool AnySinks = false;
      for (size_t I = 0; I != Paths.size(); ++I) {
        std::optional<Json> File =
            auditFileReport(Paths[I], Sources[I], Policies, Opts, Err);
        if (!File)
          return 2;
        VulnerableFiles += File->find("vulnerable")->asBool();
        AnySinks = AnySinks || File->find("any_sinks")->asBool();
        Files.push(std::move(*File));
      }
      int Code = VulnerableFiles ? 0 : (AnySinks ? 1 : 3);
      Json &Result = Stats["result"] = Json::object();
      Result["files"] = static_cast<uint64_t>(Paths.size());
      Result["vulnerable_files"] = VulnerableFiles;
      Result["exit_code"] = Code;

      Json Report = envelope("audit", Paths);
      Json &Ids = Report["policies"] = Json::array();
      for (const miniphp::Policy *P : Policies)
        Ids.push(P->Id);
      Report["files"] = std::move(Files);
      Report["summary"] = Result;
      Answer << Report.dump() << "\n";
      return Code;
    });
  }
};

//===----------------------------------------------------------------------===//
// repl, serve
//===----------------------------------------------------------------------===//

struct Repl {
  bool First = false;
  bool NoDecisionCache = false;
  SolverOptions Opts;

  std::vector<Flag> flags() {
    return {flag("first", First, "report one assignment, not all of them"),
            jobsFlag(Opts.Jobs), noDecisionCacheFlag(NoDecisionCache)};
  }

  int run(const std::vector<std::string> &, std::istream &In,
          std::ostream &Out, std::ostream &) {
    if (NoDecisionCache)
      DecisionCache::global().setEnabled(false);
    std::unique_ptr<service::ThreadPool> Pool = setUpSolver(First, Opts);

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
        Out << (Session.pop()
                    ? "popped (depth " + std::to_string(Session.depth()) + ")"
                    : "error: no frame to pop")
            << "\n";
      } else if (Cmd == "depth") {
        Out << Session.depth() << "\n";
      } else if (Cmd == "reset") {
        // Cold restart: drop the warm caches but keep the constraints.
        Session.invalidate();
        Out << "caches cleared\n";
      } else if (Cmd == "check") {
        SolveResult R = Session.check();
        const SessionCheckInfo &Info = Session.lastCheckInfo();
        Out << verdictText(R) << "  [" << (Info.Incremental ? "warm" : "cold")
            << ", groups " << Info.GroupsReused << "/" << Info.GroupsTotal
            << " reused]\n";
        Out << assignmentsText(Session.problem(), R);
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
};

struct Serve {
  service::ServiceOptions Opts;
  service::RouterOptions Fleet;
  service::ListenerOptions ListenOpts;
  uint64_t Shards = 0;
  std::string ListenSpec;
  std::string UnixPath;
  std::optional<std::string> Fault;

  std::vector<Flag> flags() {
    return {
        flag("jobs", Opts.Jobs,
             "worker threads (of each worker process, with --shards)", 1,
             MaxJobs),
        flag("deadline-ms", Opts.DefaultDeadlineMs,
             "deadline of a request that sets none; 0 = none"),
        flag("max-states", Opts.MaxNfaStates,
             "states any one machine of a request may have"),
        flag("max-states-budget", Opts.MaxStatesBudget,
             "budget: states a request may build; 0 = none"),
        flag("max-transitions-budget", Opts.MaxTransitionsBudget,
             "budget: transitions a request may build; 0 = none"),
        flag("max-memory-bytes", Opts.MaxMemoryBytes,
             "budget: bytes of automata per request; 0 = none"),
        flag("max-queue", Opts.MaxQueueDepth,
             "requests waiting past which new ones are shed; 0 = no cap"),
        flag("retry-after-ms", Opts.RetryAfterMsHint,
             "the retry_after_ms hint of an `overloaded` answer"),
        // Same spec as the DPRLE_FAULT env var; the flag wins when both
        // are given (it arms later), and `--fault=` disarms.
        {"fault", Kind::String,
         "arm fault injection, as DPRLE_FAULT does (docs/ROBUSTNESS.md)",
         "<site>:<nth>", 0, 0, 0,
         [this](const std::string &V, uint64_t) { Fault = V; }},
        flag("listen", "[host]:port", ListenSpec,
             "serve TCP; host defaults to 127.0.0.1, port 0 picks one"),
        flag("unix-socket", "<path>", UnixPath, "serve a Unix socket"),
        flag("max-inflight", ListenOpts.Conn.MaxInflight,
             "outstanding requests per connection; 0 = no cap"),
        flag("shards", Shards,
             "fork N worker processes and route to them; 0 = serve in "
             "process",
             0, MaxShards),
        flag("max-restarts", Fleet.MaxRestartsPerShard,
             "restarts per shard before its traffic is shed"),
        flag("max-sessions", Opts.MaxSessions,
             "open incremental sessions per worker"),
        flag("session-idle-ms", Opts.SessionIdleTimeoutMs,
             "idle time after which a session is closed"),
        flag("journal-dir", "<dir>", Fleet.JournalDir,
             "journal sessions there and replay them after a crash"),
        flag("journal-fsync", Opts.JournalFsync,
             "fsync every journal append"),
        flag("journal-compact-bytes", Opts.JournalCompactBytes,
             "journal size past which it is compacted"),
        flag("watchdog-ms", Fleet.WatchdogIntervalMs,
             "with --shards: sweep for hung workers this often; 0 = off", 0,
             MaxIntervalMs),
    };
  }

  int run(const std::vector<std::string> &, std::istream &In,
          std::ostream &Out, std::ostream &Err) {
    if (!ListenSpec.empty() && !UnixPath.empty()) {
      Err << "error: --listen= and --unix-socket= are mutually exclusive\n";
      return 2;
    }
    std::string Host = "127.0.0.1";
    uint64_t Port = 0;
    if (!ListenSpec.empty()) {
      size_t Colon = ListenSpec.rfind(':');
      if (Colon != std::string::npos && Colon > 0)
        Host = ListenSpec.substr(0, Colon);
      std::string PortText = Colon == std::string::npos
                                 ? ListenSpec
                                 : ListenSpec.substr(Colon + 1);
      if (!parseNumber(PortText, Port) || Port > 65535) {
        Err << "error: --listen= expects [host]:port with port in "
               "0..65535\n";
        return 2;
      }
    }
    if (Fault && !FaultInjector::global().arm(*Fault)) {
      Err << "error: --fault= expects <site>:<nth>, e.g. io.write:1 "
             "(see docs/ROBUSTNESS.md)\n";
      return 2;
    }
    if (!Fleet.JournalDir.empty()) {
      std::error_code Ec;
      std::filesystem::create_directories(Fleet.JournalDir, Ec);
      if (Ec) {
        Err << "error: cannot create --journal-dir= " << Fleet.JournalDir
            << ": " << Ec.message() << "\n";
        return 1;
      }
    }

    // The handler every transport feeds: sharded (a Router forwarding to
    // worker processes) or local (one in-process SolverService).
    std::unique_ptr<service::SolverService> Local;
    std::unique_ptr<service::Router> Routed;
    service::LineHandler *Handler = nullptr;
    if (Shards > 0) {
      Fleet.Shards = static_cast<unsigned>(Shards);
      Fleet.Worker = Opts;
      Fleet.RetryAfterMsHint = Opts.RetryAfterMsHint;
      Routed = std::make_unique<service::Router>(Fleet);
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
      if (!Fleet.JournalDir.empty())
        Opts.JournalPath = Fleet.JournalDir + "/shard-0.journal";
      Local = std::make_unique<service::SolverService>(Opts);
      Handler = Local.get();
    }

    if (ListenSpec.empty() && UnixPath.empty()) {
      // The classic stdio transport. A stdin read cannot be unblocked
      // from another thread, so the SIGTERM/SIGINT watcher finishes the
      // drain itself: answer what is in flight, flush durable state,
      // exit 0.
      service::SignalDrainGuard Drain([&] {
        Handler->drain();
        if (Routed)
          Routed->stop();
        Out.flush();
        ::_exit(0);
      });
      int Rc = service::serveStreams(*Handler, In, Out);
      if (Routed)
        Routed->stop();
      return Rc;
    }

    ListenOpts.Conn.RetryAfterMsHint = Opts.RetryAfterMsHint;
    service::Listener Front(*Handler, ListenOpts);
    std::string ListenErr;
    bool Listening =
        UnixPath.empty()
            ? Front.listenTcp(Host, static_cast<uint16_t>(Port), &ListenErr)
            : Front.listenUnix(UnixPath, &ListenErr);
    if (!Listening) {
      Err << "error: " << ListenErr << "\n";
      return 1;
    }
    // Scrapable by scripts and tests (port 0 resolves to the bound port).
    Out << "listening on "
        << (UnixPath.empty() ? Host + ":" + std::to_string(Front.boundPort())
                             : "unix:" + UnixPath)
        << "\n";
    Out.flush();
    Front.start();
    // SIGTERM/SIGINT: stop accepting, drain in-flight work (Listener::stop
    // drains the handler, which flushes journals), and let run() return 0.
    service::SignalDrainGuard Drain([&Front] { Front.stop(); });
    int Rc = Front.run();
    if (Routed)
      Routed->stop();
    return Rc;
  }
};

//===----------------------------------------------------------------------===//
// automata, corpus
//===----------------------------------------------------------------------===//

/// One `dprle automata` op: its name, its arguments (machines, and for
/// `accepts` a string after the machine) and what it prints.
struct AutomataOp {
  const char *Name;
  size_t Machines;
  bool TakesString;
  int (*Run)(const std::vector<Nfa> &M, const std::string &S,
             std::ostream &Out);
};

int printMachine(std::ostream &Out, const Nfa &M, const char *Name) {
  Out << serializeNfa(M, Name);
  return 0;
}

int printAnswer(std::ostream &Out, bool Yes, const char *IfYes,
                const char *IfNo) {
  Out << (Yes ? IfYes : IfNo) << "\n";
  return Yes ? 0 : 1;
}

const AutomataOp AutomataOps[] = {
    {"info", 1, false, [](auto &M, auto &, auto &Out) {
      Dfa D = determinize(M[0]);
      Out << "states:      " << M[0].numStates() << "\n"
          << "transitions: " << M[0].numTransitions() << "\n"
          << "epsilons:    " << M[0].numEpsilonTransitions() << "\n"
          << "accepting:   " << M[0].numAccepting() << "\n"
          << "empty:       " << (M[0].languageIsEmpty() ? "yes" : "no")
          << "\n"
          << "dfa states:  " << D.numStates() << "\n"
          << "minimal dfa: " << D.minimized().numStates() << "\n";
      return 0;
    }},
    {"minimize", 1, false, [](auto &M, auto &, auto &Out) {
      return printMachine(Out, minimized(M[0]), "minimized");
    }},
    {"complement", 1, false, [](auto &M, auto &, auto &Out) {
      return printMachine(Out, complement(M[0]), "complement");
    }},
    {"dot", 1, false, [](auto &M, auto &, auto &Out) {
      printNfaDot(Out, M[0]);
      return 0;
    }},
    {"to-regex", 1, false, [](auto &M, auto &, auto &Out) {
      Out << "/" << nfaToRegex(M[0]) << "/\n";
      return 0;
    }},
    {"shortest", 1, false, [](auto &M, auto &, auto &Out) {
      std::optional<std::string> S = shortestString(M[0]);
      Out << (S ? "\"" + *S + "\"" : "<empty language>") << "\n";
      return S ? 0 : 1;
    }},
    {"enumerate", 1, false, [](auto &M, auto &, auto &Out) {
      for (const std::string &S : enumerateStrings(M[0], 16, 20))
        Out << "\"" << S << "\"\n";
      return 0;
    }},
    {"intersect", 2, false, [](auto &M, auto &, auto &Out) {
      return printMachine(Out, intersect(M[0], M[1]).trimmed(),
                          "intersection");
    }},
    {"union", 2, false, [](auto &M, auto &, auto &Out) {
      return printMachine(Out, alternate(M[0], M[1]), "union");
    }},
    {"concat", 2, false, [](auto &M, auto &, auto &Out) {
      return printMachine(Out, concat(M[0], M[1]), "concatenation");
    }},
    {"equiv", 2, false, [](auto &M, auto &, auto &Out) {
      return printAnswer(Out, equivalentTo(M[0], M[1]), "equivalent",
                         "different");
    }},
    {"subset", 2, false, [](auto &M, auto &, auto &Out) {
      return printAnswer(Out, subsetOf(M[0], M[1]), "subset",
                         "not a subset");
    }},
    {"accepts", 1, true, [](auto &M, auto &S, auto &Out) {
      return printAnswer(Out, M[0].accepts(S), "accepted", "rejected");
    }},
};

std::string automataOpList() {
  std::vector<std::string> Names;
  for (const AutomataOp &Op : AutomataOps)
    Names.push_back(Op.Name);
  return join(Names, ", ");
}

struct Automata {
  std::vector<Flag> flags() { return {}; }

  int run(const std::vector<std::string> &Args, std::istream &In,
          std::ostream &Out, std::ostream &Err) {
    const AutomataOp *Op =
        std::find_if(std::begin(AutomataOps), std::end(AutomataOps),
                     [&](const AutomataOp &E) { return Args[0] == E.Name; });
    if (Op == std::end(AutomataOps)) {
      Err << "error: unknown automata op '" << Args[0]
          << "' (ops: " << automataOpList() << ")\n";
      return 2;
    }
    size_t Need = Op->Machines + Op->TakesString;
    if (Args.size() - 1 != Need) {
      Err << "error: '" << Op->Name << "' expects " << Need << " argument"
          << (Need == 1 ? "" : "s") << "\n";
      return 2;
    }
    std::vector<Nfa> Machines(Op->Machines);
    for (size_t I = 0; I != Op->Machines; ++I)
      if (!loadMachine(Args[I + 1], In, Machines[I], Err))
        return 2;
    return Op->Run(Machines, Op->TakesString ? Args.back() : "", Out);
  }
};

struct Corpus {
  std::vector<Flag> flags() { return {}; }

  int run(const std::vector<std::string> &Args, std::istream &,
          std::ostream &Out, std::ostream &Err) {
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
};

const Command Commands[] = {
    {"solve", "<file.rma | ->", 1, 1,
     "Solve a constraint file (docs/CONSTRAINTS.md). Exits 0 sat, 1 unsat, "
     "2 on a usage or input error or when the budget trips "
     "(`resource_exhausted: <dimension>` on stderr).",
     run<Solve>, defaultFlags<Solve>},
    {"analyze", "<file.php | ->", 1, 1,
     "Find an exploit for one policy ({policies}; alias sql for sqli) and "
     "print its path slice. Exits 0 vulnerable, 1 not, 3 no sinks.",
     run<Analyze>, defaultFlags<Analyze>},
    {"taint", "<file.php | ->", 1, 1,
     "Per-sink taint verdicts and slices for one policy, no solving. Exits "
     "0 every sink proven safe, 1 some sink needs solving, 3 no sinks.",
     run<Taint>, defaultFlags<Taint>},
    {"audit", "<file.php... | ->", 0, SIZE_MAX,
     "Audit every policy ({policies}) in one shared pass; JSON report on "
     "stdout (docs/TAINT.md). Several files share the decision cache. With "
     "--watch, poll a directory instead and re-audit only files whose "
     "content changed, one NDJSON line per sweep (docs/SESSIONS.md).",
     run<Audit>, defaultFlags<Audit>},
    {"repl", "", 0, 0,
     "Incremental solving session on stdin (docs/SESSIONS.md): constraint "
     "statements assert; push/pop manage frames; check re-solves with warm "
     "restarts; depth, reset, quit.",
     run<Repl>, defaultFlags<Repl>},
    {"automata", "<op> <machine...>", 1, SIZE_MAX,
     "The automata calculator. Machines are /regex/ (extended dialect) or "
     "serialized .nfa files. ops: {ops}.",
     run<Automata>, defaultFlags<Automata>},
    {"corpus", "<output-directory>", 1, 1,
     "Write the synthetic Figure 11 corpus to a directory.", run<Corpus>,
     defaultFlags<Corpus>},
    {"serve", "", 0, 0,
     "NDJSON solving service on stdin, or on a socket with --listen or "
     "--unix-socket; --shards forwards to worker processes. SIGTERM and "
     "SIGINT drain gracefully. Wire format: docs/PROTOCOL.md; operating it: "
     "docs/DEPLOYMENT.md; budgets, backpressure and faults: "
     "docs/ROBUSTNESS.md.",
     run<Serve>, defaultFlags<Serve>},
};

/// \p Head followed by \p Text's words, wrapped before column 80 onto
/// lines indented by \p Indent.
std::string wrap(std::string Head, const std::string &Text, size_t Indent) {
  size_t LineStart = 0;
  bool Fresh = true;
  std::istringstream Words(Text);
  for (std::string Word; Words >> Word; Fresh = false) {
    if (!Fresh && Head.size() - LineStart + 1 + Word.size() >= 80) {
      Head += "\n";
      LineStart = Head.size();
      Head += std::string(Indent, ' ');
      Fresh = true;
    }
    Head += Fresh ? Word : " " + Word;
  }
  return Head + "\n";
}

/// `dprle help`: every command's usage line, summary and flags, from the
/// tables above.
void printUsage(std::ostream &Out) {
  Out << "usage: dprle <command> [flags] [inputs]\n"
         "A switch is --name, any other flag --name=value; N is a decimal "
         "integer.\n";
  for (const Command &C : Commands) {
    std::string Summary = C.Summary;
    std::string Policies = miniphp::PolicyRegistry::global().idList();
    for (auto [Key, Value] : {std::pair<std::string, std::string>{
                                  "{policies}", Policies},
                              {"{ops}", automataOpList()}})
      if (size_t At = Summary.find(Key); At != std::string::npos)
        Summary.replace(At, Key.size(), Value);
    Out << "\n" << usageLine(C) << "\n" << wrap("    ", Summary, 4);
    for (const Flag &F : C.DefaultFlags()) {
      std::string Head = std::string("  --") + F.Name +
                         (F.Meta ? std::string("=") + F.Meta : "") + " ";
      Head.resize(std::max<size_t>(Head.size(), 30), ' ');
      std::string Help = F.Help;
      if (F.K == Kind::Unsigned)
        Help += " (" + (rangeText(F).empty() ? "" : rangeText(F) + ", ") +
                "default " + std::to_string(F.Default) + ")";
      Out << wrap(Head, Help, 30);
    }
  }
}

} // namespace

int dprle::tools::runMain(const std::vector<std::string> &Args,
                          std::istream &In, std::ostream &Out,
                          std::ostream &Err) {
  if (!Args.empty() && (Args[0] == "--help" || Args[0] == "help")) {
    printUsage(Out);
    return 0;
  }
  for (const Command &C : Commands)
    if (!Args.empty() && Args[0] == C.Name)
      return C.Run(C, {Args.begin() + 1, Args.end()}, In, Out, Err);
  if (!Args.empty())
    Err << "error: unknown command '" << Args[0] << "'\n";
  printUsage(Err);
  return 2;
}
