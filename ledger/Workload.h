//===- Workload.h - The four ledger workloads -------------------*- C++ -*-==//
///
/// \file
/// A workload owns its generated inputs, the server it drives and the
/// references its answers are checked against. main.cpp times setUp()
/// (repeated, median reported as setup_s), runs the timed run with
/// tracing off, and for --trace 1 asks layers() for the per-layer
/// measurements: calls into each layer's public entry points made from
/// outside, one input at a time.
///
//===----------------------------------------------------------------------===//

#ifndef LEDGER_WORKLOAD_H
#define LEDGER_WORKLOAD_H

#include "Common.h"

#include "support/Json.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ledger {

struct WorkloadContext {
  uint64_t Seed = 0;
  /// Length of the timed run.
  double Seconds = 10.0;
  /// Shortened set-up and replay (self-checks).
  bool Smoke = false;
  /// Scratch directory inside the checkout (sockets, journals).
  std::string WorkDir;
  /// This workload's section of ledger/workloads.json.
  dprle::Json Config;
  unsigned Nproc = 1;
};

/// Outcome of one timed run, every op already checked for correctness.
struct TimedRun {
  std::vector<OpRecord> Ops;
  /// Seconds from the first op's start to the last op's end (at least
  /// the configured run length for the open loop).
  double WindowSec = 0.0;
  bool OpenLoop = false;
  /// Open loop: how late the generator sent, against its schedule.
  double LateP99Ms = 0.0;
  /// Server counter deltas over the run (stats verb), when a server ran.
  dprle::Json CounterDelta = dprle::Json::object();
  /// Workload facts for the report (input counts, exclusions).
  dprle::Json Notes = dprle::Json::object();
};

/// What the traced run found.
struct LayerReport {
  /// Per-layer metrics by their BENCHMARK.json names.
  std::map<std::string, double> Metrics;
  /// The blocking path of one op, in ms, in order; main.cpp adds the
  /// unattributed remainder against the end-to-end median.
  std::vector<std::pair<std::string, double>> Breakdown;
  /// The same in-process replay without and with the trace collector
  /// armed (tracing overhead).
  double UntracedMs = 0.0, TracedMs = 0.0;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Generates inputs and references, starts servers, warms up.
  virtual bool setUp(std::string *Err) = 0;
  /// Measures for WorkloadContext::Seconds.
  virtual TimedRun run() = 0;
  /// Peak RSS of the server side, MiB.
  virtual double peakRssMb() const = 0;
  /// The traced, one-at-a-time replay of the workload's inputs.
  virtual void layers(const TimedRun &Loaded, LayerReport &Out) = 0;
  /// Solver worker threads the workload's server runs, checked against
  /// nproc (more workers than processors measure the scheduler).
  virtual unsigned threads() const = 0;
  /// Client connections (callers) the workload drives the server with.
  virtual unsigned clients() const = 0;
  /// Stops servers; the destructor also does.
  virtual void tearDown() = 0;
};

std::unique_ptr<Workload> makeServeMix(const WorkloadContext &Ctx);
std::unique_ptr<Workload> makeCiHeavy(const WorkloadContext &Ctx);
std::unique_ptr<Workload> makeSessionEdit(const WorkloadContext &Ctx);
std::unique_ptr<Workload> makeAuditSweep(const WorkloadContext &Ctx);

//===----------------------------------------------------------------------===//
// Shared measurement helpers (Layers.cpp)
//===----------------------------------------------------------------------===//

/// Wall time of \p Fn in microseconds.
double timeUs(const std::function<void()> &Fn);

/// A number of ledger/workloads.json; exits with a message when absent.
double configNumber(const dprle::Json &Config, const char *Key);

/// Counter-wise After - Before of two `stats` counter objects.
dprle::Json counterDelta(const dprle::Json &Before, const dprle::Json &After);

/// Ratio helper: 0 when the base is 0.
inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// The cache and reuse ratios of a counter delta (stats counters or a
/// StatsRegistry delta): decide cache hits and evictions, CSR view
/// reuse, minimize hits, session group reuse.
void counterLayers(const dprle::Json &Delta, LayerReport &Out);

/// Solver-layer measurements over \p Texts (constraint systems with their
/// max_solutions): parse, graph build, the jobs=1 solve split by the
/// reduce/gci_group/assemble spans, the jobs=1 / jobs=\p Jobs speedup,
/// CSR views over the systems' machines, and the automata spans. Stops
/// after \p BudgetSec. Fills the solver.* and automata.* metrics.
void measureSolverLayers(
    const std::vector<std::pair<std::string, unsigned>> &Texts, unsigned Jobs,
    double BudgetSec, LayerReport &Out);

/// Unloaded round trip of each line (µs), one at a time; the responses
/// go to \p Responses when given.
std::vector<double> roundTripsUs(const std::string &SocketPath,
                                 const std::vector<std::string> &Lines,
                                 std::vector<std::string> *Responses = nullptr);

/// In-process SolverService::handleLine of each line (µs), with a service of \p Jobs workers; runs
/// every line twice and times the second (warm) pass.
std::vector<double> handleUs(const std::vector<std::string> &Lines,
                             unsigned Jobs);

/// Wire costs: parseRequest of each request line, and Json::parse +
/// Json::dump of each response line (µs, medians).
void measureWire(const std::vector<std::string> &Requests,
                 const std::vector<std::string> &Responses, LayerReport &Out);

/// Replays \p Fn three times untraced and three times with the trace
/// collector armed, alternating; the medians go to
/// UntracedMs / TracedMs.
void measureTraceOverhead(const std::function<void()> &Fn, LayerReport &Out);

} // namespace ledger

#endif // LEDGER_WORKLOAD_H
