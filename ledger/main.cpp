//===- main.cpp - The latency ledger benchmark program --------------------===//
//
//   ledger_bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//
// Sets the workload up several times (setup_s is the median), runs it for
// --seconds with tracing off, checks every answer, and prints a report
// whose last line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones, named and united as ledger/workloads.json
// lists them. A full report goes to .bench_build/ledger-reports/.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "support/FaultInjector.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <signal.h>
#include <unistd.h>

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif
#ifndef LEDGER_CXX_FLAGS
#define LEDGER_CXX_FLAGS ""
#endif

using namespace dprle;
using namespace ledger;

namespace {

/// The workload configuration: limits, loads, metric names and units.
constexpr const char *ConfigPath = "ledger/workloads.json";
/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupRepeats = 3;
/// An open-loop run whose generator sent later than this at p99 measured
/// its own generator, not the server, and is refused.
constexpr double LateP99BoundMs = 50.0;

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false, Smoke = false;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "ledger_bench: %s\nusage: ledger_bench --workload W --seed N "
               "--seconds S --trace 0|1 [--smoke]\n",
               Msg);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string F = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + F).c_str());
      return Argv[++I];
    };
    if (F == "--workload")
      A.Workload = Value();
    else if (F == "--seed") {
      A.Seed = std::stoull(Value());
      HaveSeed = true;
    } else if (F == "--seconds")
      A.Seconds = std::stod(Value());
    else if (F == "--trace")
      A.Trace = Value() != "0";
    else if (F == "--smoke")
      A.Smoke = true;
    else
      usage(("unknown flag " + F).c_str());
  }
  if (A.Workload.empty() || !HaveSeed || A.Seconds <= 0)
    usage("--workload, --seed and --seconds are required");
  return A;
}

/// Build and machine facts every report carries; a run is comparable
/// with another only when these allow it.
struct Environment {
  unsigned Nproc = 1;
  std::string BuildType = LEDGER_BUILD_TYPE;
  std::string Compiler = __VERSION__;
  std::string Sanitizer;

  Environment() {
    long N = ::sysconf(_SC_NPROCESSORS_ONLN);
    Nproc = N > 0 ? unsigned(N) : 1;
#if defined(__SANITIZE_ADDRESS__)
    Sanitizer += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
    Sanitizer += "thread ";
#endif
    if (std::string(LEDGER_CXX_FLAGS).find("-fsanitize") != std::string::npos)
      Sanitizer += "flags ";
  }

  Json toJson() const {
    Json J = Json::object();
    J["nproc"] = Nproc;
    J["build_type"] = BuildType;
    J["compiler"] = Compiler;
    J["sanitizer"] = Sanitizer.empty() ? std::string("none") : Sanitizer;
    return J;
  }
};

/// Aggregate CPU time of the machine from /proc/stat: (steal, total)
/// jiffies. Steal is time the hypervisor ran something else on our CPUs;
/// it is the main source of run-to-run noise on shared machines.
std::pair<double, double> cpuTimes() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  double V[8] = {0, 0, 0, 0, 0, 0, 0, 0}, Total = 0;
  In >> Cpu;
  for (double &X : V) {
    In >> X;
    Total += X;
  }
  return {V[7], Total};
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const WorkloadContext &Ctx) {
  if (Name == "serve_mix")
    return makeServeMix(Ctx);
  if (Name == "ci_heavy")
    return makeCiHeavy(Ctx);
  if (Name == "session_edit")
    return makeSessionEdit(Ctx);
  if (Name == "audit_sweep")
    return makeAuditSweep(Ctx);
  return nullptr;
}

/// A metric's unit from the config's metric list.
std::vector<std::pair<std::string, std::string>> metricList(const Json &Config,
                                                            const char *Key) {
  std::vector<std::pair<std::string, std::string>> Out;
  if (const Json *L = Config.find(Key))
    for (const Json &M : L->elements())
      Out.push_back({M.find("name")->asString(), M.find("unit")->asString()});
  return Out;
}

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  ::signal(SIGPIPE, SIG_IGN);
  Args A = parseArgs(Argc, Argv);

  std::ifstream ConfigIn(ConfigPath);
  std::stringstream ConfigText;
  ConfigText << ConfigIn.rdbuf();
  std::string ConfigErr;
  std::optional<Json> Config = Json::parse(ConfigText.str(), &ConfigErr);
  if (!Config) {
    std::fprintf(stderr, "ledger_bench: cannot read %s: %s\n", ConfigPath,
                 ConfigErr.c_str());
    return 2;
  }
  const Json *WorkloadsCfg = Config->find("workloads");
  const Json *WCfg = WorkloadsCfg ? WorkloadsCfg->find(A.Workload) : nullptr;
  if (!WCfg)
    usage(("unknown workload " + A.Workload).c_str());

  Environment Env;
  const std::pair<double, double> CpuBefore = cpuTimes();
  std::vector<std::string> NotComparable;
  if (!Env.Sanitizer.empty())
    NotComparable.push_back("sanitizer build (" + Env.Sanitizer + ")");
  if (Env.BuildType != "Release" && Env.BuildType != "RelWithDebInfo")
    NotComparable.push_back("unoptimized build type " + Env.BuildType);

  // The fault the self-check arms reaches the servers through the
  // environment; in this process it is armed only around the timed run.
  const char *FaultEnv = std::getenv("DPRLE_FAULT");
  std::string Fault = FaultEnv ? FaultEnv : "";
  FaultInjector::global().disarm();

  WorkloadContext Ctx;
  Ctx.Seed = A.Seed;
  Ctx.Seconds = A.Seconds;
  Ctx.Smoke = A.Smoke;
  Ctx.Config = *WCfg;
  Ctx.Nproc = Env.Nproc;
  Ctx.WorkDir = ".bench_build/ledger-run-" + std::to_string(::getpid());
  std::filesystem::create_directories(Ctx.WorkDir);
  struct RemoveDir {
    std::string Dir;
    ~RemoveDir() {
      std::error_code Ec;
      std::filesystem::remove_all(Dir, Ec);
    }
  } Cleanup{Ctx.WorkDir};

  // Set-up, several times; the last one is kept.
  unsigned Repeats = A.Smoke ? 1 : SetupRepeats;
  std::vector<double> SetupSeconds;
  std::unique_ptr<Workload> W;
  for (unsigned I = 0; I != Repeats; ++I) {
    if (W)
      W->tearDown();
    W = makeWorkload(A.Workload, Ctx);
    std::string Err;
    double T0 = nowSeconds();
    if (!W->setUp(&Err)) {
      std::fprintf(stderr, "ledger_bench: %s set-up failed: %s\n",
                   A.Workload.c_str(), Err.c_str());
      return 1;
    }
    SetupSeconds.push_back(nowSeconds() - T0);
  }
  if (const Json *Clients = WCfg->find("clients"))
    if (!Clients->isNumber() || unsigned(Clients->asDouble()) != W->clients()) {
      std::fprintf(stderr, "ledger_bench: %s drives %u clients, %s says %s\n",
                   A.Workload.c_str(), W->clients(), ConfigPath,
                   Clients->dump(0).c_str());
      return 2;
    }
  if (W->threads() > Env.Nproc)
    NotComparable.push_back("workload runs " + std::to_string(W->threads()) +
                            " threads on " + std::to_string(Env.Nproc) +
                            " processors");
  if (!NotComparable.empty()) {
    for (const std::string &Why : NotComparable)
      std::fprintf(stderr, "ledger_bench: refusing a run that is not "
                           "comparable: %s\n", Why.c_str());
    return 3;
  }

  if (!Fault.empty())
    FaultInjector::global().arm(Fault);
  TimedRun Run = W->run();
  FaultInjector::global().disarm();
  double PeakRss = W->peakRssMb();

  // End-to-end metrics, over every op of the run.
  FailureTally Tally;
  const double LimitMs = configNumber(*WCfg, "latency_limit_ms");
  const double Window = std::max(Run.WindowSec, 1e-9);
  std::vector<double> Latencies;
  double Good = 0.0;
  for (const OpRecord &Op : Run.Ops) {
    Tally.add(Op);
    if (Op.Failure != "no_reply")
      Latencies.push_back(Op.LatencyMs);
    if (Op.Ok && Op.LatencyMs <= LimitMs)
      Good += 1.0;
  }
  std::map<std::string, double> E2E = {
      {"latency_p50_ms", median(Latencies)},
      {"latency_p90_ms", quantile(Latencies, 0.9)},
      {"latency_p99_ms", quantile(Latencies, 0.99)},
      {"throughput_ops_s", double(Latencies.size()) / Window},
      {"goodput_ops_s", Good / Window},
      {"error_rate", Tally.errorRate()},
      {"setup_s", median(SetupSeconds)},
      {"peak_rss_mb", PeakRss},
  };

  LayerReport Layers;
  std::vector<std::pair<std::string, double>> Breakdown;
  if (A.Trace) {
    W->layers(Run, Layers);
    double Sum = 0.0;
    for (const auto &Row : Layers.Breakdown)
      Sum += Row.second;
    Breakdown = Layers.Breakdown;
    Breakdown.push_back({"unattributed", E2E["latency_p50_ms"] - Sum});
    Layers.Metrics["breakdown.unattributed_share"] =
        ratio(Breakdown.back().second, E2E["latency_p50_ms"]);
    Layers.Metrics["trace.overhead_ratio"] =
        ratio(Layers.TracedMs, Layers.UntracedMs) - 1.0;
    Layers.Metrics["error_rate"] = Tally.errorRate();
    Layers.Metrics["latency_p90_ms"] = E2E["latency_p90_ms"];
    Layers.Metrics["latency_p99_ms"] = E2E["latency_p99_ms"];
  }
  W->tearDown();
  const std::pair<double, double> CpuAfter = cpuTimes();
  double StealPct = 100.0 * ratio(CpuAfter.first - CpuBefore.first,
                                  CpuAfter.second - CpuBefore.second);

  // Validity: an open loop whose generator fell behind measured itself.
  bool Valid = !Run.OpenLoop || Run.LateP99Ms <= LateP99BoundMs;

  // The human-readable report.
  std::printf("ledger %s seed=%llu seconds=%g trace=%d%s\n", A.Workload.c_str(),
              (unsigned long long)A.Seed, A.Seconds, int(A.Trace),
              A.Seed == uint64_t(configNumber(*Config, "heldout_seed"))
                  ? " (held-out seed)"
                  : "");
  std::printf("env: nproc=%u build=%s compiler=\"%s\" sanitizer=%s "
              "cpu_steal=%.1f%%\n",
              Env.Nproc, Env.BuildType.c_str(), Env.Compiler.c_str(),
              Env.Sanitizer.empty() ? "none" : Env.Sanitizer.c_str(), StealPct);
  std::printf("ops: attempted=%llu succeeded=%llu failed=%llu",
              (unsigned long long)Tally.Attempted,
              (unsigned long long)Tally.Succeeded,
              (unsigned long long)Tally.Failed);
  for (const auto &[Code, N] : Tally.ByCode)
    std::printf(" %s=%llu", Code.c_str(), (unsigned long long)N);
  std::printf("\nlatency samples=%zu window=%.3fs "
              "limit=%gms%s\n",
              Latencies.size(), Window, LimitMs,
              Run.OpenLoop ? (" late_p99=" + fmt(Run.LateP99Ms) + "ms").c_str()
                           : "");
  std::map<std::string, std::vector<double>> ByVerb;
  for (const OpRecord &Op : Run.Ops)
    if (Op.Failure != "no_reply")
      ByVerb[Op.Verb].push_back(Op.LatencyMs);
  for (const auto &[Verb, L] : ByVerb)
    std::printf("  %-8s n=%zu p10=%.3f p50=%.3f p90=%.3f p99=%.3f ms\n",
                Verb.c_str(), L.size(), quantile(L, 0.1), median(L),
                quantile(L, 0.9), quantile(L, 0.99));
  for (const auto &[Name, Unit] : metricList(*Config, "end_to_end"))
    std::printf("  %-34s %14s %s\n", Name.c_str(), fmt(E2E[Name]).c_str(),
                Unit.c_str());
  std::printf("  %-34s %14s %s\n", "error_rate", fmt(E2E["error_rate"]).c_str(),
              "ratio");
  for (const char *Tail : {"latency_p90_ms", "latency_p99_ms"})
    std::printf("  %-34s %14s %s\n", Tail, fmt(E2E[Tail]).c_str(), "ms");
  if (A.Trace) {
    std::printf("per-layer:\n");
    for (const auto &[Name, Unit] : metricList(*Config, "per_layer"))
      std::printf("  %-34s %14s %s\n", Name.c_str(),
                  fmt(Layers.Metrics[Name]).c_str(), Unit.c_str());
    std::printf("breakdown of latency_p50_ms=%s:\n",
                fmt(E2E["latency_p50_ms"]).c_str());
    for (const auto &[Name, Ms] : Breakdown)
      std::printf("  %-34s %10.4f ms %6.1f%%\n", Name.c_str(), Ms,
                  100.0 * ratio(Ms, E2E["latency_p50_ms"]));
    std::printf("tracing overhead: %.4f ms traced vs %.4f ms untraced\n",
                Layers.TracedMs, Layers.UntracedMs);
  }

  // The full report file.
  Json Report = Json::object();
  Report["workload"] = A.Workload;
  Report["seed"] = A.Seed;
  Report["seconds"] = A.Seconds;
  Report["trace"] = A.Trace;
  Report["environment"] = Env.toJson();
  Report["environment"]["cpu_steal_pct"] = StealPct;
  Report["valid"] = Valid;
  Report["config"] = *WCfg;
  Report["notes"] = Run.Notes;
  Json Fail = Json::object();
  Fail["attempted"] = Tally.Attempted;
  Fail["succeeded"] = Tally.Succeeded;
  Fail["failed"] = Tally.Failed;
  Json ByCode = Json::object();
  for (const auto &[Code, N] : Tally.ByCode)
    ByCode[Code] = N;
  Fail["by_code"] = std::move(ByCode);
  Report["failures"] = std::move(Fail);
  Json E2EJ = Json::object();
  for (const auto &[Name, V] : E2E)
    E2EJ[Name] = V;
  Report["end_to_end"] = std::move(E2EJ);
  Json SetupJ = Json::array();
  for (double S : SetupSeconds)
    SetupJ.push(S);
  Report["setup_runs_s"] = std::move(SetupJ);
  if (A.Trace) {
    Json LJ = Json::object();
    for (const auto &[Name, V] : Layers.Metrics)
      LJ[Name] = V;
    Report["per_layer"] = std::move(LJ);
    Json BJ = Json::array();
    for (const auto &[Name, Ms] : Breakdown) {
      Json Row = Json::object();
      Row["layer"] = Name;
      Row["ms"] = Ms;
      Row["share"] = ratio(Ms, E2E["latency_p50_ms"]);
      BJ.push(std::move(Row));
    }
    Report["breakdown"] = std::move(BJ);
  }
  std::filesystem::create_directories(".bench_build/ledger-reports");
  std::ofstream(".bench_build/ledger-reports/" + A.Workload + "-seed" +
                std::to_string(A.Seed) + "-trace" + std::to_string(A.Trace) +
                ".json")
      << Report.dump(2) << "\n";

  if (!Valid) {
    std::fprintf(stderr,
                 "ledger_bench: invalid open-loop run: generator late p99 "
                 "%.3f ms exceeds the %.3f ms bound; not reported\n",
                 Run.LateP99Ms, LateP99BoundMs);
    return 4;
  }

  // The result line.
  Json Metrics = Json::object();
  const auto &Source = A.Trace ? Layers.Metrics : E2E;
  for (const auto &[Name, Unit] :
       metricList(*Config, A.Trace ? "per_layer" : "end_to_end")) {
    auto It = Source.find(Name);
    Json M = Json::object();
    M["value"] = It == Source.end() ? 0.0 : It->second;
    M["unit"] = Unit;
    Metrics[Name] = std::move(M);
  }
  Json Result = Json::object();
  Result["correct"] = Tally.Failed == 0 && Tally.Attempted > 0;
  Result["attempted"] = Tally.Attempted;
  Result["failed"] = Tally.Failed;
  Result["metrics"] = std::move(Metrics);
  std::printf("%s\n", Result.dump(0).c_str());
  std::fflush(stdout);
  return 0;
}
