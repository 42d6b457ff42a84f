//===- ServiceTest.cpp - Solving-service tests --------------------------------//
//
// Covers the three layers of src/service/ (docs/SERVICE.md):
//   * ThreadPool — index coverage, nesting, submit/waitIdle;
//   * Protocol — request parsing and the structured error codes;
//   * SolverService — solve/decide semantics, determinism at any job
//     count, deadlines/cancellation, malformed-request robustness, and
//     the NDJSON serve loop.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "automata/Serialize.h"
#include "miniphp/Cfg.h"
#include "miniphp/Corpus.h"
#include "miniphp/Parser.h"
#include "miniphp/SymExec.h"
#include "miniphp/Unroll.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"
#include "service/Connection.h"
#include "service/FdIo.h"
#include "service/Listener.h"
#include "service/Protocol.h"
#include "service/Router.h"
#include "service/ThreadPool.h"
#include "support/Budget.h"
#include "support/FaultInjector.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

// fork()-based router tests are incompatible with ThreadSanitizer (TSan
// does not follow forks of multithreaded processes); they skip there.
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
using namespace dprle::service;

namespace {

Nfa machineFor(const std::string &Pattern) {
  RegexParseResult R = parseRegexExtended(Pattern);
  EXPECT_TRUE(R.ok()) << Pattern;
  return compileRegex(*R.Ast);
}

/// Builds a solve request line.
std::string solveLine(const Json &Id, const std::string &Constraints) {
  Json Req = Json::object();
  Req["id"] = Id;
  Req["method"] = "solve";
  Json Params = Json::object();
  Params["constraints"] = Constraints;
  Req["params"] = std::move(Params);
  return Req.dump(0);
}

const Json *resultOf(const Json &Resp) {
  const Json *Ok = Resp.find("ok");
  EXPECT_TRUE(Ok && Ok->isBool() && Ok->asBool()) << Resp.dump(0);
  return Resp.find("result");
}

std::string errorCodeOf(const Json &Resp) {
  const Json *Ok = Resp.find("ok");
  EXPECT_TRUE(Ok && Ok->isBool() && !Ok->asBool()) << Resp.dump(0);
  const Json *Error = Resp.find("error");
  EXPECT_NE(Error, nullptr);
  const Json *Code = Error ? Error->find("code") : nullptr;
  return Code ? Code->asString() : "<missing>";
}

/// A multi-group, multi-solution instance: exercises both the parallel
/// CI-group stage and the parallel combination enumeration.
const char *DisjunctiveInstance =
    "var v1; var v2; v1 . v2 <= /xyyz|xyz/;"
    "var u; var w; u . w <= /ab|ba/;";

/// An instance whose full enumeration takes seconds (1771 assignments):
/// the cancellation target.
std::string slowInstance() {
  std::string Out = "var a; var b; var c; var d;\na . b . c . d <= /";
  for (int I = 0; I != 20; ++I)
    Out += "(x|y)";
  return Out + "/;";
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  constexpr size_t N = 1000;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(N, [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  ThreadPool Pool(2);
  std::atomic<int> Total{0};
  // Outer width exceeds the worker count, so inner calls necessarily run
  // on busy workers: only caller participation avoids deadlock here.
  Pool.parallelFor(8, [&](size_t) {
    Pool.parallelFor(8, [&](size_t) { Total.fetch_add(1); });
  });
  EXPECT_EQ(Total.load(), 64);
}

TEST(ThreadPoolTest, SubmitRunsJobsAndWaitIdleBarriers) {
  ThreadPool Pool(3);
  std::atomic<int> Ran{0};
  for (int I = 0; I != 20; ++I)
    Pool.submit([&] { Ran.fetch_add(1); });
  Pool.waitIdle();
  EXPECT_EQ(Ran.load(), 20);
}

TEST(ThreadPoolTest, MarksParallelRegions) {
  ThreadPool Pool(2);
  EXPECT_FALSE(parallelRegionActive());
  std::atomic<bool> SeenActive{false};
  Pool.parallelFor(4, [&](size_t) {
    if (parallelRegionActive())
      SeenActive.store(true);
  });
  EXPECT_TRUE(SeenActive.load());
  Pool.waitIdle();
  EXPECT_FALSE(parallelRegionActive());
}

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(ProtocolTest, ParsesWellFormedRequest) {
  RequestParse P = parseRequest(
      "{\"id\": 7, \"method\": \"ping\", \"params\": {\"x\": 1}}");
  ASSERT_TRUE(P.ok());
  EXPECT_EQ(P.Req->Method, "ping");
  EXPECT_EQ(P.Req->Id.asUnsigned(), 7u);
  EXPECT_TRUE(P.Req->Params.isObject());
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_EQ(parseRequest("not json").Code, ErrorCode::ParseError);
  EXPECT_EQ(parseRequest("[1, 2]").Code, ErrorCode::InvalidRequest);
  EXPECT_EQ(parseRequest("{\"id\": 1}").Code, ErrorCode::InvalidRequest);
  EXPECT_EQ(parseRequest("{\"method\": \"ping\"}").Code,
            ErrorCode::InvalidRequest);
  EXPECT_EQ(parseRequest("{\"id\": true, \"method\": \"ping\"}").Code,
            ErrorCode::InvalidRequest);
  EXPECT_EQ(
      parseRequest("{\"id\": 1, \"method\": \"ping\", \"params\": 3}").Code,
      ErrorCode::InvalidParams);
}

TEST(ProtocolTest, RecoversIdFromMalformedRequest) {
  RequestParse P = parseRequest("{\"id\": \"r1\", \"params\": {}}");
  EXPECT_FALSE(P.ok());
  EXPECT_EQ(P.Id.asString(), "r1");
}

//===----------------------------------------------------------------------===//
// SolverService: request semantics
//===----------------------------------------------------------------------===//

TEST(ServiceTest, PingAndUnknownMethod) {
  SolverService Service(ServiceOptions{});
  Json Pong = Service.handleLine("{\"id\": 1, \"method\": \"ping\"}");
  const Json *Result = resultOf(Pong);
  ASSERT_NE(Result, nullptr);
  EXPECT_TRUE(Result->find("pong")->asBool());

  Json Unknown = Service.handleLine("{\"id\": 2, \"method\": \"frobnicate\"}");
  EXPECT_EQ(errorCodeOf(Unknown), "unknown_method");
}

TEST(ServiceTest, SolveAnswersWithAssignmentAndStats) {
  SolverService Service(ServiceOptions{});
  Json Resp = Service.handleLine(solveLine(
      1, "var v1; v1 <= /ab*/; \"x\" . v1 <= /xab*/;"));
  const Json *Result = resultOf(Resp);
  ASSERT_NE(Result, nullptr);
  EXPECT_TRUE(Result->find("satisfiable")->asBool());
  ASSERT_EQ(Result->find("assignments")->size(), 1u);
  const Json &V1 = *Result->find("assignments")->at(0).find("v1");
  Nfa Lang = machineFor(V1.find("regex")->asString());
  EXPECT_TRUE(Lang.accepts(V1.find("witness")->asString()));
  // Per-request stats ride along.
  EXPECT_NE(Result->find("solver"), nullptr);
  ASSERT_NE(Result->find("decide"), nullptr);
  EXPECT_NE(Result->find("decide")->find("subset_queries"), nullptr);
}

TEST(ServiceTest, SolveReportsUnsat) {
  SolverService Service(ServiceOptions{});
  Json Resp = Service.handleLine(solveLine(1, "var v; v <= /a/; v <= /b/;"));
  const Json *Result = resultOf(Resp);
  ASSERT_NE(Result, nullptr);
  EXPECT_FALSE(Result->find("satisfiable")->asBool());
  EXPECT_EQ(Result->find("assignments")->size(), 0u);
}

TEST(ServiceTest, MalformedSolveRequestsGetStructuredErrors) {
  SolverService Service(ServiceOptions{});
  EXPECT_EQ(errorCodeOf(Service.handleLine("{bad")), "parse_error");
  EXPECT_EQ(errorCodeOf(Service.handleLine(
                "{\"id\": 1, \"method\": \"solve\"}")),
            "invalid_params");
  EXPECT_EQ(errorCodeOf(Service.handleLine(
                "{\"id\": 1, \"method\": \"solve\", \"params\": "
                "{\"constraints\": 9}}")),
            "invalid_params");
  // Syntactically broken constraint text.
  EXPECT_EQ(errorCodeOf(Service.handleLine(solveLine(1, "var ; <= xx"))),
            "invalid_params");
  // Ill-typed optional params.
  EXPECT_EQ(errorCodeOf(Service.handleLine(
                "{\"id\": 1, \"method\": \"solve\", \"params\": "
                "{\"constraints\": \"var v;\", \"deadline_ms\": \"soon\"}}")),
            "invalid_params");
}

//===----------------------------------------------------------------------===//
// SolverService: determinism across job counts
//===----------------------------------------------------------------------===//

/// Renders the verdict-relevant part of a solve response (assignments in
/// order, regex + witness per variable) for equality comparison.
std::string verdictKey(const Json &Resp) {
  const Json *Result = Resp.find("result");
  if (!Result)
    return "error:" + Resp.dump(0);
  Json Key = Json::object();
  Key["satisfiable"] = *Result->find("satisfiable");
  Key["assignments"] = *Result->find("assignments");
  return Key.dump(0);
}

TEST(ServiceTest, SolveIsDeterministicAtAnyJobCount) {
  ServiceOptions Serial;
  Serial.Jobs = 1;
  SolverService Reference(Serial);
  Json Expected = Reference.handleLine(solveLine(1, DisjunctiveInstance));

  for (unsigned Jobs : {2u, 4u}) {
    ServiceOptions Opts;
    Opts.Jobs = Jobs;
    SolverService Service(Opts);
    Json Got = Service.handleLine(solveLine(1, DisjunctiveInstance));
    EXPECT_EQ(verdictKey(Got), verdictKey(Expected)) << "jobs=" << Jobs;
  }
}

//===----------------------------------------------------------------------===//
// SolverService: deadlines and cancellation
//===----------------------------------------------------------------------===//

TEST(ServiceTest, ZeroDeadlineReportsTimeoutDeterministically) {
  SolverService Service(ServiceOptions{});
  Json Resp = Service.handleLine(
      "{\"id\": 1, \"method\": \"solve\", \"params\": {\"constraints\": "
      "\"var v; v <= /a*/;\", \"deadline_ms\": 0}}");
  EXPECT_EQ(errorCodeOf(Resp), "timeout");
}

TEST(ServiceTest, DefaultDeadlineAppliesWhenRequestCarriesNone) {
  ServiceOptions Opts;
  Opts.DefaultDeadlineMs = 0; // No default: runs to completion.
  SolverService NoDeadline(Opts);
  EXPECT_NE(resultOf(NoDeadline.handleLine(
                solveLine(1, "var v; v <= /a/;"))),
            nullptr);

  // An unreachable default deadline also completes (arming works without
  // firing).
  Opts.DefaultDeadlineMs = 1000 * 60 * 60;
  SolverService LongDeadline(Opts);
  EXPECT_NE(resultOf(LongDeadline.handleLine(
                solveLine(1, "var v; v <= /a/;"))),
            nullptr);
}

TEST(ServiceTest, PreCancelledTokenReportsCancelled) {
  SolverService Service(ServiceOptions{});
  ResourceBudget Budget;
  Budget.cancel();
  Json Resp =
      Service.handleLine(solveLine(1, "var v; v <= /a*/;"), &Budget);
  EXPECT_EQ(errorCodeOf(Resp), "cancelled");
}

TEST(ServiceTest, CancellationUnwindsMidSolve) {
  // The full enumeration of slowInstance() takes seconds; cancelling
  // ~30ms in must unwind the solver long before that. The generous bound
  // below only guards against a wedged worker, not timing precision.
  SolverService Service(ServiceOptions{});
  ResourceBudget Budget;
  std::thread Canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    Budget.cancel();
  });
  auto Start = std::chrono::steady_clock::now();
  Json Resp = Service.handleLine(solveLine(1, slowInstance()), &Budget);
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  Canceller.join();
  EXPECT_EQ(errorCodeOf(Resp), "cancelled");
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(Elapsed).count(),
            30);
}

TEST(ServiceTest, DeadlineExpiryMidSolveReportsTimeout) {
  SolverService Service(ServiceOptions{});
  Json Resp = Service.handleLine(
      "{\"id\": 1, \"method\": \"solve\", \"params\": {\"constraints\": \"" +
      slowInstance() + "\", \"deadline_ms\": 30}}");
  EXPECT_EQ(errorCodeOf(Resp), "timeout");
}

//===----------------------------------------------------------------------===//
// SolverService: decide
//===----------------------------------------------------------------------===//

TEST(ServiceTest, DecideMatchesTheKernel) {
  SolverService Service(ServiceOptions{});
  Nfa A = machineFor("ab*");
  Nfa B = machineFor("a(b|c)*");
  struct Case {
    const char *Query;
    bool NeedsRhs;
    bool Expected;
  } Cases[] = {
      {"subset", true, subsetOf(A, B)},
      {"empty-intersection", true, emptyIntersection(A, B)},
      {"equivalent", true, equivalentTo(A, B)},
      {"empty", false, isEmpty(A)},
  };
  for (const Case &C : Cases) {
    Json Req = Json::object();
    Req["id"] = C.Query;
    Req["method"] = "decide";
    Json Params = Json::object();
    Params["query"] = C.Query;
    Params["lhs"] = serializeNfa(A);
    if (C.NeedsRhs)
      Params["rhs"] = serializeNfa(B);
    Req["params"] = std::move(Params);
    Json Resp = Service.handleLine(Req.dump(0));
    const Json *Result = resultOf(Resp);
    ASSERT_NE(Result, nullptr) << C.Query;
    EXPECT_EQ(Result->find("answer")->asBool(), C.Expected) << C.Query;
  }
}

TEST(ServiceTest, DecideRejectsOversizedMachines) {
  ServiceOptions Opts;
  Opts.MaxNfaStates = 3;
  SolverService Service(Opts);
  Json Req = Json::object();
  Req["id"] = 1;
  Req["method"] = "decide";
  Json Params = Json::object();
  Params["query"] = "empty";
  Params["lhs"] = serializeNfa(machineFor("abcdefgh")); // > 3 states.
  Req["params"] = std::move(Params);
  EXPECT_EQ(errorCodeOf(Service.handleLine(Req.dump(0))),
            "oversized_machine");
}

TEST(ServiceTest, DecideRejectsBadParams) {
  SolverService Service(ServiceOptions{});
  EXPECT_EQ(errorCodeOf(Service.handleLine(
                "{\"id\": 1, \"method\": \"decide\", \"params\": "
                "{\"query\": \"frob\"}}")),
            "invalid_params");
  // Binary query without rhs.
  Json Req = Json::object();
  Req["id"] = 2;
  Req["method"] = "decide";
  Json Params = Json::object();
  Params["query"] = "subset";
  Params["lhs"] = serializeNfa(machineFor("a"));
  Req["params"] = std::move(Params);
  EXPECT_EQ(errorCodeOf(Service.handleLine(Req.dump(0))), "invalid_params");
  // Unparseable machine text.
  EXPECT_EQ(errorCodeOf(Service.handleLine(
                "{\"id\": 3, \"method\": \"decide\", \"params\": "
                "{\"query\": \"empty\", \"lhs\": \"gibberish\"}}")),
            "invalid_params");
}

//===----------------------------------------------------------------------===//
// SolverService: the NDJSON serve loop
//===----------------------------------------------------------------------===//

/// Splits NDJSON output into parsed response objects.
std::vector<Json> responsesOf(const std::string &Output) {
  std::vector<Json> Out;
  std::istringstream In(Output);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::optional<Json> Doc = Json::parse(Line);
    EXPECT_TRUE(Doc.has_value()) << Line;
    if (Doc)
      Out.push_back(std::move(*Doc));
  }
  return Out;
}

TEST(ServiceTest, ServeAnswersEveryLineAndStopsOnShutdown) {
  std::istringstream In(
      "{\"id\": 1, \"method\": \"ping\"}\n"
      "\n" // Blank keep-alive: ignored, no response.
      "not json\n" +
      solveLine("s1", "var v; v <= /ab/;") +
      "\n"
      "{\"id\": 9, \"method\": \"shutdown\"}\n" +
      solveLine("after", "var v; v <= /a/;") + "\n");
  std::ostringstream Out;
  SolverService Service(ServiceOptions{});
  EXPECT_EQ(Service.serve(In, Out), 0);

  std::vector<Json> Responses = responsesOf(Out.str());
  // Everything before shutdown is answered; the request after it is not.
  ASSERT_EQ(Responses.size(), 4u);
  EXPECT_EQ(Responses.back().find("result")->find("shutting_down")->asBool(),
            true);
  bool SawParseError = false;
  for (const Json &R : Responses)
    if (!R.find("ok")->asBool())
      SawParseError = errorCodeOf(R) == "parse_error" || SawParseError;
  EXPECT_TRUE(SawParseError);
}

TEST(ServiceTest, ConcurrentServeMatchesSerialVerdicts) {
  // The same request batch through a serial and a 4-job service must
  // produce identical per-id verdicts (responses may reorder).
  std::vector<std::string> Instances = {
      "var v1; var v2; v1 . v2 <= /xyyz|xyz/;",
      "var v; v <= /a/; v <= /b/;",
      "var v; v <= /ab*c/; \"a\" . v <= /aab*c/;",
      DisjunctiveInstance,
      "var a; var b; a . b <= /(p|q)(p|q)(p|q)/;",
  };
  auto RunBatch = [&](unsigned Jobs) {
    std::string Input;
    for (size_t I = 0; I != Instances.size(); ++I)
      Input += solveLine("req-" + std::to_string(I), Instances[I]) + "\n";
    std::istringstream In(Input);
    std::ostringstream Out;
    ServiceOptions Opts;
    Opts.Jobs = Jobs;
    SolverService Service(Opts);
    EXPECT_EQ(Service.serve(In, Out), 0);
    std::map<std::string, std::string> ById;
    for (const Json &R : responsesOf(Out.str()))
      ById[R.find("id")->asString()] = verdictKey(R);
    return ById;
  };
  auto Serial = RunBatch(1);
  auto Concurrent = RunBatch(4);
  ASSERT_EQ(Serial.size(), Instances.size());
  EXPECT_EQ(Serial, Concurrent);
}

//===----------------------------------------------------------------------===//
// Resource governance (docs/ROBUSTNESS.md)
//===----------------------------------------------------------------------===//

/// Small operands whose product/complement machinery explodes: the
/// resource-governance target. Ungoverned it solves fine (slowly).
const char *PathologicalInstance =
    "var v; var w; v . w <= /(a|b)*a(a|b){10}/;";

/// solveLine plus a per-request state budget.
std::string budgetedSolveLine(const Json &Id, const std::string &Constraints,
                              uint64_t MaxStates) {
  Json Req = Json::object();
  Req["id"] = Id;
  Req["method"] = "solve";
  Json Params = Json::object();
  Params["constraints"] = Constraints;
  Params["max_states"] = MaxStates;
  Req["params"] = std::move(Params);
  return Req.dump(0);
}

TEST(ServiceTest, PathologicalSolveExhaustsItsBudgetOthersComplete) {
  // The acceptance scenario: the pathological request unwinds into a
  // structured resource_exhausted while concurrent normal requests on the
  // same service answer normally.
  std::string Input =
      budgetedSolveLine("bad", PathologicalInstance, 500) + "\n" +
      solveLine("good-1", "var v1; v1 <= /ab*/; \"x\" . v1 <= /xab*/;") +
      "\n" + solveLine("good-2", "var v; v <= /a/; v <= /b/;") + "\n";
  std::istringstream In(Input);
  std::ostringstream Out;
  ServiceOptions Opts;
  Opts.Jobs = 2;
  SolverService Service(Opts);
  EXPECT_EQ(Service.serve(In, Out), 0);

  std::map<std::string, Json> ById;
  for (const Json &R : responsesOf(Out.str()))
    ById[R.find("id")->asString()] = R;
  ASSERT_EQ(ById.size(), 3u);
  EXPECT_EQ(errorCodeOf(ById["bad"]), "resource_exhausted");
  // The error names the breached dimension so clients know which knob to
  // raise.
  const Json *Dimension = ById["bad"].find("error")->find("dimension");
  ASSERT_NE(Dimension, nullptr);
  EXPECT_NE(Dimension->asString(), "none");
  EXPECT_TRUE(resultOf(ById["good-1"])->find("satisfiable")->asBool());
  EXPECT_FALSE(resultOf(ById["good-2"])->find("satisfiable")->asBool());
}

TEST(ServiceTest, ResourceExhaustedIsDistinctFromTimeoutAndCancelled) {
  SolverService Service(ServiceOptions{});
  // Same pathological request, three different failure causes, three
  // different codes.
  EXPECT_EQ(errorCodeOf(Service.handleLine(
                budgetedSolveLine(1, PathologicalInstance, 500))),
            "resource_exhausted");
  EXPECT_EQ(errorCodeOf(Service.handleLine(
                "{\"id\": 2, \"method\": \"solve\", \"params\": "
                "{\"constraints\": \"var v; v <= /a*/;\", "
                "\"deadline_ms\": 0}}")),
            "timeout");
  ResourceBudget Cancelled;
  Cancelled.cancel();
  EXPECT_EQ(errorCodeOf(Service.handleLine(
                solveLine(3, PathologicalInstance), &Cancelled)),
            "cancelled");
}

TEST(ServiceTest, DecideHonorsThePerRequestBudget) {
  SolverService Service(ServiceOptions{});
  Json Req = Json::object();
  Req["id"] = 1;
  Req["method"] = "decide";
  Json Params = Json::object();
  Params["query"] = "subset";
  Params["lhs"] = serializeNfa(machineFor("(a|c){9}"));
  Params["rhs"] = serializeNfa(machineFor("(a|c)*a(a|c){6}"));
  Params["max_states"] = 8;
  Req["params"] = std::move(Params);
  EXPECT_EQ(errorCodeOf(Service.handleLine(Req.dump(0))),
            "resource_exhausted");
}

//===----------------------------------------------------------------------===//
// SolverService: one budget governs parse, decide and render
//===----------------------------------------------------------------------===//

/// Handles \p Req synchronously; \p Ms receives the wall time it took.
Json timedHandle(SolverService &Service, const Json &Req, int64_t &Ms) {
  auto Start = std::chrono::steady_clock::now();
  Json Resp = Service.handleLine(Req.dump(0));
  Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
           std::chrono::steady_clock::now() - Start)
           .count();
  return Resp;
}

TEST(ServiceTest, ParseTimeComplementObeysTheDeadline) {
  // `~` determinizes while the constraint text is parsed: ~2^21 macro
  // states, many seconds of work. The parse runs under the request's
  // budget, so the deadline stops it.
  SolverService Service(ServiceOptions{});
  Json Req = Json::object();
  Req["id"] = 1;
  Req["method"] = "solve";
  Req["params"] = Json::object();
  Req["params"]["constraints"] = "var x; x <= /c/; x <= /~((a|b)*a(a|b){20})/;";
  Req["params"]["deadline_ms"] = 300;
  int64_t Ms = 0;
  Json Resp = timedHandle(Service, Req, Ms);
  EXPECT_EQ(errorCodeOf(Resp), "timeout");
  EXPECT_LT(Ms, 600);
}

TEST(ServiceTest, ExponentialRenderObeysTheMemoryCap) {
  // The answer's 64-state minimal DFA solves at once, but its regex text
  // grows exponentially during state elimination. The render charges the
  // text to the request's budget, so the request unwinds into a
  // structured error instead of exhausting memory.
  SolverService Service(ServiceOptions{});
  Json Req = Json::object();
  Req["id"] = 1;
  Req["method"] = "solve";
  Req["params"] = Json::object();
  Req["params"]["constraints"] = "var x; x <= /(a|b)*a(a|b){5}/;";
  Req["params"]["deadline_ms"] = 1000;
  Req["params"]["max_memory_bytes"] = 100000000;
  int64_t Ms = 0;
  std::string Code = errorCodeOf(timedHandle(Service, Req, Ms));
  EXPECT_TRUE(Code == "timeout" || Code == "resource_exhausted") << Code;
  EXPECT_LT(Ms, 2000);
}

TEST(ServiceTest, DecideObeysTheDeadlineMidQuery) {
  // The subset holds, and proving it means exploring far more product
  // pairs than 200 ms allow: the antichain cannot prune the right-hand
  // side's two-component macro states.
  SolverService Service(ServiceOptions{});
  Json Req = Json::object();
  Req["id"] = 1;
  Req["method"] = "decide";
  Req["params"] = Json::object();
  Req["params"]["query"] = "subset";
  Req["params"]["lhs"] = serializeNfa(machineFor("(a|b)*a(a|b){18}"));
  Req["params"]["rhs"] =
      serializeNfa(machineFor("(a|b)*b(a|b){18}|(a|b)*a(a|b){18}"));
  Req["params"]["deadline_ms"] = 200;
  int64_t Ms = 0;
  Json Resp = timedHandle(Service, Req, Ms);
  EXPECT_EQ(errorCodeOf(Resp), "timeout");
  EXPECT_LT(Ms, 400);
}

TEST(ServiceTest, ServerBudgetCapClampsTheRequestParam) {
  // The server caps every request at 500 states; asking for millions does
  // not lift the cap.
  ServiceOptions Opts;
  Opts.MaxStatesBudget = 500;
  SolverService Service(Opts);
  EXPECT_EQ(errorCodeOf(Service.handleLine(budgetedSolveLine(
                1, PathologicalInstance, 100000000))),
            "resource_exhausted");
  // Ill-typed budget params are invalid_params, not crashes.
  EXPECT_EQ(errorCodeOf(Service.handleLine(
                "{\"id\": 2, \"method\": \"solve\", \"params\": "
                "{\"constraints\": \"var v;\", \"max_states\": \"lots\"}}")),
            "invalid_params");
  EXPECT_EQ(errorCodeOf(Service.handleLine(
                "{\"id\": 3, \"method\": \"solve\", \"params\": "
                "{\"constraints\": \"var v;\", \"max_memory_bytes\": 0}}")),
            "invalid_params");
}

TEST(ServiceTest, MaxNfaStatesBindsIntermediateMachines) {
  // --max-states used to gate only request *operands*; it now rides the
  // budget as the per-machine limit, so a request whose intermediate
  // product outgrows it unwinds instead of materializing the blowup.
  ServiceOptions Opts;
  Opts.MaxNfaStates = 64;
  SolverService Service(Opts);
  Json Resp = Service.handleLine(solveLine(1, PathologicalInstance));
  EXPECT_EQ(errorCodeOf(Resp), "resource_exhausted");
  EXPECT_EQ(Resp.find("error")->find("dimension")->asString(),
            "machine_states");
}

TEST(ServiceTest, StatsReportsGovernanceConfiguration) {
  ServiceOptions Opts;
  Opts.MaxQueueDepth = 7;
  Opts.MaxStatesBudget = 1234;
  SolverService Service(Opts);
  Json Resp = Service.handleLine("{\"id\": 1, \"method\": \"stats\"}");
  const Json *Result = resultOf(Resp);
  ASSERT_NE(Result, nullptr);
  EXPECT_EQ(Result->find("queue_depth")->asUnsigned(), 0u);
  const Json *Budgets = Result->find("budgets");
  ASSERT_NE(Budgets, nullptr);
  EXPECT_EQ(Budgets->find("max_queue_depth")->asUnsigned(), 7u);
  EXPECT_EQ(Budgets->find("max_states")->asUnsigned(), 1234u);
}

TEST(ServiceTest, StatsReportsCsrViewCacheHealth) {
  SolverService Service(ServiceOptions{});
  // A decide request forces CSR views to exist before stats snapshots them.
  Json Req = Json::object();
  Req["id"] = "d";
  Req["method"] = "decide";
  Json Params = Json::object();
  Params["query"] = "subset";
  Params["lhs"] = serializeNfa(machineFor("ab"));
  Params["rhs"] = serializeNfa(machineFor("(a|b)*"));
  Req["params"] = std::move(Params);
  Json Decide = Service.handleLine(Req.dump(0));
  ASSERT_NE(resultOf(Decide), nullptr);
  Json Resp = Service.handleLine("{\"id\": 1, \"method\": \"stats\"}");
  const Json *Result = resultOf(Resp);
  ASSERT_NE(Result, nullptr);
  const Json *Csr = Result->find("csr");
  ASSERT_NE(Csr, nullptr);
  EXPECT_GE(Csr->find("builds")->asUnsigned(), 1u);
  ASSERT_NE(Csr->find("reuses"), nullptr);
  ASSERT_NE(Csr->find("minterm_classes"), nullptr);
  double ReuseRate = Csr->find("reuse_rate")->asDouble();
  EXPECT_GE(ReuseRate, 0.0);
  EXPECT_LE(ReuseRate, 1.0);
  // The raw counters are also published through the registry snapshot.
  ASSERT_NE(Result->find("counters")->find("csr.builds"), nullptr);
  ASSERT_NE(Result->find("counters")->find("csr.reuses"), nullptr);
  ASSERT_NE(Result->find("counters")->find("minterm.classes"), nullptr);
}

uint64_t counterValue(const char *Name) {
  for (const auto &[N, V] : StatsRegistry::global().snapshot())
    if (N == Name)
      return V;
  ADD_FAILURE() << "counter " << Name << " is not registered";
  return 0;
}

TEST(ServiceTest, RetryParamFeedsTheRetriedCounter) {
  SolverService Service(ServiceOptions{});
  uint64_t Before = counterValue("budget.requests_retried");
  Json Resp = Service.handleLine(
      "{\"id\": 1, \"method\": \"ping\", \"params\": {\"retry\": 2}}");
  EXPECT_NE(resultOf(Resp), nullptr);
  EXPECT_EQ(counterValue("budget.requests_retried"), Before + 1);
}

//===----------------------------------------------------------------------===//
// Incremental sessions (docs/SESSIONS.md)
//===----------------------------------------------------------------------===//

/// A session-verb request skeleton; callers fill in params.
Json sessionReq(const Json &Id, const std::string &Method) {
  Json Req = Json::object();
  Req["id"] = Id;
  Req["method"] = Method;
  Req["params"] = Json::object();
  return Req;
}

TEST(ServiceTest, SessionLifecycleWarmRestartsAndClose) {
  SolverService Service((ServiceOptions()));
  Json Open = sessionReq(1, "session_open");
  Open["params"]["constraints"] = "var v; var w; v . w <= /ab|ba/;";
  Json OpenResp = Service.handleLine(Open.dump(0));
  const Json *OpenResult = resultOf(OpenResp);
  ASSERT_NE(OpenResult, nullptr);
  std::string Sid = OpenResult->find("session")->asString();
  EXPECT_FALSE(Sid.empty());
  EXPECT_EQ(OpenResult->find("depth")->asUnsigned(), 0u);

  auto check = [&](int Id) {
    Json Req = sessionReq(Id, "session_check");
    Req["params"]["session"] = Sid;
    return Service.handleLine(Req.dump(0));
  };

  // Cold first check.
  Json First = check(2);
  const Json *R1 = resultOf(First);
  ASSERT_NE(R1, nullptr);
  EXPECT_TRUE(R1->find("satisfiable")->asBool());
  const Json *S1 = R1->find("session");
  ASSERT_NE(S1, nullptr);
  EXPECT_FALSE(S1->find("incremental")->asBool());
  EXPECT_EQ(S1->find("depth")->asUnsigned(), 0u);

  // Push a one-constraint delta; the re-check is incremental and moves
  // the unchanged prefix's constants over.
  Json Push = sessionReq(3, "session_push");
  Push["params"]["session"] = Sid;
  Push["params"]["constraints"] = "v <= /ab*/;";
  Json PushResp = Service.handleLine(Push.dump(0));
  const Json *PushResult = resultOf(PushResp);
  ASSERT_NE(PushResult, nullptr);
  EXPECT_EQ(PushResult->find("depth")->asUnsigned(), 1u);

  Json Second = check(4);
  const Json *R2 = resultOf(Second);
  ASSERT_NE(R2, nullptr);
  const Json *S2 = R2->find("session");
  ASSERT_NE(S2, nullptr);
  EXPECT_TRUE(S2->find("incremental")->asBool());
  EXPECT_EQ(S2->find("depth")->asUnsigned(), 1u);
  EXPECT_EQ(S2->find("dirty_constraints")->asUnsigned(), 1u);
  EXPECT_GT(S2->find("constants_reused")->asUnsigned(), 0u);

  // Pop back; the re-check splices every group from cache and reproduces
  // the first answer exactly.
  Json Pop = sessionReq(5, "session_pop");
  Pop["params"]["session"] = Sid;
  Json PopResp = Service.handleLine(Pop.dump(0));
  const Json *PopResult = resultOf(PopResp);
  ASSERT_NE(PopResult, nullptr);
  EXPECT_EQ(PopResult->find("depth")->asUnsigned(), 0u);

  Json Third = check(6);
  const Json *R3 = resultOf(Third);
  ASSERT_NE(R3, nullptr);
  EXPECT_EQ(R3->find("assignments")->dump(0),
            R1->find("assignments")->dump(0));
  const Json *S3 = R3->find("session");
  ASSERT_NE(S3, nullptr);
  EXPECT_EQ(S3->find("dirty_constraints")->asUnsigned(), 0u);
  EXPECT_EQ(S3->find("groups_reused")->asUnsigned(),
            S3->find("groups_total")->asUnsigned());
  EXPECT_GE(S3->find("groups_total")->asUnsigned(), 1u);

  // Close; further verbs answer session_lost.
  Json Close = sessionReq(7, "session_close");
  Close["params"]["session"] = Sid;
  Json CloseResp = Service.handleLine(Close.dump(0));
  const Json *CloseResult = resultOf(CloseResp);
  ASSERT_NE(CloseResult, nullptr);
  EXPECT_TRUE(CloseResult->find("closed")->asBool());
  EXPECT_EQ(errorCodeOf(check(8)), "session_lost");
}

TEST(ServiceTest, SessionVerbsOnUnknownIdAnswerLost) {
  SolverService Service((ServiceOptions()));
  for (const char *Method :
       {"session_push", "session_pop", "session_check", "session_close"}) {
    Json Req = sessionReq(1, Method);
    Req["params"]["session"] = "never-opened";
    if (std::string(Method) == "session_push")
      Req["params"]["constraints"] = "var v; v <= /a/;";
    EXPECT_EQ(errorCodeOf(Service.handleLine(Req.dump(0))), "session_lost")
        << Method;
  }
}

TEST(ServiceTest, SessionOpenValidatesParamsAndIds) {
  SolverService Service((ServiceOptions()));

  // Parse failures surface the offending line and leave nothing open.
  Json Bad = sessionReq(1, "session_open");
  Bad["params"]["constraints"] = "var v;\nv <= /(/;";
  Json BadResp = Service.handleLine(Bad.dump(0));
  EXPECT_EQ(errorCodeOf(BadResp), "invalid_params");
  EXPECT_NE(BadResp.find("error")->find("message")->asString().find("line 2"),
            std::string::npos);

  // Explicit ids must be unique among open sessions.
  Json Open = sessionReq(2, "session_open");
  Open["params"]["session"] = "dup";
  ASSERT_NE(resultOf(Service.handleLine(Open.dump(0))), nullptr);
  Json Again = sessionReq(3, "session_open");
  Again["params"]["session"] = "dup";
  EXPECT_EQ(errorCodeOf(Service.handleLine(Again.dump(0))), "invalid_params");

  // A verb without a session id is malformed, not lost.
  EXPECT_EQ(errorCodeOf(Service.handleLine(
                sessionReq(4, "session_check").dump(0))),
            "invalid_params");

  // Popping with no open frame is a client error on a live session.
  Json Pop = sessionReq(5, "session_pop");
  Pop["params"]["session"] = "dup";
  EXPECT_EQ(errorCodeOf(Service.handleLine(Pop.dump(0))), "invalid_params");
}

TEST(ServiceTest, SessionEvictionAfterIdleTimeout) {
  // The idle policy runs on an injected clock: no real sleeps, and the
  // eviction boundary is tested exactly rather than raced.
  FakeClock Clk;
  ServiceOptions Opts;
  Opts.SessionIdleTimeoutMs = 5000;
  Opts.TimeSource = &Clk;
  SolverService Service(Opts);

  Json Open = sessionReq(1, "session_open");
  Open["params"]["session"] = "idle";
  Open["params"]["constraints"] = "var v; v <= /a*/;";
  ASSERT_NE(resultOf(Service.handleLine(Open.dump(0))), nullptr);

  // One tick short of the timeout: opening another session evicts
  // nothing.
  Clk.advanceMs(4999);
  uint64_t Evicted = counterValue("session.evicted");
  Json Early = sessionReq(10, "session_open");
  Early["params"]["session"] = "early";
  ASSERT_NE(resultOf(Service.handleLine(Early.dump(0))), nullptr);
  EXPECT_EQ(counterValue("session.evicted"), Evicted);

  // At the boundary the idle session is swept ("early" was just touched).
  Clk.advanceMs(1);

  // Eviction runs on the open path; the idle session is swept...
  Json Fresh = sessionReq(2, "session_open");
  Fresh["params"]["session"] = "fresh";
  ASSERT_NE(resultOf(Service.handleLine(Fresh.dump(0))), nullptr);
  EXPECT_EQ(counterValue("session.evicted"), Evicted + 1);

  // ... and later requests naming it answer session_lost.
  Json Check = sessionReq(3, "session_check");
  Check["params"]["session"] = "idle";
  EXPECT_EQ(errorCodeOf(Service.handleLine(Check.dump(0))), "session_lost");
}

TEST(ServiceTest, SessionTableCapacityShedsOpens) {
  ServiceOptions Opts;
  Opts.MaxSessions = 1;
  SolverService Service(Opts);

  Json First = sessionReq(1, "session_open");
  ASSERT_NE(resultOf(Service.handleLine(First.dump(0))), nullptr);
  Json Second = sessionReq(2, "session_open");
  Json Resp = Service.handleLine(Second.dump(0));
  EXPECT_EQ(errorCodeOf(Resp), "overloaded");
  ASSERT_NE(Resp.find("error")->find("retry_after_ms"), nullptr);
  EXPECT_GT(Resp.find("error")->find("retry_after_ms")->asUnsigned(), 0u);
}

TEST(ServiceTest, HealthVerbReportsUptimeSessionsJournalAndInflight) {
  FakeClock Clk;
  ServiceOptions Opts;
  Opts.TimeSource = &Clk;
  SolverService Service(Opts);
  Clk.advanceMs(1234);

  Json Resp = Service.handleLine("{\"id\": 1, \"method\": \"health\"}");
  const Json *R = resultOf(Resp);
  ASSERT_NE(R, nullptr);
  EXPECT_TRUE(R->find("healthy")->asBool());
  EXPECT_EQ(R->find("uptime_ms")->asUnsigned(), 1234u);
  EXPECT_EQ(R->find("sessions")->asUnsigned(), 0u);
  const Json *Jn = R->find("journal");
  ASSERT_NE(Jn, nullptr);
  EXPECT_FALSE(Jn->find("enabled")->asBool());
  const Json *Infl = R->find("inflight");
  ASSERT_NE(Infl, nullptr);
  EXPECT_EQ(Infl->find("count")->asUnsigned(), 0u);
  EXPECT_EQ(Infl->find("oldest_ms")->asUnsigned(), 0u);

  Json Open = sessionReq(2, "session_open");
  ASSERT_NE(resultOf(Service.handleLine(Open.dump(0))), nullptr);
  Json Again = Service.handleLine("{\"id\": 3, \"method\": \"health\"}");
  const Json *R2 = resultOf(Again);
  ASSERT_NE(R2, nullptr);
  EXPECT_EQ(R2->find("sessions")->asUnsigned(), 1u);
}

TEST(ServiceTest, HealthIsAnsweredInlineWhileThePoolIsWedged) {
  // A solve that ignores its cancellation token occupies the only pool
  // worker; health must still answer (it is the watchdog's reporting
  // channel, so it bypasses both the queue and admission control).
  FakeClock Clk;
  ServiceOptions Opts;
  Opts.Jobs = 1;
  Opts.MaxQueueDepth = 1; // health is exempt even from admission control
  Opts.TimeSource = &Clk;
  SolverService Service(Opts);

  Json Stuck = Json::object();
  Stuck["id"] = "stuck";
  Stuck["method"] = "solve";
  Stuck["params"] = Json::object();
  Stuck["params"]["constraints"] = "var z; z <= /a/;";
  Stuck["params"]["debug_hang_ms"] = 1500;
  auto StuckPromise = std::make_shared<std::promise<Json>>();
  std::future<Json> StuckF = StuckPromise->get_future();
  ASSERT_EQ(Service.submitLine(Stuck.dump(0),
                               [StuckPromise](const Json &R) {
                                 StuckPromise->set_value(R);
                               }),
            LineHandler::Submit::Accepted);
  // Wait until the wedged solve is actually on the worker (in-flight).
  Json Health;
  for (int I = 0; I != 200; ++I) {
    auto P = std::make_shared<std::promise<Json>>();
    std::future<Json> F = P->get_future();
    ASSERT_EQ(Service.submitLine("{\"id\": \"h\", \"method\": \"health\"}",
                                 [P](const Json &R) { P->set_value(R); }),
              LineHandler::Submit::Accepted);
    // Inline answer: the future is ready despite the wedged pool.
    ASSERT_EQ(F.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    Health = F.get();
    const Json *R = resultOf(Health);
    ASSERT_NE(R, nullptr);
    if (R->find("inflight")->find("count")->asUnsigned() >= 1)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const Json *R = resultOf(Health);
  ASSERT_NE(R, nullptr);
  EXPECT_GE(R->find("inflight")->find("count")->asUnsigned(), 1u);

  // In-flight age comes off the injected clock.
  Clk.advanceMs(777);
  auto P2 = std::make_shared<std::promise<Json>>();
  std::future<Json> F2 = P2->get_future();
  ASSERT_EQ(Service.submitLine("{\"id\": \"h2\", \"method\": \"health\"}",
                               [P2](const Json &R2) { P2->set_value(R2); }),
            LineHandler::Submit::Accepted);
  Json Health2 = F2.get();
  const Json *HR = resultOf(Health2);
  ASSERT_NE(HR, nullptr);
  EXPECT_GE(HR->find("inflight")->find("oldest_ms")->asUnsigned(), 777u);

  ASSERT_EQ(StuckF.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  Service.drain();
}

TEST(ServiceTest, SessionCheckHonorsBudgetDeadlineAndRecovers) {
  SolverService Service((ServiceOptions()));
  Json Open = sessionReq(1, "session_open");
  Open["params"]["constraints"] =
      "var a; var b; a . b <= /(x|y)(x|y)(x|y)(x|y)(x|y)(x|y)/;";
  Json OpenResp = Service.handleLine(Open.dump(0));
  const Json *OpenResult = resultOf(OpenResp);
  ASSERT_NE(OpenResult, nullptr);
  std::string Sid = OpenResult->find("session")->asString();

  Json Tight = sessionReq(2, "session_check");
  Tight["params"]["session"] = Sid;
  Tight["params"]["max_states"] = 40;
  EXPECT_EQ(errorCodeOf(Service.handleLine(Tight.dump(0))),
            "resource_exhausted");

  Json Timeout = sessionReq(3, "session_check");
  Timeout["params"]["session"] = Sid;
  Timeout["params"]["deadline_ms"] = 0;
  EXPECT_EQ(errorCodeOf(Service.handleLine(Timeout.dump(0))), "timeout");

  // Interrupted checks poison nothing: the unrestricted check completes.
  Json Clean = sessionReq(4, "session_check");
  Clean["params"]["session"] = Sid;
  Json CleanResp = Service.handleLine(Clean.dump(0));
  const Json *CleanResult = resultOf(CleanResp);
  ASSERT_NE(CleanResult, nullptr);
  EXPECT_TRUE(CleanResult->find("satisfiable")->asBool());
}

TEST(ServiceTest, SessionParsesObeyTheDeadlineAndLeaveNoTrace) {
  // session_open and session_push parse their text (whose `~`
  // determinizes) under the request's budget, as solve does. A trip
  // answers `timeout` within twice the deadline, leaves the session as it
  // was, and journals nothing.
  const std::string Hostile = "x <= /~((a|b)*a(a|b){18})/;";
  std::filesystem::path Journal =
      std::filesystem::temp_directory_path() /
      ("dprle_session_parse_budget_" + std::to_string(::getpid()) +
       ".journal");
  std::filesystem::remove(Journal);
  ServiceOptions Opts;
  Opts.JournalPath = Journal.string();
  {
    SolverService Service(Opts);
    Json Open = sessionReq(1, "session_open");
    Open["params"]["session"] = "s";
    Open["params"]["constraints"] = "var x; x <= /c/;";
    ASSERT_NE(resultOf(Service.handleLine(Open.dump(0))), nullptr);
    Json Check = sessionReq(2, "session_check");
    Check["params"]["session"] = "s";
    Json Before = Service.handleLine(Check.dump(0));
    ASSERT_NE(resultOf(Before), nullptr);

    Json Push = sessionReq(3, "session_push");
    Push["params"]["session"] = "s";
    Push["params"]["constraints"] = Hostile;
    Push["params"]["deadline_ms"] = 300;
    int64_t Ms = 0;
    EXPECT_EQ(errorCodeOf(timedHandle(Service, Push, Ms)), "timeout");
    EXPECT_LT(Ms, 600);

    Json After = Service.handleLine(Check.dump(0));
    ASSERT_NE(resultOf(After), nullptr);
    EXPECT_EQ(resultOf(After)->find("assignments")->dump(0),
              resultOf(Before)->find("assignments")->dump(0));
    EXPECT_EQ(resultOf(After)->find("session")->find("depth")->asUnsigned(),
              0u);

    Json HostileOpen = sessionReq(4, "session_open");
    HostileOpen["params"]["session"] = "t";
    HostileOpen["params"]["constraints"] = "var x; " + Hostile;
    HostileOpen["params"]["deadline_ms"] = 300;
    EXPECT_EQ(errorCodeOf(timedHandle(Service, HostileOpen, Ms)), "timeout");
    EXPECT_LT(Ms, 600);
    Json Lost = sessionReq(5, "session_check");
    Lost["params"]["session"] = "t";
    EXPECT_EQ(errorCodeOf(Service.handleLine(Lost.dump(0))), "session_lost");
  }
  std::ifstream In(Journal);
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Text.find("x <= /c/;"), std::string::npos) << "journal unwritten";
  EXPECT_EQ(Text.find("(a|b){18}"), std::string::npos) << Text;
  std::filesystem::remove(Journal);
}

TEST(ServiceTest, StatsReportSessionTableAndMinimizeCache) {
  ServiceOptions Opts;
  Opts.MaxSessions = 5;
  SolverService Service(Opts);
  Json Open = sessionReq(1, "session_open");
  ASSERT_NE(resultOf(Service.handleLine(Open.dump(0))), nullptr);

  Json Resp = Service.handleLine("{\"id\": 2, \"method\": \"stats\"}");
  const Json *Result = resultOf(Resp);
  ASSERT_NE(Result, nullptr);
  const Json *Sessions = Result->find("sessions");
  ASSERT_NE(Sessions, nullptr);
  EXPECT_EQ(Sessions->find("open")->asUnsigned(), 1u);
  EXPECT_EQ(Sessions->find("max_sessions")->asUnsigned(), 5u);
  ASSERT_NE(Sessions->find("idle_timeout_ms"), nullptr);
  const Json *Minimize = Result->find("minimize_cache");
  ASSERT_NE(Minimize, nullptr);
  EXPECT_TRUE(Minimize->find("enabled")->asBool());
  ASSERT_NE(Minimize->find("machines"), nullptr);
  // The registry counters back the same schema.
  ASSERT_NE(Result->find("counters")->find("session.opened"), nullptr);
  ASSERT_NE(Result->find("counters")->find("minimize.misses"), nullptr);
}

//===----------------------------------------------------------------------===//
// Backpressure and malformed input
//===----------------------------------------------------------------------===//

TEST(ServiceTest, FullQueueShedsWithRetryHintAndKeepsServing) {
  // Jobs=1 and a queue bound of 1: the slow head request occupies the
  // worker, the next solve queues, and later solves are shed. Timing
  // decides *which* requests shed, never whether every line is answered.
  Json SlowReq = Json::object();
  SlowReq["id"] = "slow";
  SlowReq["method"] = "solve";
  Json SlowParams = Json::object();
  SlowParams["constraints"] = slowInstance(); // Contains a newline: must
  SlowParams["deadline_ms"] = 200;            // go through the escaper.
  SlowReq["params"] = std::move(SlowParams);
  std::string Input = SlowReq.dump(0) + "\n";
  for (int I = 0; I != 4; ++I)
    Input += solveLine("n-" + std::to_string(I), "var v; v <= /a/;") + "\n";
  Input += "{\"id\": \"end\", \"method\": \"shutdown\"}\n";
  std::istringstream In(Input);
  std::ostringstream Out;
  ServiceOptions Opts;
  Opts.Jobs = 1;
  Opts.MaxQueueDepth = 1;
  Opts.RetryAfterMsHint = 77;
  SolverService Service(Opts);
  EXPECT_EQ(Service.serve(In, Out), 0);

  std::vector<Json> Responses = responsesOf(Out.str());
  ASSERT_EQ(Responses.size(), 6u); // Every request answered, shed or not.
  unsigned Shed = 0;
  for (const Json &R : Responses) {
    if (R.find("ok")->asBool())
      continue;
    const Json *Error = R.find("error");
    if (Error->find("code")->asString() != "overloaded")
      continue;
    ++Shed;
    ASSERT_NE(Error->find("retry_after_ms"), nullptr);
    EXPECT_EQ(Error->find("retry_after_ms")->asUnsigned(), 77u);
  }
  EXPECT_GE(Shed, 1u);
}

TEST(ServiceTest, InvalidUtf8LineGetsStructuredErrorAndServiceContinues) {
  std::string Bad = "{\"id\": 1, \"method\": \"ping\", \"junk\": \"\xFF\xFE\"}";
  std::istringstream In(Bad + "\n{\"id\": 2, \"method\": \"ping\"}\n");
  std::ostringstream Out;
  SolverService Service(ServiceOptions{});
  EXPECT_EQ(Service.serve(In, Out), 0);

  std::vector<Json> Responses = responsesOf(Out.str());
  ASSERT_EQ(Responses.size(), 2u);
  EXPECT_EQ(errorCodeOf(Responses[0]), "parse_error");
  // The error response must not echo the broken bytes.
  std::string Dump = Responses[0].dump(0);
  for (char C : Dump)
    EXPECT_GE(static_cast<unsigned char>(C), 0u); // No >= 0x80 bytes:
  EXPECT_EQ(Dump.find('\xFF'), std::string::npos);
  EXPECT_NE(resultOf(Responses[1]), nullptr); // The next request is fine.
}

//===----------------------------------------------------------------------===//
// Fault injection (the chaos suite)
//===----------------------------------------------------------------------===//

/// Restores a disarmed injector whatever the test body does.
struct FaultScope {
  explicit FaultScope(const std::string &Spec) {
    EXPECT_TRUE(FaultInjector::global().arm(Spec)) << Spec;
  }
  ~FaultScope() { FaultInjector::global().disarm(); }
};

TEST(ServiceTest, InjectedAllocationFailureIsAnsweredAndServiceRecovers) {
  SolverService Service(ServiceOptions{});
  {
    FaultScope Fault("alloc.intersect:1");
    Json Resp = Service.handleLine(solveLine(1, DisjunctiveInstance));
    EXPECT_EQ(errorCodeOf(Resp), "internal_error");
  }
  // The fault fired exactly once; the same request now succeeds.
  EXPECT_NE(resultOf(Service.handleLine(solveLine(2, DisjunctiveInstance))),
            nullptr);
}

TEST(ServiceTest, InjectedQueueFaultShedsOneRequest) {
  FaultScope Fault("queue.submit:1");
  std::istringstream In(solveLine("shed-me", "var v; v <= /a/;") + "\n" +
                        "{\"id\": \"after\", \"method\": \"ping\"}\n");
  std::ostringstream Out;
  SolverService Service(ServiceOptions{});
  EXPECT_EQ(Service.serve(In, Out), 0);
  std::map<std::string, Json> ById;
  for (const Json &R : responsesOf(Out.str()))
    ById[R.find("id")->asString()] = R;
  ASSERT_EQ(ById.size(), 2u);
  EXPECT_EQ(errorCodeOf(ById["shed-me"]), "overloaded");
  EXPECT_NE(resultOf(ById["after"]), nullptr);
}

TEST(ServiceTest, EveryFaultSiteYieldsWellFormedOutputAndALivePing) {
  // The chaos sweep of the acceptance criteria: for every known site, a
  // batch that exercises solve + decide must produce only well-formed
  // NDJSON, and the service must still answer a ping afterwards. When
  // DPRLE_FAULT is set in the environment the injector is already armed
  // process-wide and the sweep covers just that spec (the CI chaos job
  // drives it that way, over several nth values); otherwise every site is
  // swept programmatically at nth 1. Allocation sites run at jobs=1 and
  // again at jobs=4, where the solve's parallel stages can put the fault
  // on a pool worker. (The other sites stay at jobs=1: at jobs=4 the
  // ping may be answered first and absorb an io.write or queue fault.)
  std::vector<std::string> Sites;
  if (FaultInjector::global().armed()) {
    const char *Env = std::getenv("DPRLE_FAULT");
    Sites = {Env ? std::string(Env)
                 : FaultInjector::global().armedSite() + ":1"};
  } else {
    for (const std::string &Site : FaultInjector::knownSites())
      Sites.push_back(Site + ":1");
  }
  // Disarm while the harness builds its requests (compiling the decide
  // machines runs embed); each iteration's FaultScope re-arms the site
  // so the fault fires inside the service, not in the test body.
  FaultInjector::global().disarm();

  Json DecideReq = Json::object();
  DecideReq["id"] = "decide";
  DecideReq["method"] = "decide";
  Json DecideParams = Json::object();
  DecideParams["query"] = "subset";
  DecideParams["lhs"] = serializeNfa(machineFor("ab*"));
  DecideParams["rhs"] = serializeNfa(machineFor("a(b|c)*"));
  DecideReq["params"] = std::move(DecideParams);

  std::vector<std::pair<std::string, unsigned>> Runs; // (spec, jobs)
  for (const std::string &Spec : Sites) {
    Runs.emplace_back(Spec, 1);
    if (Spec.rfind("alloc.", 0) == 0)
      Runs.emplace_back(Spec, 4);
  }
  for (const auto &[Spec, Jobs] : Runs) {
    FaultScope Fault(Spec);
    std::istringstream In(solveLine("solve", DisjunctiveInstance) + "\n" +
                          DecideReq.dump(0) + "\n" +
                          "{\"id\": \"final\", \"method\": \"ping\"}\n");
    std::ostringstream Out;
    ServiceOptions Opts;
    Opts.Jobs = Jobs;
    SolverService Service(Opts);
    EXPECT_EQ(Service.serve(In, Out), 0) << Spec;

    // responsesOf asserts every line parses as JSON.
    std::map<std::string, Json> ById;
    for (const Json &R : responsesOf(Out.str())) {
      ASSERT_NE(R.find("id"), nullptr) << Spec;
      ById[R.find("id")->asString()] = R;
    }
    // The one injected failure may drop at most one response (io.write);
    // the final ping must always be answered, alive and well.
    EXPECT_GE(ById.size(), 2u) << Spec;
    ASSERT_TRUE(ById.count("final")) << Spec;
    EXPECT_NE(resultOf(ById["final"]), nullptr) << Spec;
    // Whatever failed did so with a code from the closed set.
    for (const auto &[Id, R] : ById) {
      if (R.find("ok")->asBool())
        continue;
      std::string Code = R.find("error")->find("code")->asString();
      EXPECT_TRUE(Code == "internal_error" || Code == "overloaded" ||
                  Code == "resource_exhausted")
          << Spec << " -> " << Code;
    }
  }
}

/// A solve rich enough that every alloc.* site it reaches fires at least
/// eight times on cold caches: four CI-groups (gci waves, intersections),
/// constants to canonicalize (determinize, embed), and constant-only
/// subset checks (the subset kernel). Only the decide verb's
/// empty-intersection query reaches alloc.decide.product.
const char *FaultSweepInstance =
    "var a, b, c, d, e, f, g, h, i, j;"
    "a . b <= /(xy|yx)*z/; c . d <= /p(q|r)*s/;"
    "e . f <= /(ab|ba)+c/; g . h <= /m(n|o){1,3}k/;"
    "a <= /[xyz]*/; c <= /p[qrs]*/; e <= /[abc]*/; g <= /m[nok]*/;"
    "i <= /[ij]*/; i <= /i*j?/; j <= /j+k*/; j <= /[jk]+/;"
    "\"x\" <= /x|y/; \"xy\" <= /[xy]*/; \"pq\" <= /p.*/;"
    "\"ab\" <= /a.*/; \"m\" <= /[mn]/; \"kk\" <= /k*/;"
    "\"q\" <= /q+/; \"zz\" <= /z*/; \"i\" . \"j\" <= /[ij]+/;";

TEST(ServiceTest, AllocationFaultsAtJobsFourAreAnsweredAtEveryNth) {
  // At jobs=4 the solve runs on a pool worker and fans its constant
  // canonicalization, CI-groups and gci waves out to the other workers.
  // Wherever the nth allocation fault fires, the request it fires in must
  // come back as internal_error and the service must keep answering: a
  // throwing parallelFor body is rethrown on its caller, never left to
  // escape a worker thread.
  std::vector<std::string> Batch = {solveLine("solve", FaultSweepInstance)};
  for (int I = 0; I != 8; ++I) {
    Json Req = Json::object();
    Req["id"] = "decide" + std::to_string(I);
    Req["method"] = "decide";
    Json Params = Json::object();
    Params["query"] = "empty-intersection";
    Params["lhs"] = serializeNfa(machineFor("a{" + std::to_string(I) + "}b*"));
    Params["rhs"] = serializeNfa(machineFor("a*c"));
    Req["params"] = std::move(Params);
    Batch.push_back(Req.dump(0));
  }
  Batch.push_back("{\"id\": \"final\", \"method\": \"ping\"}");
  std::string Input;
  for (const std::string &Line : Batch)
    Input += Line + "\n";

  ServiceOptions Opts;
  Opts.Jobs = 4;
  for (const char *Site : {"alloc.intersect", "alloc.determinize",
                           "alloc.embed", "alloc.decide.product",
                           "alloc.decide.subset"}) {
    for (unsigned Nth = 1; Nth <= 8; ++Nth) {
      std::string Spec = std::string(Site) + ":" + std::to_string(Nth);
      // Cold caches, so every site is reached inside this batch.
      clearMinimizeCache();
      DecisionCache::global().clear();
      FaultScope Fault(Spec);
      std::istringstream In(Input);
      std::ostringstream Out;
      {
        SolverService Service(Opts);
        EXPECT_EQ(Service.serve(In, Out), 0) << Spec;
      }
      std::map<std::string, Json> ById;
      for (const Json &R : responsesOf(Out.str()))
        ById[R.find("id")->asString()] = R;
      ASSERT_EQ(ById.size(), Batch.size()) << Spec;
      std::vector<std::string> Failed;
      for (const auto &[Id, R] : ById)
        if (!R.find("ok")->asBool()) {
          EXPECT_EQ(errorCodeOf(R), "internal_error") << Spec << " " << Id;
          Failed.push_back(Id);
        }
      ASSERT_EQ(Failed.size(), 1u) << Spec;
      if (std::string(Site) != "alloc.decide.product") {
        EXPECT_EQ(Failed.front(), "solve") << Spec;
      }
      EXPECT_NE(resultOf(ById["final"]), nullptr) << Spec;
    }
  }
  // The same solve with no fault armed succeeds.
  clearMinimizeCache();
  DecisionCache::global().clear();
  SolverService Service(Opts);
  EXPECT_NE(resultOf(Service.handleLine(solveLine(1, FaultSweepInstance))),
            nullptr);
}

TEST(ServiceTest, HostileQuantifiersAreRejectedQuickly) {
  // Counted repetition is unrolled at compile time, before any request
  // budget exists; oversized counts and nested expansions are parse
  // errors (docs/ROBUSTNESS.md), answered without compiling anything.
  SolverService Service(ServiceOptions{});
  for (const char *Pattern :
       {"a{99999999999}", "a{1001}", "a{2,99999999999999999999999}",
        "(a{1000}){1000}", "((ab){100}c){100}"}) {
    auto Start = std::chrono::steady_clock::now();
    Json Resp = Service.handleLine(
        solveLine(1, std::string("var x; x <= /") + Pattern + "/;"));
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    EXPECT_EQ(errorCodeOf(Resp), "invalid_params") << Pattern;
    EXPECT_LT(Seconds, 1.0) << Pattern;
  }
  // A count at the cap still solves.
  EXPECT_NE(
      resultOf(Service.handleLine(solveLine(2, "var x; x <= /a{1000}/;"))),
      nullptr);
}

TEST(ServiceTest, EveryFaultSiteLeavesJournaledSessionsServable) {
  // Companion sweep for the durability sites: session traffic against a
  // journaled service (journal.write fires on the open/push appends),
  // then a rebuild on the same journal (journal.replay fires during the
  // replay). Both phases must emit only well-formed NDJSON and answer a
  // final ping; replay faults degrade to a clean prefix — the check on
  // the reborn service answers either ok or session_lost, never garbage.
  std::vector<std::string> Sites;
  if (FaultInjector::global().armed())
    Sites = {FaultInjector::global().armedSite() + ":1"};
  else
    for (const std::string &Site : FaultInjector::knownSites())
      Sites.push_back(Site + ":1");
  FaultInjector::global().disarm();

  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() /
                 ("dprle_fault_journal_" + std::to_string(::getpid()));
  fs::create_directories(Dir);

  auto runBatch = [](const ServiceOptions &Opts, const std::string &Batch,
                     const std::string &Spec) {
    std::istringstream In(Batch);
    std::ostringstream Out;
    SolverService Service(Opts);
    EXPECT_EQ(Service.serve(In, Out), 0) << Spec;
    std::map<std::string, Json> ById;
    for (const Json &R : responsesOf(Out.str())) {
      EXPECT_NE(R.find("id"), nullptr) << Spec;
      if (R.find("id")) {
        ById[R.find("id")->asString()] = R;
      }
    }
    EXPECT_TRUE(ById.count("final")) << Spec;
    if (ById.count("final")) {
      EXPECT_NE(resultOf(ById["final"]), nullptr) << Spec;
    }
    return ById;
  };

  unsigned Index = 0;
  for (const std::string &Spec : Sites) {
    ServiceOptions Opts;
    Opts.JournalPath =
        (Dir / ("site_" + std::to_string(Index++) + ".journal")).string();
    FaultScope Fault(Spec);

    Json Open = sessionReq("open", "session_open");
    Open["params"]["session"] = "chaos";
    Open["params"]["constraints"] = "var v; v <= /(a|b)*/;";
    Json Push = sessionReq("push", "session_push");
    Push["params"]["session"] = "chaos";
    Push["params"]["constraints"] = "v <= /ab*/;";
    Json Check = sessionReq("check", "session_check");
    Check["params"]["session"] = "chaos";
    runBatch(Opts,
             Open.dump(0) + "\n" + Push.dump(0) + "\n" + Check.dump(0) +
                 "\n{\"id\": \"final\", \"method\": \"ping\"}\n",
             Spec + " (live)");

    // The reborn service replays whatever the faulted run managed to
    // journal; the session either survived intact or is reported lost.
    std::map<std::string, Json> Reborn = runBatch(
        Opts,
        Check.dump(0) + "\n{\"id\": \"final\", \"method\": \"ping\"}\n",
        Spec + " (reborn)");
    if (Reborn.count("check")) {
      const Json &R = Reborn["check"];
      if (!R.find("ok")->asBool()) {
        EXPECT_EQ(R.find("error")->find("code")->asString(), "session_lost")
            << Spec;
      }
    }
  }
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
}

//===----------------------------------------------------------------------===//
// FdIo: NDJSON framing over a byte stream
//===----------------------------------------------------------------------===//

TEST(FdIoTest, LineReaderHandlesPartialWritesCrlfAndUnterminatedTail) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  // A slow writer: one logical line arrives in several writes, lines use
  // both \n and \r\n, and the final line has no terminator at all.
  std::thread Writer([&] {
    auto Put = [&](const std::string &S) {
      ASSERT_TRUE(writeAllFd(Fds[1], S.data(), S.size()));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };
    Put("{\"a\"");
    Put(": 1}\r\n{\"b\":");
    Put(" 2}\n");
    Put("tail-without-newline");
    ::close(Fds[1]);
  });
  FdLineReader Lines(Fds[0]);
  EXPECT_EQ(Lines.readLine(), "{\"a\": 1}"); // \r stripped with the \n.
  EXPECT_EQ(Lines.readLine(), "{\"b\": 2}");
  EXPECT_EQ(Lines.readLine(), "tail-without-newline");
  EXPECT_FALSE(Lines.readLine().has_value());
  EXPECT_FALSE(Lines.failed()); // Clean EOF, not stream corruption.
  Writer.join();
  ::close(Fds[0]);
}

//===----------------------------------------------------------------------===//
// Listener: the socket front end
//===----------------------------------------------------------------------===//

std::string uniqueSocketPath(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  return "/tmp/dprle-test-" +
         std::to_string(static_cast<unsigned long>(::getpid())) + "-" + Tag +
         "-" + std::to_string(Counter.fetch_add(1)) + ".sock";
}

OwnedFd connectUnixSocket(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return OwnedFd();
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    ::close(Fd);
    return OwnedFd();
  }
  return OwnedFd(Fd);
}

OwnedFd connectTcpSocket(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return OwnedFd();
  struct sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    ::close(Fd);
    return OwnedFd();
  }
  return OwnedFd(Fd);
}

bool sendAll(const OwnedFd &Fd, const std::string &Data) {
  return writeAllFd(Fd.get(), Data.data(), Data.size());
}

std::string pingLine(const std::string &Id) {
  return "{\"id\": \"" + Id + "\", \"method\": \"ping\"}";
}

TEST(ListenerTest, ConcurrentUnixClientsEachGetTheirOwnResponses) {
  ServiceOptions Opts;
  Opts.Jobs = 2;
  SolverService Service(Opts);
  Listener Front(Service, ListenerOptions{});
  std::string Path = uniqueSocketPath("multi");
  std::string Err;
  ASSERT_TRUE(Front.listenUnix(Path, &Err)) << Err;
  Front.start();

  constexpr int Clients = 4, PerClient = 4;
  std::vector<std::thread> Threads;
  for (int C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      OwnedFd Fd = connectUnixSocket(Path);
      ASSERT_TRUE(Fd.valid());
      std::set<std::string> Want;
      for (int I = 0; I != PerClient; ++I) {
        std::string Id = "c" + std::to_string(C) + "-" + std::to_string(I);
        Want.insert(Id);
        // Alternate real work with pings: responses interleave in
        // completion order across the shared pool.
        std::string Line = I % 2 == 0 ? solveLine(Id, "var v; v <= /ab*/;")
                                      : pingLine(Id);
        ASSERT_TRUE(sendAll(Fd, Line + "\n"));
      }
      FdLineReader Lines(Fd.get());
      std::set<std::string> Got;
      for (int I = 0; I != PerClient; ++I) {
        std::optional<std::string> Line = Lines.readLine();
        ASSERT_TRUE(Line.has_value());
        std::optional<Json> Resp = Json::parse(*Line);
        ASSERT_TRUE(Resp.has_value()) << *Line;
        EXPECT_TRUE(Resp->find("ok")->asBool()) << *Line;
        Got.insert(Resp->find("id")->asString());
      }
      // No cross-talk: exactly this client's ids, each answered once.
      EXPECT_EQ(Got, Want);
    });
  for (std::thread &T : Threads)
    T.join();
  Front.stop();
}

TEST(ListenerTest, SlowWriterPartialLinesAndPipelinedBurstsAreFramed) {
  SolverService Service((ServiceOptions()));
  Listener Front(Service, ListenerOptions{});
  std::string Path = uniqueSocketPath("framing");
  std::string Err;
  ASSERT_TRUE(Front.listenUnix(Path, &Err)) << Err;
  Front.start();

  OwnedFd Fd = connectUnixSocket(Path);
  ASSERT_TRUE(Fd.valid());
  FdLineReader Lines(Fd.get());

  // One request dribbled a byte at a time across many segments.
  std::string Dribble = pingLine("drip") + "\n";
  for (char Ch : Dribble) {
    ASSERT_TRUE(writeAllFd(Fd.get(), &Ch, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::optional<std::string> First = Lines.readLine();
  ASSERT_TRUE(First.has_value());
  std::optional<Json> Resp1 = Json::parse(*First);
  ASSERT_TRUE(Resp1.has_value());
  EXPECT_EQ(Resp1->find("id")->asString(), "drip");
  EXPECT_TRUE(Resp1->find("ok")->asBool());

  // Two requests pipelined into a single write: both must be answered.
  ASSERT_TRUE(sendAll(Fd, pingLine("b1") + "\n" + pingLine("b2") + "\n"));
  std::set<std::string> Got;
  for (int I = 0; I != 2; ++I) {
    std::optional<std::string> Line = Lines.readLine();
    ASSERT_TRUE(Line.has_value());
    Got.insert(Json::parse(*Line)->find("id")->asString());
  }
  EXPECT_EQ(Got, (std::set<std::string>{"b1", "b2"}));
  Front.stop();
}

TEST(ListenerTest, ClientDisconnectMidRequestDropsResponseWithoutWedging) {
  ServiceOptions Opts;
  Opts.Jobs = 2;
  SolverService Service(Opts);
  Listener Front(Service, ListenerOptions{});
  std::string Path = uniqueSocketPath("hangup");
  std::string Err;
  ASSERT_TRUE(Front.listenUnix(Path, &Err)) << Err;
  Front.start();

  uint64_t DroppedBefore = FrontEndStats::global().ResponsesDropped.get();
  {
    // Submit a solve whose answer (a deadline timeout) lands well after
    // this scope closes the socket.
    OwnedFd Fd = connectUnixSocket(Path);
    ASSERT_TRUE(Fd.valid());
    Json Req = Json::object();
    Req["id"] = "orphan";
    Req["method"] = "solve";
    Json Params = Json::object();
    Params["constraints"] = slowInstance();
    Params["deadline_ms"] = 150;
    Req["params"] = std::move(Params);
    ASSERT_TRUE(sendAll(Fd, Req.dump(0) + "\n"));
  }

  // The worker is not wedged: a fresh client is served while (and after)
  // the orphaned response is discarded.
  OwnedFd Fd2 = connectUnixSocket(Path);
  ASSERT_TRUE(Fd2.valid());
  ASSERT_TRUE(sendAll(Fd2, pingLine("alive") + "\n"));
  FdLineReader Lines(Fd2.get());
  std::optional<std::string> Line = Lines.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_TRUE(Json::parse(*Line)->find("ok")->asBool());

  // stop() drains the handler, so the orphaned solve has completed and
  // its write has been attempted (and counted) by the time it returns.
  Front.stop();
  EXPECT_GE(FrontEndStats::global().ResponsesDropped.get(),
            DroppedBefore + 1);
}

TEST(ListenerTest, PerConnectionInflightCapShedsWithRetryHint) {
  ServiceOptions Opts;
  Opts.Jobs = 1;
  SolverService Service(Opts);
  ListenerOptions LOpts;
  LOpts.Conn.MaxInflight = 1;
  LOpts.Conn.RetryAfterMsHint = 33;
  Listener Front(Service, LOpts);
  std::string Path = uniqueSocketPath("inflight");
  std::string Err;
  ASSERT_TRUE(Front.listenUnix(Path, &Err)) << Err;
  Front.start();

  OwnedFd Fd = connectUnixSocket(Path);
  ASSERT_TRUE(Fd.valid());
  // The head request occupies the single worker for its whole deadline;
  // everything behind it exceeds MaxInflight=1 and sheds connection-side.
  Json Slow = Json::object();
  Slow["id"] = "slow";
  Slow["method"] = "solve";
  Json Params = Json::object();
  Params["constraints"] = slowInstance();
  Params["deadline_ms"] = 400;
  Slow["params"] = std::move(Params);
  std::string Burst = Slow.dump(0) + "\n";
  for (int I = 0; I != 3; ++I)
    Burst += solveLine("q-" + std::to_string(I), "var v; v <= /a/;") + "\n";
  ASSERT_TRUE(sendAll(Fd, Burst));

  FdLineReader Lines(Fd.get());
  unsigned Shed = 0;
  bool SlowAnswered = false;
  for (int I = 0; I != 4; ++I) {
    std::optional<std::string> Line = Lines.readLine();
    ASSERT_TRUE(Line.has_value());
    std::optional<Json> Resp = Json::parse(*Line);
    ASSERT_TRUE(Resp.has_value()) << *Line;
    if (Resp->find("id")->asString() == "slow") {
      SlowAnswered = true;
      continue;
    }
    EXPECT_EQ(errorCodeOf(*Resp), "overloaded");
    const Json *Error = Resp->find("error");
    ASSERT_NE(Error->find("retry_after_ms"), nullptr);
    EXPECT_EQ(Error->find("retry_after_ms")->asUnsigned(), 33u);
    ++Shed;
  }
  EXPECT_TRUE(SlowAnswered);
  EXPECT_EQ(Shed, 3u);
  Front.stop();
}

TEST(ListenerTest, TcpEphemeralPortServesAndReportsBoundPort) {
  SolverService Service((ServiceOptions()));
  Listener Front(Service, ListenerOptions{});
  std::string Err;
  ASSERT_TRUE(Front.listenTcp("127.0.0.1", 0, &Err)) << Err;
  EXPECT_GT(Front.boundPort(), 0);
  Front.start();

  OwnedFd Fd = connectTcpSocket(Front.boundPort());
  ASSERT_TRUE(Fd.valid());
  ASSERT_TRUE(sendAll(Fd, pingLine("tcp") + "\n"));
  FdLineReader Lines(Fd.get());
  std::optional<std::string> Line = Lines.readLine();
  ASSERT_TRUE(Line.has_value());
  std::optional<Json> Resp = Json::parse(*Line);
  ASSERT_TRUE(Resp.has_value());
  EXPECT_EQ(Resp->find("id")->asString(), "tcp");
  EXPECT_TRUE(Resp->find("result")->find("pong")->asBool());
  Front.stop();
}

TEST(ListenerTest, ShutdownRequestOverSocketStopsRunAndUnlinksPath) {
  SolverService Service((ServiceOptions()));
  Listener Front(Service, ListenerOptions{});
  std::string Path = uniqueSocketPath("shutdown");
  std::string Err;
  ASSERT_TRUE(Front.listenUnix(Path, &Err)) << Err;
  Front.start();
  std::thread RunThread([&] { EXPECT_EQ(Front.run(), 0); });

  OwnedFd Fd = connectUnixSocket(Path);
  ASSERT_TRUE(Fd.valid());
  ASSERT_TRUE(sendAll(Fd, "{\"id\": \"bye\", \"method\": \"shutdown\"}\n"));
  FdLineReader Lines(Fd.get());
  std::optional<std::string> Ack = Lines.readLine();
  ASSERT_TRUE(Ack.has_value());
  std::optional<Json> Resp = Json::parse(*Ack);
  ASSERT_TRUE(Resp.has_value());
  EXPECT_EQ(Resp->find("id")->asString(), "bye");
  EXPECT_TRUE(Resp->find("result")->find("shutting_down")->asBool());

  RunThread.join();
  // The front end closed our connection and removed the socket file.
  EXPECT_FALSE(Lines.readLine().has_value());
  EXPECT_NE(::access(Path.c_str(), F_OK), 0);
}

//===----------------------------------------------------------------------===//
// Router: content sharding
//===----------------------------------------------------------------------===//

std::string decideLine(const Json &Id, const std::string &Lhs,
                       const std::string &Rhs) {
  Json Req = Json::object();
  Req["id"] = Id;
  Req["method"] = "decide";
  Json Params = Json::object();
  Params["query"] = "subset";
  Params["lhs"] = serializeNfa(machineFor(Lhs));
  Params["rhs"] = serializeNfa(machineFor(Rhs));
  Req["params"] = std::move(Params);
  return Req.dump(0);
}

TEST(RouterTest, StructuralRoutingIgnoresIdsAndSpreadsDistinctQueries) {
  // No start(): shardFor is a pure function of the request line, so no
  // worker processes are forked here.
  RouterOptions ROpts;
  ROpts.Shards = 4;
  Router R(ROpts);

  // Identical machines route identically whatever the id says.
  EXPECT_EQ(R.shardFor(decideLine("first", "ab*", "a(b|c)*")),
            R.shardFor(decideLine(9999, "ab*", "a(b|c)*")));
  // Same for solve: the constraint machines decide, not id or extras.
  std::string SolveA = solveLine("p", DisjunctiveInstance);
  std::optional<Json> WithRetry = Json::parse(SolveA);
  ASSERT_TRUE(WithRetry.has_value());
  (*WithRetry)["id"] = "q";
  (*WithRetry)["params"]["retry"] = 2;
  EXPECT_EQ(R.shardFor(SolveA), R.shardFor(WithRetry->dump(0)));

  // Distinct queries spread across shards (content-addressed, not all
  // funneled to one worker).
  std::set<unsigned> Used;
  for (const char *Lhs : {"a", "ab", "abc*", "(a|b)*", "ab*c", "x(y|z)"})
    Used.insert(R.shardFor(decideLine(1, Lhs, "a(b|c)*")));
  EXPECT_GE(Used.size(), 2u);
}

/// Figure 11 corpus -> up to \p MaxTotal solve request lines (id, line),
/// capped at two sink paths per file — the same instances
/// bench_service.cpp pushes through the scheduler.
std::vector<std::pair<std::string, std::string>>
corpusRequests(size_t MaxTotal) {
  using namespace dprle::miniphp;
  std::vector<std::pair<std::string, std::string>> Out;
  SymExecOptions SymOpts;
  SymOpts.TaintPrune = true;
  for (const Suite &S : figure11Suites()) {
    for (const SuiteFile &F : S.Files) {
      ParseResult P = parseProgram(F.Source);
      if (!P.Ok)
        continue;
      Program Unrolled = unrollLoops(P.Prog, 3);
      Cfg G = Cfg::build(Unrolled);
      std::vector<PathCondition> Paths =
          enumerateSinkPaths(Unrolled, G, AttackSpec::sqlQuote(), SymOpts);
      for (size_t I = 0; I != Paths.size() && I != 2; ++I) {
        std::string Id = S.Name + "/" + F.Name + "#" + std::to_string(I);
        Json Req = Json::object();
        Req["id"] = Id;
        Req["method"] = "solve";
        Json Params = Json::object();
        Params["constraints"] = Paths[I].Instance.str();
        Params["max_solutions"] = 1;
        Req["params"] = std::move(Params);
        Out.emplace_back(Id, Req.dump(0));
        if (Out.size() == MaxTotal)
          return Out;
      }
    }
  }
  return Out;
}

TEST(RouterTest, ShardedVerdictsMatchSingleProcessOnFigure11) {
  if (DPRLE_TSAN_ACTIVE)
    GTEST_SKIP() << "fork-based shard workers are incompatible with TSan";
  std::vector<std::pair<std::string, std::string>> Batch = corpusRequests(12);
  ASSERT_GE(Batch.size(), 4u);
  std::string Input;
  for (const auto &[Id, Line] : Batch)
    Input += Line + "\n";

  std::map<std::string, std::string> Reference;
  {
    std::istringstream In(Input);
    std::ostringstream Out;
    SolverService Single((ServiceOptions()));
    ASSERT_EQ(Single.serve(In, Out), 0);
    for (const Json &Resp : responsesOf(Out.str()))
      Reference[Resp.find("id")->asString()] = verdictKey(Resp);
  }
  ASSERT_EQ(Reference.size(), Batch.size());

  RouterOptions ROpts;
  ROpts.Shards = 3;
  Router R(ROpts);
  std::string Err;
  ASSERT_TRUE(R.start(&Err)) << Err;
  std::istringstream In(Input);
  std::ostringstream Out;
  EXPECT_EQ(serveStreams(R, In, Out), 0);
  std::map<std::string, std::string> Sharded;
  for (const Json &Resp : responsesOf(Out.str()))
    Sharded[Resp.find("id")->asString()] = verdictKey(Resp);
  R.stop();
  EXPECT_EQ(Sharded, Reference);
}

TEST(RouterTest, FanOutAggregatesAndRepeatQueriesHitTheWarmShardCache) {
  if (DPRLE_TSAN_ACTIVE)
    GTEST_SKIP() << "fork-based shard workers are incompatible with TSan";
  RouterOptions ROpts;
  ROpts.Shards = 2;
  Router R(ROpts);
  std::string Err;
  ASSERT_TRUE(R.start(&Err)) << Err;

  // Structurally identical decides pin to one shard by construction...
  std::string D1 = decideLine("d-1", "zq*x", "z(q|r)*x");
  std::string D2 = decideLine("d-2", "zq*x", "z(q|r)*x");
  EXPECT_EQ(R.shardFor(D1), R.shardFor(D2));

  std::string Input = "{\"id\": \"s0\", \"method\": \"stats\"}\n" + D1 +
                      "\n" + D2 + "\n" + pingLine("p") + "\n" +
                      "{\"id\": \"s1\", \"method\": \"stats\"}\n";
  std::istringstream In(Input);
  std::ostringstream Out;
  EXPECT_EQ(serveStreams(R, In, Out), 0);
  std::map<std::string, Json> ById;
  for (const Json &Resp : responsesOf(Out.str()))
    ById[Resp.find("id")->asString()] = Resp;
  R.stop();
  ASSERT_EQ(ById.size(), 5u);

  // Both decides are answered identically (the repeat from cache).
  const Json *V1 = resultOf(ById["d-1"]);
  const Json *V2 = resultOf(ById["d-2"]);
  ASSERT_NE(V1, nullptr);
  ASSERT_NE(V2, nullptr);
  EXPECT_EQ(V1->find("answer")->dump(0), V2->find("answer")->dump(0));

  // ping aggregates shard health across the fleet.
  const Json *Pong = resultOf(ById["p"]);
  ASSERT_NE(Pong, nullptr);
  EXPECT_TRUE(Pong->find("pong")->asBool());
  EXPECT_EQ(Pong->find("shards")->asUnsigned(), 2u);
  EXPECT_EQ(Pong->find("healthy_shards")->asUnsigned(), 2u);

  // ... and the warm shard cache proves it: between the two aggregated
  // stats snapshots the only decide traffic was d-1 (miss) and d-2,
  // which must have hit the cache its twin populated.
  auto Counter = [&](const char *Id, const char *Name) -> uint64_t {
    const Json *C = ById[Id].find("result")->find("counters")->find(Name);
    return C && C->isNumber() ? C->asUnsigned() : 0;
  };
  EXPECT_EQ(Counter("s1", "decide.cache_hits"),
            Counter("s0", "decide.cache_hits") + 1);
  EXPECT_GE(Counter("s1", "decide.cache_misses"),
            Counter("s0", "decide.cache_misses") + 1);

  // stats carries the router's own aggregation section.
  const Json *RouterSec = ById["s1"].find("result")->find("router");
  ASSERT_NE(RouterSec, nullptr);
  EXPECT_EQ(RouterSec->find("shards")->asUnsigned(), 2u);
  EXPECT_EQ(RouterSec->find("healthy_shards")->asUnsigned(), 2u);
  EXPECT_GE(ById["s1"].find("result")->find("decision_cache")
                ->find("answers")->asUnsigned(),
            1u);
}

TEST(RouterTest, ShutdownFansOutAndAcksExactlyOnce) {
  if (DPRLE_TSAN_ACTIVE)
    GTEST_SKIP() << "fork-based shard workers are incompatible with TSan";
  RouterOptions ROpts;
  ROpts.Shards = 2;
  Router R(ROpts);
  std::string Err;
  ASSERT_TRUE(R.start(&Err)) << Err;

  std::istringstream In(solveLine("work", "var v; v <= /ab*/;") + "\n" +
                        "{\"id\": \"bye\", \"method\": \"shutdown\"}\n" +
                        pingLine("after") + "\n");
  std::ostringstream Out;
  EXPECT_EQ(serveStreams(R, In, Out), 0);
  R.stop();

  std::map<std::string, Json> ById;
  for (const Json &Resp : responsesOf(Out.str()))
    ById[Resp.find("id")->asString()] = Resp;
  // The in-flight solve was answered before the single shutdown ack; the
  // request behind the shutdown was never read (the loop stopped).
  ASSERT_EQ(ById.size(), 2u);
  EXPECT_NE(resultOf(ById["work"]), nullptr);
  EXPECT_TRUE(ById["bye"].find("result")->find("shutting_down")->asBool());
  EXPECT_EQ(ById.count("after"), 0u);
}

//===----------------------------------------------------------------------===//
// Router: session affinity and crash behaviour
//===----------------------------------------------------------------------===//

/// One session-verb line carrying \p Sid.
std::string sessionVerbLine(const char *Method, const std::string &Sid) {
  Json Req = sessionReq("x", Method);
  Req["params"]["session"] = Sid;
  if (std::string(Method) == "session_push")
    Req["params"]["constraints"] = "var q; q <= /a/;";
  return Req.dump(0);
}

TEST(RouterTest, SessionVerbsPinToOneShardBySessionId) {
  // shardFor is pure; no worker fleet needed.
  RouterOptions ROpts;
  ROpts.Shards = 4;
  Router R(ROpts);

  // Every verb of one session lands on the same shard — that shard holds
  // the session state, so affinity is correctness, not just cache warmth.
  unsigned Home = R.shardFor(sessionVerbLine("session_open", "alpha"));
  for (const char *Method : {"session_push", "session_pop", "session_check",
                             "session_close"})
    EXPECT_EQ(R.shardFor(sessionVerbLine(Method, "alpha")), Home) << Method;

  // Distinct sessions spread across the fleet.
  std::set<unsigned> Used;
  for (const char *Sid : {"a", "b", "c", "d", "e", "f", "g", "h"})
    Used.insert(R.shardFor(sessionVerbLine("session_check", Sid)));
  EXPECT_GE(Used.size(), 2u);
}

TEST(RouterTest, RoutingCompilesNothingAndReadsOnlyTheConstraintText) {
  // shardFor is pure; no worker fleet needed.
  RouterOptions ROpts;
  ROpts.Shards = 4;
  Router R(ROpts);

  // A `~` whose compile determinizes ~2^13 states: routing it must move
  // no automata counter — the worker alone compiles.
  const std::string Hostile = "var x; x <= /~((a|b)*a(a|b){12})/;";
  StatsRegistry::Snapshot Before = StatsRegistry::global().snapshot();
  unsigned Home = R.shardFor(solveLine("h", Hostile));
  for (const auto &[Name, Delta] : StatsRegistry::delta(
           Before, StatsRegistry::global().snapshot()))
    EXPECT_TRUE(Name.rfind("automata.", 0) != 0 || Delta == 0)
        << Name << " moved by " << Delta;

  // The constraints string alone picks the shard: id, retry, deadline_ms
  // and max_solutions do not.
  std::optional<Json> Variant = Json::parse(solveLine("h", Hostile));
  ASSERT_TRUE(Variant.has_value());
  (*Variant)["id"] = 77;
  (*Variant)["params"]["retry"] = 3;
  (*Variant)["params"]["deadline_ms"] = 300;
  (*Variant)["params"]["max_solutions"] = 2;
  EXPECT_EQ(R.shardFor(Variant->dump(0)), Home);
}

TEST(RouterTest, IdlessSessionOpenIsAnsweredByTheRouter) {
  // No start(): the router answers before any worker is involved. Each
  // worker coins ids from its own counter, so an id-less open behind a
  // router would hand two clients the same session id.
  RouterOptions ROpts;
  ROpts.Shards = 2;
  Router R(ROpts);
  uint64_t ForwardedBefore = counterValue("service.router_forwarded");
  for (const char *Line :
       {"{\"id\": 1, \"method\": \"session_open\"}",
        "{\"id\": 2, \"method\": \"session_open\", \"params\": "
        "{\"constraints\": \"var v; v <= /a/;\"}}",
        "{\"id\": 3, \"method\": \"session_open\", \"params\": "
        "{\"session\": \"\"}}",
        "{\"id\": 4, \"method\": \"session_open\", \"params\": "
        "{\"session\": 7}}"}) {
    std::optional<Json> Answer;
    EXPECT_EQ(R.submitLine(Line, [&](const Json &Resp) { Answer = Resp; }),
              LineHandler::Submit::Accepted);
    ASSERT_TRUE(Answer.has_value()) << Line;
    EXPECT_EQ(errorCodeOf(*Answer), "invalid_params") << Line;
  }
  EXPECT_EQ(counterValue("service.router_forwarded"), ForwardedBefore);
}

/// Submits one line and blocks for its response.
Json askRouter(Router &R, const std::string &Line) {
  auto P = std::make_shared<std::promise<Json>>();
  std::future<Json> F = P->get_future();
  EXPECT_EQ(R.submitLine(Line, [P](const Json &Resp) { P->set_value(Resp); }),
            LineHandler::Submit::Accepted);
  return F.get();
}

/// askRouter, retrying `overloaded` sheds (the crash-window answer while
/// a killed worker restarts).
Json askRouterRetrying(Router &R, const std::string &Line) {
  for (int Attempt = 0;; ++Attempt) {
    Json Resp = askRouter(R, Line);
    const Json *Ok = Resp.find("ok");
    if (Ok && Ok->isBool() && !Ok->asBool() && Attempt < 200) {
      const Json *Error = Resp.find("error");
      const Json *Code = Error ? Error->find("code") : nullptr;
      if (Code && Code->isString() && Code->asString() == "overloaded") {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
    }
    return Resp;
  }
}

TEST(RouterTest, SessionSurvivesUnrelatedShardRestartDiesWithItsOwn) {
  if (DPRLE_TSAN_ACTIVE)
    GTEST_SKIP() << "fork-based shard workers are incompatible with TSan";
  RouterOptions ROpts;
  ROpts.Shards = 2;
  Router R(ROpts);
  std::string Err;
  ASSERT_TRUE(R.start(&Err)) << Err;

  const std::string Sid = "pinned";
  Json Open = sessionReq("open", "session_open");
  Open["params"]["session"] = Sid;
  Open["params"]["constraints"] = "var v; v <= /ab*/;";
  unsigned Own = R.shardFor(Open.dump(0));
  unsigned Other = (Own + 1) % ROpts.Shards;
  ASSERT_NE(resultOf(askRouter(R, Open.dump(0))), nullptr);

  // Kill the *unrelated* worker; the supervisor forks a replacement.
  pid_t Victim = R.shardPid(Other);
  ASSERT_GT(Victim, 0);
  ASSERT_EQ(::kill(Victim, SIGKILL), 0);
  for (int I = 0; I != 500 && R.shardPid(Other) == Victim; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_NE(R.shardPid(Other), Victim) << "shard was not restarted";

  // The session lives on its own, untouched shard.
  Json Checked =
      askRouterRetrying(R, sessionVerbLine("session_check", Sid));
  const Json *CheckResult = resultOf(Checked);
  ASSERT_NE(CheckResult, nullptr);
  EXPECT_TRUE(CheckResult->find("satisfiable")->asBool());

  // Kill the session's own worker: its replacement is cold, so the
  // session is reported lost — a structured answer, not a crash or hang.
  pid_t OwnPid = R.shardPid(Own);
  ASSERT_GT(OwnPid, 0);
  ASSERT_EQ(::kill(OwnPid, SIGKILL), 0);
  for (int I = 0; I != 500 && R.shardPid(Own) == OwnPid; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_NE(R.shardPid(Own), OwnPid) << "shard was not restarted";

  Json Lost = askRouterRetrying(R, sessionVerbLine("session_check", Sid));
  EXPECT_EQ(errorCodeOf(Lost), "session_lost");
  R.stop();
}

TEST(RouterTest, HealthFansOutAndMergesSupervisorView) {
  if (DPRLE_TSAN_ACTIVE)
    GTEST_SKIP() << "fork-based shard workers are incompatible with TSan";
  RouterOptions ROpts;
  ROpts.Shards = 2;
  Router R(ROpts);
  std::string Err;
  ASSERT_TRUE(R.start(&Err)) << Err;

  Json Resp = askRouter(R, "{\"id\": \"h\", \"method\": \"health\"}");
  const Json *Result = resultOf(Resp);
  ASSERT_NE(Result, nullptr);
  EXPECT_TRUE(Result->find("healthy")->asBool());
  EXPECT_EQ(Result->find("shards")->asUnsigned(), 2u);
  EXPECT_EQ(Result->find("healthy_shards")->asUnsigned(), 2u);
  const Json *Per = Result->find("per_shard");
  ASSERT_NE(Per, nullptr);
  ASSERT_EQ(Per->size(), 2u);
  for (size_t I = 0; I != Per->size(); ++I) {
    const Json &E = Per->at(I);
    EXPECT_EQ(E.find("shard")->asUnsigned(), I);
    EXPECT_TRUE(E.find("alive")->asBool());
    EXPECT_GT(E.find("pid")->asUnsigned(), 0u);
    EXPECT_EQ(E.find("restarts")->asUnsigned(), 0u);
    ASSERT_NE(E.find("uptime_ms"), nullptr);
    // The worker's self-report is merged under "worker".
    const Json *W = E.find("worker");
    ASSERT_NE(W, nullptr) << "shard " << I << " did not self-report";
    EXPECT_TRUE(W->find("healthy")->asBool());
    ASSERT_NE(W->find("inflight"), nullptr);
  }
  const Json *Wd = Result->find("watchdog");
  ASSERT_NE(Wd, nullptr);
  EXPECT_FALSE(Wd->find("enabled")->asBool());
  ASSERT_NE(Wd->find("probes"), nullptr);
  ASSERT_NE(Wd->find("sigterms"), nullptr);
  ASSERT_NE(Wd->find("sigkills"), nullptr);
  R.stop();
}

TEST(RouterTest, StatsReportPerShardRestartsUptimeAndJournal) {
  if (DPRLE_TSAN_ACTIVE)
    GTEST_SKIP() << "fork-based shard workers are incompatible with TSan";
  std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("dprle_router_stats_" + std::to_string(::getpid()));
  std::filesystem::create_directories(Dir);
  RouterOptions ROpts;
  ROpts.Shards = 2;
  ROpts.JournalDir = Dir.string();
  Router R(ROpts);
  std::string Err;
  ASSERT_TRUE(R.start(&Err)) << Err;

  // A journaled session so the workers have journal positions to report.
  ASSERT_NE(resultOf(askRouter(R, sessionVerbLine("session_open", "s"))),
            nullptr);

  Json Resp = askRouter(R, "{\"id\": \"s\", \"method\": \"stats\"}");
  const Json *Result = resultOf(Resp);
  ASSERT_NE(Result, nullptr);
  const Json *Router_ = Result->find("router");
  ASSERT_NE(Router_, nullptr);
  const Json *Per = Router_->find("per_shard");
  ASSERT_NE(Per, nullptr);
  ASSERT_EQ(Per->size(), 2u);
  uint64_t JournaledShards = 0;
  for (size_t I = 0; I != Per->size(); ++I) {
    const Json &E = Per->at(I);
    EXPECT_EQ(E.find("shard")->asUnsigned(), I);
    EXPECT_TRUE(E.find("alive")->asBool());
    EXPECT_EQ(E.find("restarts")->asUnsigned(), 0u);
    ASSERT_NE(E.find("uptime_ms"), nullptr);
    const Json *Jn = E.find("journal");
    ASSERT_NE(Jn, nullptr) << "shard " << I;
    EXPECT_TRUE(Jn->find("enabled")->asBool());
    if (Jn->find("records")->asUnsigned() > 0)
      ++JournaledShards;
  }
  // Exactly the session's home shard journaled the open.
  EXPECT_EQ(JournaledShards, 1u);
  // Worker journal counters fan into the summed counter section.
  const Json *Counters = Result->find("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_NE(Counters->find("journal.appends"), nullptr);
  EXPECT_GE(Counters->find("journal.appends")->asUnsigned(), 1u);
  R.stop();
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
}

TEST(RouterTest, SigkillDuringInflightCheckYieldsExactlyOneReply) {
  if (DPRLE_TSAN_ACTIVE)
    GTEST_SKIP() << "fork-based shard workers are incompatible with TSan";
  // The crash race of docs/ROBUSTNESS.md: a worker SIGKILLed while its
  // session_check response may be in flight. Whatever side of the race
  // wins, the client sees exactly one well-formed reply per request —
  // either the real result or a structured retryable error, never two
  // callbacks, never silence, never a torn frame.
  RouterOptions ROpts;
  ROpts.Shards = 2;
  Router R(ROpts);
  std::string Err;
  ASSERT_TRUE(R.start(&Err)) << Err;

  const std::string Sid = "raced";
  Json Open = sessionReq("open", "session_open");
  Open["params"]["session"] = Sid;
  Open["params"]["constraints"] = "var v; var w; v . w <= /ab|ba/;";
  unsigned Own = R.shardFor(Open.dump(0));
  ASSERT_NE(resultOf(askRouter(R, Open.dump(0))), nullptr);

  for (int Round = 0; Round != 8; ++Round) {
    auto Count = std::make_shared<std::atomic<unsigned>>(0);
    auto P = std::make_shared<std::promise<Json>>();
    std::future<Json> F = P->get_future();
    ASSERT_EQ(R.submitLine(sessionVerbLine("session_check", Sid),
                           [Count, P](const Json &Resp) {
                             if (Count->fetch_add(1) == 0)
                               P->set_value(Resp);
                           }),
              LineHandler::Submit::Accepted);
    // Kill the session's shard while the check is (possibly) in flight;
    // vary the race window across rounds.
    if (Round % 2)
      std::this_thread::sleep_for(std::chrono::microseconds(50 * Round));
    pid_t Victim = R.shardPid(Own);
    if (Victim > 0)
      ::kill(Victim, SIGKILL);

    ASSERT_EQ(F.wait_for(std::chrono::seconds(60)),
              std::future_status::ready)
        << "round " << Round << ": reply never arrived";
    Json Resp = F.get();
    const Json *Ok = Resp.find("ok");
    ASSERT_TRUE(Ok && Ok->isBool()) << Resp.dump(0);
    if (!Ok->asBool()) {
      // Structured loss: overloaded (orphaned mid-crash) or
      // session_lost (the cold replacement answered) — both well-formed.
      std::string Code =
          Resp.find("error")->find("code")->asString();
      EXPECT_TRUE(Code == "overloaded" || Code == "session_lost") << Code;
    }
    // Give any duplicate callback a beat to fire, then pin exactly-once.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(Count->load(), 1u) << "round " << Round;

    // Wait out the restart, then re-pin the session for the next round
    // (journaling is off here, so the replacement may have lost it).
    for (int I = 0; I != 500 && R.shardPid(Own) <= 0; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Json Reopen = askRouterRetrying(R, Open.dump(0));
    const Json *ReOk = Reopen.find("ok");
    ASSERT_TRUE(ReOk && ReOk->isBool());
    if (!ReOk->asBool()) {
      // Already open: the check raced ahead of the kill and the session
      // survived in the old worker's replacement... then it must still
      // answer checks.
      EXPECT_EQ(errorCodeOf(Reopen), "invalid_params");
    }
  }
  R.stop();
}

} // namespace
