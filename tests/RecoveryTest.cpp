//===- RecoveryTest.cpp - Durable-session crash-recovery tests ----------------//
//
// Covers the durability layer of src/service/ (docs/ROBUSTNESS.md):
//   * Journal — on-disk round-trip, torn-tail / CRC / bad-JSON replay
//     stops, size-triggered compaction, fault sites;
//   * SolverService recovery — journal replay rebuilds the session table
//     with bit-identical verdicts, `recovered: true` exactly once;
//   * randomized crash-replay differential trajectories vs an
//     uninterrupted control service;
//   * Router — SIGKILL'd shard replays its journal so pinned sessions
//     survive; the hang watchdog escalates probe → SIGTERM → SIGKILL on
//     a FakeClock;
//   * SIGTERM/SIGINT graceful drain (Signals.h).
//
//===----------------------------------------------------------------------===//

#include "service/Journal.h"

#include "service/FdIo.h"
#include "service/Router.h"
#include "service/Service.h"
#include "service/Signals.h"
#include "support/Clock.h"
#include "support/FaultInjector.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

// fork()-based tests are incompatible with ThreadSanitizer (TSan does
// not follow forks of multithreaded processes); they skip there.
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

/// A throwaway directory for journal files, removed on scope exit.
struct TempDir {
  std::filesystem::path Path;
  TempDir() {
    Path = std::filesystem::temp_directory_path() /
           ("dprle_recovery_" + std::to_string(::getpid()) + "_" +
            std::to_string(Counter++));
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string file(const std::string &Name) const {
    return (Path / Name).string();
  }
  static unsigned Counter;
};
unsigned TempDir::Counter = 0;

uint64_t counterValue(const char *Name) {
  for (const auto &[N, V] : StatsRegistry::global().snapshot())
    if (N == Name)
      return V;
  ADD_FAILURE() << "counter " << Name << " is not registered";
  return 0;
}

/// Restores a disarmed injector whatever the test body does.
struct FaultScope {
  explicit FaultScope(const std::string &Spec) {
    EXPECT_TRUE(FaultInjector::global().arm(Spec)) << Spec;
  }
  ~FaultScope() { FaultInjector::global().disarm(); }
};

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

/// A session-verb request skeleton; callers fill in params.
Json sessionReq(const Json &Id, const std::string &Method) {
  Json Req = Json::object();
  Req["id"] = Id;
  Req["method"] = Method;
  Req["params"] = Json::object();
  return Req;
}

/// Issues one session verb against \p Service and returns the response.
Json verb(SolverService &Service, const std::string &Method,
          const std::string &Sid, const std::string &Constraints = "") {
  Json Req = sessionReq("t", Method);
  if (!Sid.empty())
    Req["params"]["session"] = Sid;
  if (!Constraints.empty())
    Req["params"]["constraints"] = Constraints;
  return Service.handleLine(Req.dump(0));
}

//===----------------------------------------------------------------------===//
// Journal: on-disk format
//===----------------------------------------------------------------------===//

TEST(JournalTest, AppendReplayRoundTrip) {
  TempDir Tmp;
  std::vector<JournalRecord> Written = {
      {"open", "s1", "var v; v <= /ab*/;", 0},
      {"push", "s1", "v <= /a/;", 0},
      {"open", "alpha", "", 7},
      {"pop", "s1", "", 0},
      {"close", "alpha", "", 0},
  };
  {
    Journal::Options Opts;
    Opts.Path = Tmp.file("j");
    Journal J(Opts);
    std::string Err;
    ASSERT_TRUE(J.open(&Err)) << Err;
    for (const JournalRecord &R : Written)
      ASSERT_TRUE(J.append(R));
    EXPECT_EQ(J.records(), Written.size());
    EXPECT_GT(J.bytes(), 0u);
    // No fsync policy: every append grows the durability lag.
    EXPECT_EQ(J.lagRecords(), Written.size());
  }
  uint64_t Bad = 0;
  std::vector<JournalRecord> Read = Journal::replay(Tmp.file("j"), &Bad);
  EXPECT_EQ(Bad, 0u);
  ASSERT_EQ(Read.size(), Written.size());
  for (size_t I = 0; I != Written.size(); ++I)
    EXPECT_TRUE(Read[I] == Written[I]) << "record " << I;
}

TEST(JournalTest, FsyncPolicyKeepsLagAtZero) {
  TempDir Tmp;
  Journal::Options Opts;
  Opts.Path = Tmp.file("j");
  Opts.Fsync = true;
  Journal J(Opts);
  std::string Err;
  ASSERT_TRUE(J.open(&Err)) << Err;
  uint64_t Fsyncs = counterValue("journal.fsyncs");
  ASSERT_TRUE(J.append({"open", "s1", "", 0}));
  ASSERT_TRUE(J.append({"close", "s1", "", 0}));
  EXPECT_EQ(J.lagRecords(), 0u);
  EXPECT_EQ(counterValue("journal.fsyncs"), Fsyncs + 2);
}

TEST(JournalTest, MissingFileReplaysEmpty) {
  TempDir Tmp;
  uint64_t Bad = 0;
  EXPECT_TRUE(Journal::replay(Tmp.file("never-written"), &Bad).empty());
  EXPECT_EQ(Bad, 0u);
}

TEST(JournalTest, ReplayStopsCleanlyAtTornTail) {
  TempDir Tmp;
  {
    Journal::Options Opts;
    Opts.Path = Tmp.file("j");
    Journal J(Opts);
    ASSERT_TRUE(J.open(nullptr));
    ASSERT_TRUE(J.append({"open", "s1", "var v; v <= /a/;", 0}));
    ASSERT_TRUE(J.append({"push", "s1", "v <= /a/;", 0}));
  }
  // A crash mid-write leaves a header promising more bytes than exist.
  {
    std::ofstream F(Tmp.file("j"), std::ios::app | std::ios::binary);
    F << "000000ff deadbeef {\"op\":\"close\"";
  }
  uint64_t Bad = 0;
  std::vector<JournalRecord> Read = Journal::replay(Tmp.file("j"), &Bad);
  ASSERT_EQ(Read.size(), 2u);
  EXPECT_EQ(Read[1].Op, "push");
  EXPECT_EQ(Bad, 1u);
}

TEST(JournalTest, ReplayStopsCleanlyAtCrcMismatch) {
  TempDir Tmp;
  {
    Journal::Options Opts;
    Opts.Path = Tmp.file("j");
    Journal J(Opts);
    ASSERT_TRUE(J.open(nullptr));
    ASSERT_TRUE(J.append({"open", "s1", "var v; v <= /a/;", 0}));
    ASSERT_TRUE(J.append({"open", "s2", "var w; w <= /b/;", 0}));
    ASSERT_TRUE(J.append({"close", "s2", "", 0}));
  }
  // Flip one payload byte of the second record: bit rot. The length
  // prefix still matches, so only the CRC can catch it.
  std::string Text;
  {
    std::ifstream F(Tmp.file("j"), std::ios::binary);
    std::ostringstream Buf;
    Buf << F.rdbuf();
    Text = Buf.str();
  }
  size_t Second = Text.find("s2");
  ASSERT_NE(Second, std::string::npos);
  Text[Second + 1] = '3';
  {
    std::ofstream F(Tmp.file("j"), std::ios::binary | std::ios::trunc);
    F << Text;
  }
  uint64_t Bad = 0;
  std::vector<JournalRecord> Read = Journal::replay(Tmp.file("j"), &Bad);
  // Everything before the rotten record is recovered; nothing after it
  // is trusted (the close record is not replayed).
  ASSERT_EQ(Read.size(), 1u);
  EXPECT_EQ(Read[0].Session, "s1");
  EXPECT_EQ(Bad, 1u);
}

TEST(JournalTest, CompactionRewritesToSnapshotAndShrinksFile) {
  TempDir Tmp;
  Journal::Options Opts;
  Opts.Path = Tmp.file("j");
  Opts.CompactBytes = 256;
  Journal J(Opts);
  ASSERT_TRUE(J.open(nullptr));
  ASSERT_TRUE(J.append({"open", "s1", "var v; v <= /ab*/;", 0}));
  for (int I = 0; I != 40; ++I) {
    ASSERT_TRUE(J.append({"push", "s1", "v <= /a*/;", 0}));
    ASSERT_TRUE(J.append({"pop", "s1", "", 0}));
  }
  ASSERT_TRUE(J.needsCompaction());
  uint64_t Before = J.bytes();

  // The owner's live state is one session with one open frame.
  std::vector<JournalRecord> Snapshot = {
      {"open", "s1", "var v; v <= /ab*/;", 0},
      {"push", "s1", "v <= /a*/;", 0},
  };
  std::string Err;
  ASSERT_TRUE(J.rewrite(Snapshot, &Err)) << Err;
  EXPECT_LT(J.bytes(), Before);
  EXPECT_EQ(J.records(), Snapshot.size());
  EXPECT_EQ(J.compactions(), 1u);
  EXPECT_FALSE(J.needsCompaction());

  // The rewrite is what a recovering service reads back.
  uint64_t Bad = 0;
  std::vector<JournalRecord> Read = Journal::replay(Opts.Path, &Bad);
  EXPECT_EQ(Bad, 0u);
  ASSERT_EQ(Read.size(), 2u);
  EXPECT_TRUE(Read[0] == Snapshot[0]);
  EXPECT_TRUE(Read[1] == Snapshot[1]);

  // And the journal keeps accepting appends on the fresh inode.
  ASSERT_TRUE(J.append({"pop", "s1", "", 0}));
  EXPECT_EQ(Journal::replay(Opts.Path).size(), 3u);
}

TEST(JournalTest, WriteFaultIsCountedAndNonFatal) {
  TempDir Tmp;
  Journal::Options Opts;
  Opts.Path = Tmp.file("j");
  Journal J(Opts);
  ASSERT_TRUE(J.open(nullptr));
  uint64_t Failures = counterValue("journal.write_failures");
  {
    FaultScope Fault("journal.write:1");
    EXPECT_FALSE(J.append({"open", "s1", "", 0}));
  }
  EXPECT_EQ(counterValue("journal.write_failures"), Failures + 1);
  // The next append lands normally.
  EXPECT_TRUE(J.append({"open", "s2", "", 0}));
  ASSERT_EQ(Journal::replay(Opts.Path).size(), 1u);
}

//===----------------------------------------------------------------------===//
// SolverService: crash recovery by replay
//===----------------------------------------------------------------------===//

/// The assignments a check reports — the bit-identical payload the
/// differential tests compare.
std::string assignmentsOf(const Json &CheckResp) {
  const Json *Result = resultOf(CheckResp);
  if (!Result)
    return "<error>";
  const Json *A = Result->find("assignments");
  return A ? A->dump(0) : Result->find("satisfiable")->dump(0);
}

TEST(RecoveryTest, ServiceRebuildsJournaledSessionsWithIdenticalVerdicts) {
  TempDir Tmp;
  ServiceOptions Opts;
  Opts.JournalPath = Tmp.file("svc.journal");

  std::string Control;
  {
    SolverService Service(Opts);
    const Json *Open = resultOf(
        verb(Service, "session_open", "pinned", "var v; var w; v . w <= /ab|ba/;"));
    ASSERT_NE(Open, nullptr);
    ASSERT_NE(resultOf(verb(Service, "session_push", "pinned", "v <= /ab*/;")),
              nullptr);
    Control = assignmentsOf(verb(Service, "session_check", "pinned"));
    // The service dies here with the session open: no close record.
  }

  // A fresh service on the same journal replays open+push and resolves
  // the pinned id — PR 9 semantics would have answered session_lost.
  uint64_t Replays = counterValue("recovery.replays");
  SolverService Reborn(Opts);
  EXPECT_EQ(counterValue("recovery.replays"), Replays + 1);
  Json First = verb(Reborn, "session_check", "pinned");
  const Json *R1 = resultOf(First);
  ASSERT_NE(R1, nullptr);
  EXPECT_EQ(assignmentsOf(First), Control);
  const Json *S1 = R1->find("session");
  ASSERT_NE(S1, nullptr);
  EXPECT_EQ(S1->find("depth")->asUnsigned(), 1u);
  // The one-shot annotation: recovered on the first check, gone after.
  ASSERT_NE(S1->find("recovered"), nullptr);
  EXPECT_TRUE(S1->find("recovered")->asBool());
  Json Second = verb(Reborn, "session_check", "pinned");
  const Json *R2 = resultOf(Second);
  ASSERT_NE(R2, nullptr);
  EXPECT_EQ(R2->find("session")->find("recovered"), nullptr);

  // The replayed frame stack still pops back to the base constraints.
  ASSERT_NE(resultOf(verb(Reborn, "session_pop", "pinned")), nullptr);
  Json Third = verb(Reborn, "session_check", "pinned");
  const Json *R3 = resultOf(Third);
  ASSERT_NE(R3, nullptr);
  EXPECT_TRUE(R3->find("satisfiable")->asBool());
}

TEST(RecoveryTest, ClosedSessionsStayClosedAcrossReplay) {
  TempDir Tmp;
  ServiceOptions Opts;
  Opts.JournalPath = Tmp.file("svc.journal");
  {
    SolverService Service(Opts);
    ASSERT_NE(resultOf(verb(Service, "session_open", "keep",
                            "var v; v <= /a*/;")),
              nullptr);
    ASSERT_NE(resultOf(verb(Service, "session_open", "gone",
                            "var w; w <= /b*/;")),
              nullptr);
    ASSERT_NE(resultOf(verb(Service, "session_close", "gone")), nullptr);
  }
  SolverService Reborn(Opts);
  EXPECT_NE(resultOf(verb(Reborn, "session_check", "keep")), nullptr);
  EXPECT_EQ(errorCodeOf(verb(Reborn, "session_check", "gone")),
            "session_lost");
}

TEST(RecoveryTest, RecoveredServiceCoinsFreshIdsPastReplayedOnes) {
  TempDir Tmp;
  ServiceOptions Opts;
  Opts.JournalPath = Tmp.file("svc.journal");
  std::string Coined;
  {
    SolverService Service(Opts);
    Json OpenResp = verb(Service, "session_open", "");
    const Json *Open = resultOf(OpenResp);
    ASSERT_NE(Open, nullptr);
    Coined = Open->find("session")->asString();
  }
  SolverService Reborn(Opts);
  Json OpenResp = verb(Reborn, "session_open", "");
  const Json *Open = resultOf(OpenResp);
  ASSERT_NE(Open, nullptr);
  // The replayed session survives AND the new open got a distinct id.
  EXPECT_NE(Open->find("session")->asString(), Coined);
  EXPECT_NE(resultOf(verb(Reborn, "session_check", Coined)), nullptr);
}

TEST(RecoveryTest, ReplayRunsUnderTheLiveBudgetAndFailsATrippedSession) {
  // A journaled push whose `~` determinizes ~2^19 states: replay parses
  // it under the server caps a live push would get, trips, and fails that
  // session instead of rebuilding it without bound.
  TempDir Tmp;
  ServiceOptions Opts;
  Opts.JournalPath = Tmp.file("svc.journal");
  Opts.MaxStatesBudget = 20000;
  {
    Journal::Options JO;
    JO.Path = Opts.JournalPath;
    Journal J(JO);
    std::string Err;
    ASSERT_TRUE(J.open(&Err)) << Err;
    ASSERT_TRUE(J.append({"open", "hostile", "var x; x <= /c/;", 0}));
    ASSERT_TRUE(
        J.append({"push", "hostile", "x <= /~((a|b)*a(a|b){18})/;", 0}));
    ASSERT_TRUE(J.append({"open", "plain", "var v; v <= /a*/;", 0}));
  }
  uint64_t FailedBefore = counterValue("recovery.failed_sessions");
  SolverService Reborn(Opts);
  EXPECT_EQ(counterValue("recovery.failed_sessions"), FailedBefore + 1);
  EXPECT_EQ(errorCodeOf(verb(Reborn, "session_check", "hostile")),
            "session_lost");
  // The budget leaves a session that fits it alone.
  EXPECT_NE(resultOf(verb(Reborn, "session_check", "plain")), nullptr);
}

TEST(RecoveryTest, JournalingOffKeepsSessionLostSemantics) {
  // No JournalPath: a restart loses every session, exactly as before.
  ServiceOptions Opts;
  {
    SolverService Service(Opts);
    ASSERT_NE(resultOf(verb(Service, "session_open", "ephemeral",
                            "var v; v <= /a/;")),
              nullptr);
  }
  SolverService Reborn(Opts);
  EXPECT_EQ(errorCodeOf(verb(Reborn, "session_check", "ephemeral")),
            "session_lost");
}

TEST(RecoveryTest, InlineCompactionKeepsReplayExact) {
  TempDir Tmp;
  ServiceOptions Opts;
  Opts.JournalPath = Tmp.file("svc.journal");
  Opts.JournalCompactBytes = 512; // force many inline compactions
  std::string Control;
  {
    SolverService Service(Opts);
    ASSERT_NE(resultOf(verb(Service, "session_open", "busy",
                            "var v; v <= /ab*/;")),
              nullptr);
    // Churn far past the threshold; compaction keeps only live state.
    for (int I = 0; I != 30; ++I) {
      ASSERT_NE(resultOf(verb(Service, "session_push", "busy", "v <= /a*/;")),
                nullptr);
      ASSERT_NE(resultOf(verb(Service, "session_pop", "busy")), nullptr);
    }
    ASSERT_NE(resultOf(verb(Service, "session_push", "busy", "v <= /ab/;")),
              nullptr);
    Control = assignmentsOf(verb(Service, "session_check", "busy"));
  }
  EXPECT_GT(counterValue("journal.compactions"), 0u);
  // The compacted journal is tiny (live state, not 60 churn records)...
  std::vector<JournalRecord> Tail = Journal::replay(Opts.JournalPath);
  EXPECT_LE(Tail.size(), 8u);
  // ... and still replays to the exact same state.
  SolverService Reborn(Opts);
  EXPECT_EQ(assignmentsOf(verb(Reborn, "session_check", "busy")), Control);
}

TEST(RecoveryTest, ReplayFaultDegradesToPrefixNotCorruption) {
  TempDir Tmp;
  ServiceOptions Opts;
  Opts.JournalPath = Tmp.file("svc.journal");
  {
    SolverService Service(Opts);
    ASSERT_NE(resultOf(verb(Service, "session_open", "first",
                            "var v; v <= /a/;")),
              nullptr);
    ASSERT_NE(resultOf(verb(Service, "session_open", "second",
                            "var w; w <= /b/;")),
              nullptr);
  }
  {
    FaultScope Fault("journal.replay:1");
    SolverService Reborn(Opts);
    // Replay was cut after the first record: the first session came
    // back, the second answers a structured session_lost — not a crash,
    // not a half-built session.
    EXPECT_NE(resultOf(verb(Reborn, "session_check", "first")), nullptr);
    EXPECT_EQ(errorCodeOf(verb(Reborn, "session_check", "second")),
              "session_lost");
  }
}

//===----------------------------------------------------------------------===//
// Randomized crash-replay differential
//===----------------------------------------------------------------------===//

TEST(RecoveryTest, RandomCrashTrajectoriesMatchUninterruptedControl) {
  // Drive identical random open/push/pop trajectories through a control
  // service (never restarted) and a victim service that "crashes" (is
  // destroyed and rebuilt from its journal) at random points. Every
  // check must answer bit-identically on both.
  // Declaration-free deltas: any subset can stack without redefining a
  // variable (pushes land in random multiplicities).
  const char *Pool[] = {
      "v <= /ab*/;",
      "v <= /a*b*/;",
      "v <= /ab|ba|a|b/;",
      "v <= /(a|b)(a|b)*/;",
  };
  for (unsigned Seed = 0; Seed != 4; ++Seed) {
    TempDir Tmp;
    ServiceOptions VictimOpts;
    VictimOpts.JournalPath = Tmp.file("victim.journal");
    VictimOpts.JournalCompactBytes = Seed % 2 ? 512 : 0; // both policies
    ServiceOptions ControlOpts;

    auto Victim = std::make_unique<SolverService>(VictimOpts);
    SolverService Control(ControlOpts);
    ASSERT_NE(resultOf(verb(*Victim, "session_open", "t",
                            "var v; v <= /(a|b)*/;")),
              nullptr);
    ASSERT_NE(resultOf(verb(Control, "session_open", "t",
                            "var v; v <= /(a|b)*/;")),
              nullptr);

    std::mt19937 Rng(1234 + Seed);
    unsigned Depth = 0;
    for (int Step = 0; Step != 24; ++Step) {
      unsigned Roll = Rng() % 100;
      if (Roll < 35) {
        const char *Delta = Pool[Rng() % (sizeof(Pool) / sizeof(Pool[0]))];
        ASSERT_NE(resultOf(verb(*Victim, "session_push", "t", Delta)),
                  nullptr);
        ASSERT_NE(resultOf(verb(Control, "session_push", "t", Delta)),
                  nullptr);
        ++Depth;
      } else if (Roll < 55 && Depth > 0) {
        ASSERT_NE(resultOf(verb(*Victim, "session_pop", "t")), nullptr);
        ASSERT_NE(resultOf(verb(Control, "session_pop", "t")), nullptr);
        --Depth;
      } else if (Roll < 80) {
        EXPECT_EQ(assignmentsOf(verb(*Victim, "session_check", "t")),
                  assignmentsOf(verb(Control, "session_check", "t")))
            << "seed " << Seed << " step " << Step;
      } else {
        // Crash: drop the victim mid-session and replay its journal.
        Victim.reset();
        Victim = std::make_unique<SolverService>(VictimOpts);
      }
    }
    EXPECT_EQ(assignmentsOf(verb(*Victim, "session_check", "t")),
              assignmentsOf(verb(Control, "session_check", "t")))
        << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Router: shard SIGKILL with a journal directory
//===----------------------------------------------------------------------===//

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

std::string sessionVerbLine(const char *Method, const std::string &Sid,
                            const std::string &Constraints = "") {
  Json Req = sessionReq("x", Method);
  Req["params"]["session"] = Sid;
  if (!Constraints.empty())
    Req["params"]["constraints"] = Constraints;
  return Req.dump(0);
}

TEST(RecoveryTest, SigkilledShardReplaysJournalAndSessionSurvives) {
  if (DPRLE_TSAN_ACTIVE)
    GTEST_SKIP() << "fork-based shard workers are incompatible with TSan";
  TempDir Tmp;
  RouterOptions ROpts;
  ROpts.Shards = 2;
  ROpts.JournalDir = Tmp.Path.string();
  Router R(ROpts);
  std::string Err;
  ASSERT_TRUE(R.start(&Err)) << Err;

  const std::string Sid = "pinned";
  Json Open = sessionReq("open", "session_open");
  Open["params"]["session"] = Sid;
  Open["params"]["constraints"] = "var v; var w; v . w <= /ab|ba/;";
  unsigned Own = R.shardFor(Open.dump(0));
  ASSERT_NE(resultOf(askRouter(R, Open.dump(0))), nullptr);
  ASSERT_NE(resultOf(askRouter(
                R, sessionVerbLine("session_push", Sid, "v <= /ab*/;"))),
            nullptr);
  Json Control = askRouter(R, sessionVerbLine("session_check", Sid));
  std::string ControlAssignments = assignmentsOf(Control);

  // SIGKILL the session's own worker mid-fleet. Without a journal this
  // is the SessionSurvivesUnrelatedShardRestartDiesWithItsOwn scenario:
  // the replacement would answer session_lost.
  pid_t Victim = R.shardPid(Own);
  ASSERT_GT(Victim, 0);
  ASSERT_EQ(::kill(Victim, SIGKILL), 0);
  for (int I = 0; I != 500 && R.shardPid(Own) == Victim; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_NE(R.shardPid(Own), Victim) << "shard was not restarted";

  // The replacement replayed <journal-dir>/shard-<Own>.journal before
  // taking traffic: the pinned session resolves, flags the recovery
  // once, and answers bit-identically to the pre-crash check.
  Json First = askRouterRetrying(R, sessionVerbLine("session_check", Sid));
  const Json *R1 = resultOf(First);
  ASSERT_NE(R1, nullptr);
  EXPECT_EQ(assignmentsOf(First), ControlAssignments);
  const Json *S1 = R1->find("session");
  ASSERT_NE(S1, nullptr);
  ASSERT_NE(S1->find("recovered"), nullptr);
  EXPECT_TRUE(S1->find("recovered")->asBool());
  EXPECT_EQ(S1->find("depth")->asUnsigned(), 1u);

  Json Second = askRouterRetrying(R, sessionVerbLine("session_check", Sid));
  const Json *R2 = resultOf(Second);
  ASSERT_NE(R2, nullptr);
  EXPECT_EQ(R2->find("session")->find("recovered"), nullptr);

  // The recovered frame stack keeps working.
  ASSERT_NE(resultOf(askRouterRetrying(
                R, sessionVerbLine("session_pop", Sid))),
            nullptr);
  R.stop();
}

//===----------------------------------------------------------------------===//
// Hang watchdog
//===----------------------------------------------------------------------===//

TEST(RecoveryTest, WatchdogEscalatesProbeTermKillAndSessionRecovers) {
  if (DPRLE_TSAN_ACTIVE)
    GTEST_SKIP() << "fork-based shard workers are incompatible with TSan";
  TempDir Tmp;
  FakeClock Clk;
  RouterOptions ROpts;
  ROpts.Shards = 1;
  ROpts.JournalDir = Tmp.Path.string();
  ROpts.TimeSource = &Clk;
  // No background thread: the test drives watchdogSweep() by hand.
  ROpts.WatchdogIntervalMs = 0;
  ROpts.HangTimeoutMs = 1000;
  ROpts.HangDeadlineFactor = 4;
  ROpts.HangGraceMs = 1000;
  Router R(ROpts);
  std::string Err;
  ASSERT_TRUE(R.start(&Err)) << Err;

  ASSERT_NE(resultOf(askRouter(R, sessionVerbLine("session_open", "held",
                                                  "var v; v <= /ab*/;"))),
            nullptr);
  pid_t Hung = R.shardPid(0);
  ASSERT_GT(Hung, 0);

  // Wedge the worker: debug_hang_ms sleeps without polling its
  // cancellation token, the simulated stuck solve.
  Json Stuck = Json::object();
  Stuck["id"] = "stuck";
  Stuck["method"] = "solve";
  Stuck["params"] = Json::object();
  Stuck["params"]["constraints"] = "var z; z <= /a/;";
  Stuck["params"]["debug_hang_ms"] = 60000;
  auto StuckPromise = std::make_shared<std::promise<Json>>();
  std::future<Json> StuckFuture = StuckPromise->get_future();
  ASSERT_EQ(R.submitLine(Stuck.dump(0),
                         [StuckPromise](const Json &Resp) {
                           StuckPromise->set_value(Resp);
                         }),
            LineHandler::Submit::Accepted);
  // Let the worker actually pick the request up before aging it.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  uint64_t Probes = counterValue("watchdog.probes");
  uint64_t Terms = counterValue("watchdog.sigterms");
  uint64_t Kills = counterValue("watchdog.sigkills");

  // Not overdue yet: a sweep does nothing.
  R.watchdogSweep();
  EXPECT_EQ(counterValue("watchdog.probes"), Probes);

  // Age past HangDeadlineFactor × HangTimeoutMs: first sweep probes.
  Clk.advanceMs(10000);
  R.watchdogSweep();
  EXPECT_EQ(counterValue("watchdog.probes"), Probes + 1);
  EXPECT_EQ(counterValue("watchdog.sigterms"), Terms);

  // The probe ping is queued behind the wedged pool, so it stays
  // unanswered; after the grace the watchdog sends SIGTERM...
  Clk.advanceMs(2000);
  R.watchdogSweep();
  EXPECT_EQ(counterValue("watchdog.sigterms"), Terms + 1);
  EXPECT_EQ(counterValue("watchdog.sigkills"), Kills);

  // ... and the drain cannot finish either (the solve ignores its
  // token), so the next sweep past the grace SIGKILLs.
  Clk.advanceMs(2000);
  R.watchdogSweep();
  EXPECT_EQ(counterValue("watchdog.sigkills"), Kills + 1);

  // The supervisor restarts the shard; the wedged request is orphaned
  // with the standard retryable answer.
  for (int I = 0; I != 500 && R.shardPid(0) == Hung; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_NE(R.shardPid(0), Hung) << "watchdog did not trigger a restart";
  EXPECT_EQ(errorCodeOf(StuckFuture.get()), "overloaded");

  // And the journaled session survived the kill.
  Json Checked = askRouterRetrying(R, sessionVerbLine("session_check", "held"));
  const Json *Result = resultOf(Checked);
  ASSERT_NE(Result, nullptr);
  const Json *S = Result->find("session");
  ASSERT_NE(S, nullptr);
  ASSERT_NE(S->find("recovered"), nullptr);
  EXPECT_TRUE(S->find("recovered")->asBool());
  R.stop();
}

TEST(RecoveryTest, WatchdogLeavesHealthyShardsAlone) {
  if (DPRLE_TSAN_ACTIVE)
    GTEST_SKIP() << "fork-based shard workers are incompatible with TSan";
  FakeClock Clk;
  RouterOptions ROpts;
  ROpts.Shards = 1;
  ROpts.TimeSource = &Clk;
  ROpts.HangTimeoutMs = 1000;
  Router R(ROpts);
  std::string Err;
  ASSERT_TRUE(R.start(&Err)) << Err;
  pid_t Pid = R.shardPid(0);

  uint64_t Probes = counterValue("watchdog.probes");
  // Idle fleet, any amount of elapsed time: nothing to escalate.
  Clk.advanceMs(1u << 20);
  R.watchdogSweep();
  R.watchdogSweep();
  EXPECT_EQ(counterValue("watchdog.probes"), Probes);
  EXPECT_EQ(R.shardPid(0), Pid);

  // A request that answers promptly never ages into the overdue scan.
  EXPECT_NE(resultOf(askRouter(R, "{\"id\":1,\"method\":\"ping\"}")), nullptr);
  Clk.advanceMs(1u << 20);
  R.watchdogSweep();
  EXPECT_EQ(counterValue("watchdog.probes"), Probes);
  EXPECT_EQ(R.shardPid(0), Pid);
  R.stop();
}

//===----------------------------------------------------------------------===//
// Graceful drain on SIGTERM/SIGINT
//===----------------------------------------------------------------------===//

TEST(RecoveryTest, DrainGuardCatchesSigtermInProcess) {
  std::promise<void> Fired;
  std::future<void> FiredF = Fired.get_future();
  {
    SignalDrainGuard Guard([&Fired] { Fired.set_value(); });
    EXPECT_FALSE(drainRequested());
    std::raise(SIGTERM);
    ASSERT_EQ(FiredF.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_TRUE(drainRequested());
  }
  // Leave no drain state behind for later tests (the flag is global).
  resetDrainForFork();
  EXPECT_FALSE(drainRequested());
}

TEST(RecoveryTest, SigtermDrainsServeLoopFlushesJournalAndExitsZero) {
  if (DPRLE_TSAN_ACTIVE)
    GTEST_SKIP() << "fork-based signal tests are incompatible with TSan";
  TempDir Tmp;
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Child: the stdio serve loop over its socketpair end, exactly the
    // `dprle serve` shape — drain handlers plus EINTR-aware reads.
    ::close(Fds[0]);
    resetDrainForFork();
    ServiceOptions Opts;
    Opts.JournalPath = Tmp.file("drain.journal");
    SolverService Service(Opts);
    SignalDrainGuard Guard([&Service] {
      Service.drain();
      ::_exit(0);
    });
    FdStreamBuf InBuf(Fds[1]);
    FdStreamBuf OutBuf(Fds[1]);
    std::istream In(&InBuf);
    std::ostream Out(&OutBuf);
    Service.serve(In, Out);
    // SIGTERM unwinds the blocking read as EOF, so the loop may return
    // here before the watcher thread exits; both paths are a clean 0.
    ::_exit(0);
  }
  ::close(Fds[1]);

  // Open a journaled session, then ask the serving child to drain.
  FdLineReader Reader(Fds[0]);
  std::string OpenLine =
      sessionVerbLine("session_open", "durable", "var v; v <= /a*/;") + "\n";
  ASSERT_EQ(::write(Fds[0], OpenLine.data(), OpenLine.size()),
            static_cast<ssize_t>(OpenLine.size()));
  std::optional<std::string> Line = Reader.readLine();
  ASSERT_TRUE(Line.has_value());
  std::optional<Json> OpenResp = Json::parse(*Line);
  ASSERT_TRUE(OpenResp.has_value());
  ASSERT_NE(resultOf(*OpenResp), nullptr);

  ASSERT_EQ(::kill(Pid, SIGTERM), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status)) << "child did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  ::close(Fds[0]);

  // The drained journal replays: the session survived the SIGTERM.
  ServiceOptions Opts;
  Opts.JournalPath = Tmp.file("drain.journal");
  SolverService Reborn(Opts);
  EXPECT_NE(resultOf(verb(Reborn, "session_check", "durable")), nullptr);
}

//===----------------------------------------------------------------------===//
// FakeClock
//===----------------------------------------------------------------------===//

TEST(ClockTest, FakeClockAdvancesDeterministically) {
  FakeClock Clk;
  uint64_t Start = Clk.nowMs();
  Clk.advanceMs(250);
  EXPECT_EQ(Clk.nowMs(), Start + 250);
  Clk.setMs(Start);
  EXPECT_EQ(Clk.nowMs(), Start);
  // The system clock is monotone non-decreasing.
  uint64_t A = Clock::system().nowMs();
  uint64_t B = Clock::system().nowMs();
  EXPECT_LE(A, B);
}

} // namespace
