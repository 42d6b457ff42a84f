//===- SessionEdit.cpp - Closed-loop editors over incremental sessions ----===//
//
// Two connections, each an editor owning a few sessions, straight to a
// SolverService (no router) with the session journal on (no fsync). Each
// session's base is bench_session-scale (16 CI-groups, ~50 constraints)
// plus a few large constants. An edit cycle pushes 1-3 deltas then
// checks, or pops then checks; the op is the whole cycle. Every delta
// keeps the planted assignment satisfying, so every check must be sat
// and its witnesses must replay against the flattened system.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Oracle.h"
#include "Transport.h"
#include "Workload.h"

#include "service/Service.h"
#include "solver/Session.h"

#include <filesystem>
#include <set>
#include <thread>

using namespace dprle;

namespace ledger {

namespace {

std::string verbLine(const std::string &Method, const std::string &Session,
                     const std::string &Constraints = "") {
  Json Req = Json::object();
  Req["id"] = 1;
  Req["method"] = Method;
  Json P = Json::object();
  P["session"] = Session;
  if (Method == "session_open")
    P["max_solutions"] = 1;
  if (!Constraints.empty())
    P["constraints"] = Constraints;
  Req["params"] = std::move(P);
  return Req.dump(0);
}

/// The error code of a response line; empty when ok.
std::string errorOf(const std::optional<std::string> &Line) {
  if (!Line)
    return "no_reply";
  std::optional<Json> J = Json::parse(*Line);
  const Json *Ok = J ? J->find("ok") : nullptr;
  if (!Ok || !Ok->isBool())
    return "malformed";
  if (Ok->asBool())
    return "";
  const Json *E = J->find("error");
  const Json *Code = E ? E->find("code") : nullptr;
  return Code && Code->isString() ? Code->asString() : "malformed";
}

/// The request lines of one edit cycle (pushes or a pop, then a check).
std::vector<std::string> cycleLines(const SessionInput &S, const EditCycle &C) {
  std::vector<std::string> Lines;
  for (size_t D : C.Push)
    Lines.push_back(verbLine("session_push", S.Id, S.Deltas[D].Text));
  if (C.Push.empty())
    Lines.push_back(verbLine("session_pop", S.Id));
  Lines.push_back(verbLine("session_check", S.Id));
  return Lines;
}

void applyCycle(const EditCycle &C, std::vector<size_t> &Stack) {
  if (C.Push.empty())
    Stack.pop_back();
  else
    Stack.insert(Stack.end(), C.Push.begin(), C.Push.end());
}

class SessionEdit final : public Workload {
public:
  explicit SessionEdit(const WorkloadContext &Ctx) : Ctx(Ctx) {}
  ~SessionEdit() override { tearDown(); }

  bool setUp(std::string *Err) override {
    Sessions.clear();
    for (unsigned E = 0; E != Editors; ++E) {
      Rng R(subSeed(Ctx.Seed, 20 + E));
      for (unsigned S = 0; S != PerEditor; ++S)
        Sessions.push_back(
            sessionInput(R, "e" + std::to_string(E) + "s" + std::to_string(S)));
    }
    std::string Journal = Ctx.WorkDir + "/journal";
    std::filesystem::remove_all(Journal);
    std::filesystem::create_directories(Journal);
    ServerConfig Config;
    Config.Jobs = Editors;
    Config.JournalDir = Journal;
    if (!Server.start(Ctx.WorkDir + "/session.sock", Config, Err))
      return false;
    if (!openAll(Server.socketPath())) {
      *Err = "session_open failed";
      return false;
    }
    return true;
  }

  TimedRun run() override;
  double peakRssMb() const override { return Server.peakRssMb(); }
  unsigned threads() const override { return Editors; }
  unsigned clients() const override { return Editors; }
  void tearDown() override { Server.stop(); }
  void layers(const TimedRun &Loaded, LayerReport &Out) override;

private:
  /// Opens every session on the server at \p Path and runs its first
  /// (cold) check: the warm-up.
  bool openAll(const std::string &Path) {
    Client C;
    if (!C.connect(Path))
      return false;
    for (const SessionInput &S : Sessions)
      for (const std::string &L : {verbLine("session_open", S.Id, S.Base.render()),
                                   verbLine("session_check", S.Id)}) {
        std::optional<std::string> Resp = C.call(L);
        if (!errorOf(Resp).empty()) {
          std::fprintf(stderr, "session_edit: %s\n",
                       Resp.value_or("no reply").c_str());
          return false;
        }
      }
    return true;
  }

  /// The flattened constraints of \p S with \p Stack open.
  std::vector<RmaConstraint> flattened(const SessionInput &S,
                                       const std::vector<size_t> &Stack) const {
    std::vector<RmaConstraint> Out = S.Base.Constraints;
    for (size_t D : Stack)
      Out.insert(Out.end(), S.Deltas[D].Constraints.begin(),
                 S.Deltas[D].Constraints.end());
    return Out;
  }

  WorkloadContext Ctx;
  /// Two editors, one connection each, owning 8 sessions apiece.
  static constexpr unsigned Editors = 2;
  static constexpr unsigned PerEditor = 8;
  std::vector<SessionInput> Sessions;
  ServerProcess Server;
  RegexCache Regexes;
};

TimedRun SessionEdit::run() {
  struct Cycle {
    OpRecord Op;
    size_t Session = 0;
    std::vector<size_t> Stack;
    std::string Check;
  };
  std::vector<Cycle> Cycles[Editors];
  Json Before = serverCounters(Server.socketPath());
  const double Start = nowSeconds();
  double Ends[Editors] = {Start, Start};

  auto Editor = [&](unsigned E) {
    Client C;
    if (!C.connect(Server.socketPath()))
      return;
    Rng R(subSeed(Ctx.Seed, 40 + E));
    std::vector<std::vector<size_t>> Stacks(PerEditor);
    while (nowSeconds() - Start < Ctx.Seconds) {
      size_t Local = R.below(PerEditor);
      const SessionInput &S = Sessions[E * PerEditor + Local];
      EditCycle Plan = nextCycle(R, S, Stacks[Local]);
      std::vector<std::string> Lines = cycleLines(S, Plan);
      Cycle Cy;
      Cy.Op.Verb = "cycle";
      Cy.Session = E * PerEditor + Local;
      double T0 = nowSeconds();
      std::optional<std::string> Last;
      for (const std::string &L : Lines) {
        Last = C.call(L);
        std::string Code = errorOf(Last);
        if (!Code.empty()) {
          Cy.Op.Failure = Code;
          break;
        }
      }
      Ends[E] = nowSeconds();
      Cy.Op.LatencyMs = (Ends[E] - T0) * 1e3;
      if (Cy.Op.Failure.empty()) {
        applyCycle(Plan, Stacks[Local]);
        Cy.Stack = Stacks[Local];
        Cy.Check = std::move(*Last);
      }
      bool Lost = Cy.Op.Failure == "no_reply";
      Cycles[E].push_back(std::move(Cy));
      if (Lost)
        return;
    }
  };
  std::thread Threads[Editors] = {std::thread(Editor, 0), std::thread(Editor, 1)};
  for (std::thread &T : Threads)
    T.join();

  TimedRun Out;
  Out.WindowSec = std::max(Ends[0], Ends[1]) - Start;
  Out.CounterDelta = counterDelta(Before, serverCounters(Server.socketPath()));
  std::set<std::string> Verified;
  for (std::vector<Cycle> &List : Cycles)
    for (Cycle &Cy : List) {
      if (Cy.Op.Failure.empty()) {
        const SessionInput &S = Sessions[Cy.Session];
        std::string Key = S.Id + "|";
        for (size_t D : Cy.Stack)
          Key += std::to_string(D) + ",";
        // The verdict part of the response, without per-check stats.
        std::optional<Json> J = Json::parse(Cy.Check);
        const Json *Result = J ? J->find("result") : nullptr;
        Key += Result ? verdictFingerprint(*Result) : Cy.Check;
        if (!Verified.count(Key)) {
          RmaSystem Flat;
          Flat.Constraints = flattened(S, Cy.Stack);
          Cy.Op.Failure = checkSatResponse(Cy.Check, Flat, Regexes, "session_edit");
          if (Cy.Op.Failure.empty())
            Verified.insert(Key);
        }
      }
      Cy.Op.Ok = Cy.Op.Failure.empty();
      Out.Ops.push_back(std::move(Cy.Op));
    }
  return Out;
}

void SessionEdit::layers(const TimedRun &Loaded, LayerReport &Out) {
  // The first cycles of one session per editor, replayed in process.
  size_t NumCycles = Ctx.Smoke ? 6 : 40;
  std::vector<std::pair<const SessionInput *, std::vector<EditCycle>>> Plans;
  for (unsigned E = 0; E != Editors; ++E) {
    const SessionInput &S = Sessions[E * PerEditor];
    Rng R(subSeed(Ctx.Seed, 60 + E));
    std::vector<size_t> Stack;
    std::vector<EditCycle> Cs;
    for (size_t I = 0; I != NumCycles; ++I) {
      Cs.push_back(nextCycle(R, S, Stack));
      applyCycle(Cs.back(), Stack);
    }
    Plans.push_back({&S, std::move(Cs)});
  }

  std::vector<double> Push, Pop, Check, EditPerCycle;
  std::vector<std::pair<std::string, unsigned>> Flat;
  auto ReplaySessions = [&](bool Record) {
    for (auto &[S, Cs] : Plans) {
      SolverOptions Opts;
      Opts.MaxSolutions = 1;
      SolverSession Session(Opts);
      Session.assertText(S->Base.render());
      Session.check();
      std::vector<size_t> Stack;
      for (const EditCycle &C : Cs) {
        double Edit = 0.0;
        for (size_t D : C.Push) {
          double Us = timeUs([&] { Session.push(S->Deltas[D].Text); });
          Edit += Us;
          if (Record)
            Push.push_back(Us);
        }
        if (C.Push.empty()) {
          double Us = timeUs([&] { Session.pop(); });
          Edit += Us;
          if (Record)
            Pop.push_back(Us);
        }
        double Ms = timeUs([&] { Session.check(); }) / 1e3;
        applyCycle(C, Stack);
        if (Record) {
          Check.push_back(Ms);
          EditPerCycle.push_back(Edit);
          RmaSystem Sys = S->Base;
          for (size_t D : Stack) {
            Sys.Vars.insert(Sys.Vars.end(), S->Deltas[D].NewVars.begin(),
                            S->Deltas[D].NewVars.end());
            Sys.Constraints.insert(Sys.Constraints.end(),
                                   S->Deltas[D].Constraints.begin(),
                                   S->Deltas[D].Constraints.end());
          }
          Flat.push_back({Sys.render(), 1});
        }
      }
    }
  };
  ReplaySessions(true);
  Out.Metrics["session.push_us"] = median(Push);
  Out.Metrics["session.pop_us"] = median(Pop);
  Out.Metrics["session.check_ms"] = median(Check);
  measureTraceOverhead([&] { ReplaySessions(false); }, Out);

  // Edit cycles one at a time against fresh servers with and without the
  // journal, interleaved, and in process through handleLine.
  ServerConfig Plain;
  Plain.Jobs = Editors;
  ServerConfig Journaled = Plain;
  Journaled.JournalDir = Ctx.WorkDir + "/journal-layers";
  std::filesystem::remove_all(Journaled.JournalDir);
  std::filesystem::create_directories(Journaled.JournalDir);
  ServerProcess A, B;
  std::string Err;
  std::vector<double> WithJournal, Without, Handle;
  std::vector<std::string> WireReq, WireResp;
  if (A.start(Ctx.WorkDir + "/jrnl.sock", Journaled, &Err) &&
      B.start(Ctx.WorkDir + "/plain.sock", Plain, &Err) &&
      openAll(A.socketPath()) && openAll(B.socketPath())) {
    service::ServiceOptions Opts;
    Opts.Jobs = Editors;
    service::SolverService InProcess(Opts);
    for (const SessionInput &S : Sessions) {
      InProcess.handleLine(verbLine("session_open", S.Id, S.Base.render()));
      InProcess.handleLine(verbLine("session_check", S.Id));
    }
    Client CA, CB;
    CA.connect(A.socketPath());
    CB.connect(B.socketPath());
    for (auto &[S, Cs] : Plans)
      for (const EditCycle &C : Cs) {
        std::vector<std::string> Lines = cycleLines(*S, C);
        WithJournal.push_back(timeUs([&] {
          for (const std::string &L : Lines)
            CA.call(L);
        }));
        Without.push_back(timeUs([&] {
          for (const std::string &L : Lines) {
            std::optional<std::string> R = CB.call(L);
            WireReq.push_back(L);
            WireResp.push_back(R.value_or(""));
          }
        }));
        Handle.push_back(timeUs([&] {
          for (const std::string &L : Lines)
            InProcess.handleLine(L);
        }));
      }
  }
  A.stop();
  B.stop();
  std::vector<double> Transport;
  for (size_t I = 0; I != Without.size() && I != Handle.size(); ++I)
    Transport.push_back(Without[I] - Handle[I]);
  Out.Metrics["session.journal_overhead_us"] = median(WithJournal) - median(Without);
  Out.Metrics["service.handle_us"] = median(Handle);
  Out.Metrics["service.transport_us"] = median(Transport);
  measureWire(WireReq, WireResp, Out);
  counterLayers(Loaded.CounterDelta, Out);
  measureSolverLayers(Flat, 1, Ctx.Smoke ? 0.5 : 2.0, Out);

  // handleLine of a cycle runs the session verbs and renders their
  // responses; the rest row is that rendering and dispatch.
  double EditMs = median(EditPerCycle) / 1e3, CheckMs = median(Check);
  Out.Breakdown = {
      {"service.transport", median(Transport) / 1e3},
      {"session.journal", Out.Metrics["session.journal_overhead_us"] / 1e3},
      {"session.push_pop", EditMs},
      {"session.check", CheckMs},
      {"service.handle_rest", median(Handle) / 1e3 - EditMs - CheckMs},
  };
}

} // namespace

std::unique_ptr<Workload> makeSessionEdit(const WorkloadContext &Ctx) {
  return std::make_unique<SessionEdit>(Ctx);
}

} // namespace ledger
