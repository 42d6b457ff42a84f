//===- Transport.cpp - Server processes and socket clients ----------------===//

#include "Transport.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace dprle;

namespace ledger {

namespace {

/// VmHWM of \p Pid in KiB (0 when unreadable).
double vmHwmKiB(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6);
  return 0.0;
}

/// Direct children of \p Parent, from /proc/<pid>/stat.
std::vector<pid_t> childrenOf(pid_t Parent) {
  std::vector<pid_t> Out;
  DIR *D = ::opendir("/proc");
  if (!D)
    return Out;
  while (struct dirent *E = ::readdir(D)) {
    char *End = nullptr;
    long Pid = std::strtol(E->d_name, &End, 10);
    if (*End != '\0' || Pid <= 0)
      continue;
    std::ifstream In(std::string("/proc/") + E->d_name + "/stat");
    std::string Stat;
    std::getline(In, Stat);
    // Fields after the parenthesized command: state, then ppid.
    size_t Close = Stat.rfind(')');
    if (Close == std::string::npos)
      continue;
    char State = 0;
    long PPid = 0;
    if (std::sscanf(Stat.c_str() + Close + 1, " %c %ld", &State, &PPid) == 2 &&
        PPid == Parent)
      Out.push_back(pid_t(Pid));
  }
  ::closedir(D);
  return Out;
}

bool waitExit(pid_t Pid, double Seconds) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(Seconds);
  while (std::chrono::steady_clock::now() < Deadline) {
    int Status = 0;
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    if (R == Pid || (R < 0 && errno == ECHILD))
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

} // namespace

bool ServerProcess::start(const std::string &SocketPath,
                          const ServerConfig &Config, std::string *Err) {
  Path = SocketPath;
  std::vector<std::string> Args = {LEDGER_DPRLE_PATH, "serve",
                                   "--unix-socket=" + SocketPath,
                                   "--shards=" + std::to_string(Config.Shards),
                                   "--jobs=" + std::to_string(Config.Jobs)};
  if (Config.MaxQueue)
    Args.push_back("--max-queue=" + std::to_string(Config.MaxQueue));
  if (!Config.JournalDir.empty())
    Args.push_back("--journal-dir=" + Config.JournalDir);
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  ::unlink(SocketPath.c_str());
  pid_t Child = ::fork();
  if (Child < 0) {
    *Err = "fork failed";
    return false;
  }
  if (Child == 0) {
    // Die with the benchmark, whatever happens to it; the server's
    // "listening on" banner goes nowhere.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int Null = ::open("/dev/null", O_WRONLY);
    if (Null >= 0)
      ::dup2(Null, STDOUT_FILENO);
    ::execv(Argv[0], Argv.data());
    ::_exit(127);
  }
  Pid = Child;
  // Ready when a connection is accepted.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < Deadline) {
    Client Probe;
    if (Probe.connect(Path)) {
      std::optional<std::string> Pong =
          Probe.call(R"({"id":0,"method":"ping"})");
      if (Pong)
        return true;
    }
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      *Err = "server exited during start";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  *Err = "server did not accept connections";
  stop();
  return false;
}

double ServerProcess::peakRssMb() const {
  if (Pid <= 0)
    return 0.0;
  double KiB = vmHwmKiB(Pid);
  for (pid_t Child : childrenOf(Pid))
    KiB += vmHwmKiB(Child);
  return KiB / 1024.0;
}

void ServerProcess::stop() {
  if (Pid <= 0)
    return;
  // SIGTERM is the server's graceful drain: answer what is in flight,
  // flush the journals, stop the shards, exit.
  ::kill(Pid, SIGTERM);
  if (!waitExit(Pid, 20.0)) {
    ::kill(Pid, SIGKILL);
    waitExit(Pid, 5.0);
  }
  Pid = -1;
  ::unlink(Path.c_str());
}

bool Client::connect(const std::string &SocketPath) {
  close();
  int S = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (S < 0)
    return false;
  service::OwnedFd Owned(S);
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path))
    return false;
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size());
  if (::connect(S, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) != 0)
    return false;
  Fd = std::move(Owned);
  return true;
}

bool Client::send(const std::string &Line) {
  std::string Framed = Line + "\n";
  return connected() &&
         service::writeAllFd(Fd.get(), Framed.data(), Framed.size());
}

std::optional<std::string> Client::recv(double TimeoutSec) {
  TimedOut = false;
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(TimeoutSec);
  while (connected()) {
    size_t Newline = Buffer.find('\n');
    if (Newline != std::string::npos) {
      std::string Line = Buffer.substr(0, Newline);
      Buffer.erase(0, Newline + 1);
      return Line;
    }
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    Deadline - std::chrono::steady_clock::now())
                    .count();
    if (Left <= 0) {
      TimedOut = true;
      return std::nullopt;
    }
    struct pollfd P = {Fd.get(), POLLIN, 0};
    int Ready = ::poll(&P, 1, int(std::min<long long>(Left, 1000)));
    if (Ready < 0 && errno != EINTR)
      return std::nullopt;
    if (Ready <= 0)
      continue;
    char Chunk[1 << 16];
    ssize_t N = ::read(Fd.get(), Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return std::nullopt;
    Buffer.append(Chunk, size_t(N));
  }
  return std::nullopt;
}

std::optional<std::string> Client::call(const std::string &Line) {
  if (!send(Line))
    return std::nullopt;
  return recv();
}

void Client::close() {
  Buffer.clear();
  Fd.reset();
}

std::vector<std::string> pipeline(Client &C,
                                  const std::vector<std::string> &Lines) {
  std::thread Writer([&] {
    for (const std::string &L : Lines)
      if (!C.send(L))
        break;
  });
  std::vector<std::string> Out;
  while (Out.size() != Lines.size()) {
    std::optional<std::string> Line = C.recv();
    if (!Line)
      break;
    Out.push_back(std::move(*Line));
  }
  Writer.join();
  return Out;
}

Json serverCounters(const std::string &Path) {
  Client C;
  if (C.connect(Path))
    if (std::optional<std::string> Line =
            C.call(R"({"id":0,"method":"stats"})"))
      if (std::optional<Json> J = Json::parse(*Line))
        if (const Json *Result = J->find("result"))
          if (const Json *Counters = Result->find("counters"))
            return *Counters;
  return Json::object();
}

double counter(const Json &Counters, const char *Name) {
  const Json *V = Counters.find(Name);
  return V && V->isNumber() ? V->asDouble() : 0.0;
}

long long responseId(const std::string &Line) {
  size_t At = Line.find("\"id\":");
  if (At == std::string::npos)
    return -1;
  const char *P = Line.c_str() + At + 5;
  while (*P == ' ')
    ++P;
  char *End = nullptr;
  long long V = std::strtoll(P, &End, 10);
  return End == P ? -1 : V;
}

} // namespace ledger
