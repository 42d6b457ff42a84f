//===- Transport.h - Server processes and socket clients --------*- C++ -*-==//
///
/// \file
/// The program under test runs in its own process: `dprle serve` on a
/// Unix socket, fronting either a SolverService or a sharded Router
/// (which forks its workers), built from this checkout's tools/. The
/// benchmark talks to it only over the socket, as a client would, so
/// latency is measured from outside and the server's memory is its own.
///
//===----------------------------------------------------------------------===//

#ifndef LEDGER_TRANSPORT_H
#define LEDGER_TRANSPORT_H

#include "service/FdIo.h"
#include "support/Json.h"

#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace ledger {

/// How a server process is configured: the `dprle serve` flags the
/// benchmark sets (everything else keeps the tool's defaults).
struct ServerConfig {
  /// --shards: router shard count; 0 = a plain SolverService.
  unsigned Shards = 0;
  /// --jobs: SolverService job count (per worker under a router).
  unsigned Jobs = 1;
  /// --max-queue; 0 = the default (unbounded).
  size_t MaxQueue = 0;
  /// --journal-dir (no fsync); empty = journaling off.
  std::string JournalDir;
};

/// A server child process.
class ServerProcess {
public:
  ServerProcess() = default;
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  /// Spawns the server on \p SocketPath and waits until it accepts.
  bool start(const std::string &SocketPath, const ServerConfig &Config,
             std::string *Err);
  /// Summed peak RSS (VmHWM) of the server and its forked workers, MiB.
  double peakRssMb() const;
  /// Sends SIGTERM (graceful drain), waits for the exit, and kills it
  /// after a grace period. Idempotent.
  void stop();

  const std::string &socketPath() const { return Path; }

private:
  pid_t Pid = -1;
  std::string Path;
};

/// One client connection speaking NDJSON.
class Client {
public:
  bool connect(const std::string &Path);
  bool send(const std::string &Line);
  /// The next response line; nullopt on EOF, error, or no line within
  /// \p TimeoutSec (timedOut() tells the last apart).
  std::optional<std::string> recv(double TimeoutSec = 60.0);
  bool timedOut() const { return TimedOut; }
  /// send + recv.
  std::optional<std::string> call(const std::string &Line);
  void close();
  bool connected() const { return Fd.get() >= 0; }

private:
  dprle::service::OwnedFd Fd;
  std::string Buffer;
  bool TimedOut = false;
};

/// Sends every line while reading the responses (one writer thread), so
/// the server sees a pipelined batch; returns the responses in arrival
/// order (fewer on a failure).
std::vector<std::string> pipeline(Client &C,
                                  const std::vector<std::string> &Lines);

/// The `stats` counters of the server at \p Path (summed over shards
/// behind a router); an empty object on failure.
dprle::Json serverCounters(const std::string &Path);

/// Value of counter \p Name in \p Counters (0 when absent).
double counter(const dprle::Json &Counters, const char *Name);

/// The numeric `"id"` of a response line, parsed without a full JSON
/// parse; -1 when absent.
long long responseId(const std::string &Line);

} // namespace ledger

#endif // LEDGER_TRANSPORT_H
