//===- Commands.h - dprle tool command library ------------------*- C++ -*-==//
///
/// \file
/// The implementation of the `dprle` command-line tool, exposed as a
/// library so the command handlers can be unit-tested directly (streams
/// in, streams out, exit code returned).
///
/// `dprle help` lists the subcommands and every flag of each, printed
/// from the same per-command tables that parse them (Commands.cpp). A
/// switch is spelled `--name`, every other flag `--name=value`.
///
/// `analyze` and `taint` audit ONE policy per run (`--attack=` takes any
/// registered policy id: sqli, xss, path, cmd, plus the historical alias
/// sql). `audit` checks every registered policy — or the `--policy=`
/// subset — in a single shared pass (miniphp/Analysis.h auditSource) and
/// prints a machine-readable JSON report on stdout; it accepts multiple
/// input files, amortizing the process-wide decision cache across the
/// whole batch. The report schema is documented in docs/TAINT.md.
///
/// `solve`, `analyze`, `taint`, and `audit` additionally accept
/// `--stats=<file.json>` and `--trace=<file.json>`, which emit
/// machine-readable run statistics and a hierarchical phase trace; the
/// schemas are documented in docs/OBSERVABILITY.md.
///
/// Exit codes:
///   solve    0 sat / 1 unsat
///   analyze  0 vulnerable / 1 not vulnerable / 3 no sinks to audit
///   taint    0 every sink proven safe / 1 some sink needs solving /
///            3 no sinks
///   audit    0 some policy vulnerable in some file / 1 sinks audited,
///            none vulnerable / 3 no sinks anywhere
///   automata 0 yes (equiv/subset/accepts; or success) / 1 no
///   serve    0 clean stop (EOF or shutdown request); per-request errors
///            are structured protocol responses, never exit codes
///   all      2 on usage or input errors
///
/// Machines are given either as /regex/ literals (extended dialect: `&`
/// intersection, `~` complement) or as paths to files in the serialized
/// NFA format of automata/Serialize.h.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_TOOLS_COMMANDS_H
#define DPRLE_TOOLS_COMMANDS_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dprle {
namespace tools {

/// The most threads `--jobs=` may ask for (`solve`, `repl`, `serve`).
constexpr uint64_t MaxJobs = 256;

/// The most worker processes `serve --shards=` may fork.
constexpr uint64_t MaxShards = 64;

/// The longest wait `audit --watch-poll-ms=` and `serve --watchdog-ms=`
/// may ask for: 2^32 - 1 ms, about 49.7 days. Past 2^63 ms the wait's
/// duration wraps negative and is no wait at all.
constexpr uint64_t MaxIntervalMs = (uint64_t(1) << 32) - 1;

/// Runs one `dprle` command line (argv[0] already stripped): the
/// subcommand's flags are parsed and checked in full before it acts.
/// Prints the usage on an unknown command.
int runMain(const std::vector<std::string> &Args, std::istream &In,
            std::ostream &Out, std::ostream &Err);

} // namespace tools
} // namespace dprle

#endif // DPRLE_TOOLS_COMMANDS_H
