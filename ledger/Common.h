//===- Common.h - Shared helpers of the latency ledger ----------*- C++ -*-==//
///
/// \file
/// Small utilities every part of the ledger uses: the seeded generator,
/// order statistics, the per-op record a timed run produces, and the
/// failure tally that turns those records into attempted / failed counts
/// broken down by error code.
///
//===----------------------------------------------------------------------===//

#ifndef LEDGER_COMMON_H
#define LEDGER_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <cmath>
#include <random>
#include <string>
#include <vector>

namespace ledger {

/// Seconds on the monotonic clock.
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The workload generator's randomness: every input derives from the
/// --seed argument through one of these, so a seed fixes the inputs.
class Rng {
public:
  explicit Rng(uint64_t Seed) : Gen(Seed) {}
  uint64_t next() { return Gen(); }
  /// Uniform in [0, N).
  size_t below(size_t N) { return N == 0 ? 0 : size_t(Gen() % N); }
  /// Uniform in [Lo, Hi].
  int between(int Lo, int Hi) { return Lo + int(below(size_t(Hi - Lo + 1))); }
  /// Uniform in [0, 1).
  double uniform() {
    return double(Gen() >> 11) * (1.0 / double(uint64_t(1) << 53));
  }
  /// Exponential with mean \p Mean (Poisson inter-arrival gaps).
  double exponential(double Mean) { return -Mean * std::log1p(-uniform()); }

private:
  std::mt19937_64 Gen;
};

/// Derives an independent stream for \p Purpose from the run's seed.
inline uint64_t subSeed(uint64_t Seed, uint64_t Purpose) {
  uint64_t X = Seed * 0x9E3779B97F4A7C15ull + Purpose * 0xBF58476D1CE4E5B9ull;
  X ^= X >> 31;
  X *= 0x94D049BB133111EBull;
  return X ^ (X >> 29);
}

/// Linear-interpolated quantile \p Q in [0, 1] of \p V (0 when empty).
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// One measured operation of a timed run.
struct OpRecord {
  /// Workload-defined class ("solve", "decide", "heavy", "cycle", "file").
  std::string Verb;
  /// Client-observed latency; open-loop ops are timed from their due time.
  double LatencyMs = 0.0;
  /// Answered, and the answer passed the correctness check.
  bool Ok = false;
  /// Why the op failed: a protocol error code, "wrong_answer" or
  /// "no_reply". Empty when Ok.
  std::string Failure;
  /// Index of the generated input the op sent (workload-defined).
  size_t Input = 0;
};

/// Attempted / succeeded / failed counts with failures by code.
struct FailureTally {
  uint64_t Attempted = 0;
  uint64_t Succeeded = 0;
  uint64_t Failed = 0;
  std::map<std::string, uint64_t> ByCode;

  void add(const OpRecord &Op) {
    ++Attempted;
    if (Op.Ok) {
      ++Succeeded;
    } else {
      ++Failed;
      ++ByCode[Op.Failure];
    }
  }
  double errorRate() const {
    return Attempted ? double(Failed) / double(Attempted) : 0.0;
  }
};

} // namespace ledger

#endif // LEDGER_COMMON_H
