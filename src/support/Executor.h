//===- Executor.h - Parallel execution abstraction --------------*- C++ -*-==//
///
/// \file
/// The seam between the solver layers and the concurrency runtime. The
/// solver (solver/Solver.cpp, solver/Gci.cpp) parallelizes its independent
/// sub-problems through this interface; the concrete fixed-size pool lives
/// above it in src/service/ThreadPool.h, so the solver library never links
/// against the service layer. A null Executor (the default everywhere)
/// means strictly serial execution, bit-identical to the historical
/// single-threaded code paths.
///
/// The file also hosts the *parallel-region guard*: a process-wide count
/// of threads currently executing parallel work. Global-state mutators
/// that are only safe while single-threaded — DecisionCache::setEnabled,
/// DecisionCache::clear, StatsRegistry::registerCounter — assert
/// `!parallelRegionActive()` so that a future call site cannot silently
/// race a running pool (the latent hazard called out in ROADMAP.md).
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_SUPPORT_EXECUTOR_H
#define DPRLE_SUPPORT_EXECUTOR_H

#include <atomic>
#include <cstddef>
#include <functional>

namespace dprle {

/// Abstract parallel-for provider. Implementations must be safe to call
/// from any thread, including from inside a Body running under the same
/// executor (nested parallelFor must not deadlock — the caller is expected
/// to participate in the work rather than block idle). Every Body runs
/// under the caller's ambient ResourceGuard budget (support/Budget.h), on
/// whichever thread executes it: a request installs its budget once, and
/// charges and polls in parallel bodies reach it without re-installing.
class Executor {
public:
  virtual ~Executor() = default;

  /// Number of threads that may run bodies concurrently (including the
  /// calling thread). 1 means effectively serial.
  virtual unsigned concurrency() const = 0;

  /// Invokes Body(0) ... Body(N-1), possibly concurrently and in any
  /// order, each under the caller's ambient budget, returning only when
  /// every invocation has completed. If bodies throw, the first exception
  /// propagates to the caller, only after every invocation already running
  /// has completed; invocations not yet started may be skipped.
  virtual void parallelFor(size_t N,
                           const std::function<void(size_t)> &Body) = 0;
};

/// The trivial executor: runs everything inline on the calling thread
/// (which already holds the ambient budget).
class SerialExecutor final : public Executor {
public:
  unsigned concurrency() const override { return 1; }
  void parallelFor(size_t N,
                   const std::function<void(size_t)> &Body) override {
    for (size_t I = 0; I != N; ++I)
      Body(I);
  }
};

namespace parallel_detail {
extern std::atomic<int> ActiveRegions;
} // namespace parallel_detail

/// True while any thread is executing work scheduled through a parallel
/// executor (see RegionGuard). Used by debug assertions guarding
/// single-threaded-only global mutations.
inline bool parallelRegionActive() {
  return parallel_detail::ActiveRegions.load(std::memory_order_relaxed) > 0;
}

/// RAII marker for "this thread is running parallel work". Pool workers
/// hold one for the duration of each job; parallelFor holds one around the
/// claiming loop.
class ParallelRegionGuard {
public:
  ParallelRegionGuard() {
    parallel_detail::ActiveRegions.fetch_add(1, std::memory_order_relaxed);
  }
  ~ParallelRegionGuard() {
    parallel_detail::ActiveRegions.fetch_sub(1, std::memory_order_relaxed);
  }
  ParallelRegionGuard(const ParallelRegionGuard &) = delete;
  ParallelRegionGuard &operator=(const ParallelRegionGuard &) = delete;
};

} // namespace dprle

#endif // DPRLE_SUPPORT_EXECUTOR_H
