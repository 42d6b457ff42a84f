//===- ThreadPool.h - Fixed-size worker pool --------------------*- C++ -*-==//
///
/// \file
/// The concurrency runtime of the solving service (docs/SERVICE.md): a
/// fixed-size pool of worker threads fed by a FIFO job queue. The pool
/// implements support/Executor.h, so the solver's `--jobs N` paths
/// (Solver/Gci parallel stages) run on the same workers as the service's
/// per-request jobs — one pool per process, no thread explosion.
///
/// Two usage patterns:
///
///  * submit() — fire-and-forget jobs (the service scheduler submits one
///    job per protocol request); waitIdle() barriers on the queue
///    draining.
///  * parallelFor() — the Executor interface. The *calling thread
///    participates*: it claims indices alongside the workers rather than
///    blocking idle, which makes nested parallelFor (a pool job whose
///    solve parallelizes its CI-groups, whose gci parallelizes its
///    combinations) deadlock-free by construction — even when every
///    worker is busy, the caller alone drains the index space.
///
/// Workers hold a ParallelRegionGuard while running a job, so the
/// single-threaded-only global mutators (DecisionCache::setEnabled,
/// StatsRegistry::registerCounter, ...) assert if invoked while the pool
/// has work in flight.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_SERVICE_THREADPOOL_H
#define DPRLE_SERVICE_THREADPOOL_H

#include "support/Executor.h"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace dprle {
namespace service {

class ThreadPool final : public Executor {
public:
  /// Spawns \p Threads workers (clamped to at least 1).
  explicit ThreadPool(unsigned Threads);

  /// Drains the queue (queued jobs still run), then joins the workers.
  ~ThreadPool() override;

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned concurrency() const override { return Workers.size(); }

  /// Enqueues \p Job for execution on some worker, FIFO order.
  void submit(std::function<void()> Job);

  /// Jobs queued but not yet picked up by a worker. The admission
  /// controller of the serve loop sheds load when this crosses
  /// ServiceOptions::MaxQueueDepth (docs/ROBUSTNESS.md); like any queue
  /// probe it is advisory — the depth can change before the caller acts.
  size_t queueDepth() const;

  /// Blocks until the queue is empty and no job is running.
  void waitIdle();

  /// Executor: runs Body(0..N-1) across the workers *and* the calling
  /// thread, each helper under the caller's ambient budget; returns when
  /// all indices completed. Safe to call from inside
  /// a pool job (see the file comment). If a body throws, the first
  /// exception is rethrown here once every claimed index has finished
  /// (indices not yet started are skipped).
  void parallelFor(size_t N, const std::function<void(size_t)> &Body) override;

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  mutable std::mutex Mutex;
  std::condition_variable WorkReady;
  std::condition_variable Idle;
  size_t ActiveJobs = 0;
  bool Stopping = false;
};

} // namespace service
} // namespace dprle

#endif // DPRLE_SERVICE_THREADPOOL_H
