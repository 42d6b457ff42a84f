//===- ThreadPool.cpp - Fixed-size worker pool --------------------------------//

#include "service/ThreadPool.h"

#include "support/Budget.h"

#include <atomic>
#include <exception>
#include <memory>

using namespace dprle;
using namespace dprle::service;

ThreadPool::ThreadPool(unsigned Threads) {
  if (Threads == 0)
    Threads = 1;
  Workers.reserve(Threads);
  for (unsigned I = 0; I != Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::submit(std::function<void()> Job) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Job));
  }
  WorkReady.notify_one();
}

size_t ThreadPool::queueDepth() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Queue.size();
}

void ThreadPool::waitIdle() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Idle.wait(Lock, [this] { return Queue.empty() && ActiveJobs == 0; });
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Job;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkReady.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping, queue drained.
      Job = std::move(Queue.front());
      Queue.pop_front();
      ++ActiveJobs;
    }
    {
      ParallelRegionGuard Guard;
      Job();
    }
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      --ActiveJobs;
      if (Queue.empty() && ActiveJobs == 0)
        Idle.notify_all();
    }
  }
}

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Body) {
  if (N == 0)
    return;
  if (N == 1) {
    ParallelRegionGuard Guard;
    Body(0);
    return;
  }

  // Shared claiming state. Helpers that get scheduled after all indices
  // are claimed exit without touching Body, so a late-running helper can
  // never dereference the (stack-lifetime) Body: an index claim implies
  // the caller is still inside this function waiting for Done == N.
  //
  // A throwing Body must neither escape a worker (std::terminate) nor
  // unwind the caller while other threads still run bodies against its
  // stack. The first exception is kept in Error; indices claimed after it
  // are counted done without running, and the caller rethrows once every
  // claimed index has finished.
  struct State {
    std::atomic<size_t> Next{0};
    std::atomic<size_t> Done{0};
    std::atomic<bool> Failed{false};
    size_t N = 0;
    const std::function<void(size_t)> *Body = nullptr;
    /// The caller's ambient budget, installed on every helper.
    ResourceBudget *Budget = nullptr;
    std::mutex Mutex;
    std::condition_variable AllDone;
    std::exception_ptr Error; // Guarded by Mutex.
  };
  auto S = std::make_shared<State>();
  S->N = N;
  S->Body = &Body;
  S->Budget = ResourceGuard::current();

  auto Run = [S] {
    ResourceGuard BudgetScope(S->Budget);
    size_t Completed = 0;
    for (;;) {
      size_t I = S->Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= S->N)
        break;
      if (!S->Failed.load(std::memory_order_relaxed)) {
        try {
          (*S->Body)(I);
        } catch (...) {
          std::lock_guard<std::mutex> Lock(S->Mutex);
          if (!S->Error)
            S->Error = std::current_exception();
          S->Failed.store(true, std::memory_order_relaxed);
        }
      }
      ++Completed;
    }
    if (Completed == 0)
      return;
    size_t Total =
        S->Done.fetch_add(Completed, std::memory_order_acq_rel) + Completed;
    if (Total == S->N) {
      // Lock pairs with the caller's predicate check so the final
      // notification cannot slip between its check and its wait.
      std::lock_guard<std::mutex> Lock(S->Mutex);
      S->AllDone.notify_all();
    }
  };

  size_t Helpers = std::min(Workers.size(), N - 1);
  for (size_t I = 0; I != Helpers; ++I)
    submit(Run);
  {
    ParallelRegionGuard Guard;
    Run();
  }
  std::unique_lock<std::mutex> Lock(S->Mutex);
  S->AllDone.wait(Lock, [&] {
    return S->Done.load(std::memory_order_acquire) == S->N;
  });
  if (S->Error)
    std::rethrow_exception(S->Error);
}
