// A fixed set of worker threads draining one FIFO queue.
//
// Design-space exploration synthesizes many independent design points
// (Section 1.2: "several designs for the same specification in a
// reasonable amount of time"); parallelFor runs those points concurrently
// on workers it owns for the length of one call. The serve daemon keeps
// one ThreadPool for its lifetime and queues requests behind busy
// workers; they start in the order they were submitted.
//
// Determinism contract: the workers schedule *execution*, never
// *results*. parallelFor hands every index a distinct output slot, so the
// values produced are identical at any thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mphls {

class ThreadPool {
 public:
  /// Spawns `numThreads` workers (clamped to >= 1). Each worker registers
  /// a stable tracer track named "<namePrefix>-<index>" so spans executed
  /// on it land on named per-worker lanes in the trace viewer.
  ThreadPool(int numThreads, const std::string& namePrefix);

  /// Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Queue a task; tasks start in submission order. A task must not throw:
  /// an exception escaping it ends the program, as from a std::thread.
  void submit(std::function<void()> task);

 private:
  void workerLoop(const std::string& trackName);

  std::mutex m_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;  ///< guarded by m_
  bool stop_ = false;                        ///< guarded by m_
  std::vector<std::thread> threads_;
};

/// Resolve a `jobs` option to a worker count: <= 0 means "one per hardware
/// thread", anything else is taken literally.
[[nodiscard]] int resolveJobs(int jobs);

/// Run `fn(index)` for every index in [0, n). With
/// k = min(resolveJobs(jobs), n) <= 1 every iteration runs inline on the
/// caller, in index order; otherwise k workers named "<prefix>-<i>"
/// claim indices off a shared counter. Blocks until all iterations
/// finish; the first exception thrown by any iteration is rethrown on the
/// caller after the remaining iterations complete.
void parallelFor(int jobs, std::size_t n, const std::string& prefix,
                 const std::function<void(std::size_t)>& fn);

}  // namespace mphls
