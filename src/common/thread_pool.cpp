#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "obs/trace.h"

namespace mphls {

ThreadPool::ThreadPool(int numThreads, const std::string& namePrefix) {
  const int n = std::max(numThreads, 1);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    threads_.emplace_back(
        [this, name = namePrefix + "-" + std::to_string(i)] {
          workerLoop(name);
        });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(m_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::workerLoop(const std::string& trackName) {
  obs::Tracer::global().setThreadName(trackName);
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(m_);
      wake_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

int resolveJobs(int jobs) {
  if (jobs > 0) return jobs;
  return static_cast<int>(std::max(std::thread::hardware_concurrency(), 1u));
}

void parallelFor(int jobs, std::size_t n, const std::string& prefix,
                 const std::function<void(std::size_t)>& fn) {
  const std::size_t k =
      std::min(static_cast<std::size_t>(resolveJobs(jobs)), n);
  if (k <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Dynamic self-scheduling: each runner pulls the next unclaimed index, so
  // uneven per-index cost balances automatically. Output determinism comes
  // from fn writing only to slot `i`.
  std::atomic<std::size_t> next{0};
  std::mutex errorMutex;
  std::exception_ptr first;
  {
    ThreadPool pool(static_cast<int>(k), prefix);
    for (std::size_t r = 0; r < k; ++r)
      pool.submit([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
          try {
            fn(i);
          } catch (...) {
            std::lock_guard<std::mutex> lk(errorMutex);
            if (!first) first = std::current_exception();
          }
        }
      });
  }  // ~ThreadPool: every runner has finished
  if (first) std::rethrow_exception(first);
}

}  // namespace mphls
