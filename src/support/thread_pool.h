// Fixed-size worker pool — the concurrency substrate for the parallel
// statistical-suite paths (run_suite, permutation_iid_test).
//
// Design constraints, in order:
//  * determinism of *results* must never depend on scheduling: callers
//    partition work up front and merge in a fixed order, the pool only
//    supplies CPU time;
//  * bounded resources: a fixed number of std::thread workers created at
//    construction, no dynamic spawning;
//  * exceptions thrown by a task surface at the join point (the future, or
//    the parallel_for call), never terminate a worker.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace dhtrng::support {

class ThreadPool {
 public:
  /// Spawns `n_threads` workers (at least 1; 0 is clamped to 1).
  explicit ThreadPool(std::size_t n_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue one task; the future reports completion (and rethrows any
  /// exception the task raised).
  std::future<void> submit(std::function<void()> task);

  /// Run body(i) for every i in [begin, end), partitioned into one
  /// contiguous chunk per worker, and block until all chunks finish.
  /// The first task exception (lowest chunk index) is rethrown here.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_threads();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dhtrng::support
