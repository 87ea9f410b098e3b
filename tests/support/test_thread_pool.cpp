#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace dhtrng::support {
namespace {

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForWritesDisjointSlots) {
  // The deterministic-merge pattern run_suite uses across SP 800-22 sets:
  // each index writes its own slot, and the merged result is independent of
  // the worker count.
  std::vector<std::size_t> expect(257);
  std::iota(expect.begin(), expect.end(), std::size_t{0});
  for (std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    std::vector<std::size_t> out(expect.size(), 0);
    pool.parallel_for(0, out.size(), [&](std::size_t i) { out[i] = i; });
    EXPECT_EQ(out, expect) << workers << " workers";
  }
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, TaskExceptionSurfacesAtFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // Pool still works afterwards.
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; }).get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 64,
                                 [](std::size_t i) {
                                   if (i == 13) throw std::logic_error("13");
                                 }),
               std::logic_error);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace dhtrng::support
