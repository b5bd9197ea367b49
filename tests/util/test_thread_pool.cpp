#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

namespace mlaas {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i) {
    futs.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(500, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 500);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, TaskExceptionsPropagateViaFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsAfterAllTasksComplete) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      if (i == 99) throw std::runtime_error("task 99 failed");
      completed.fetch_add(1);
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 99 failed");
  }
  // Every other index ran to completion before the rethrow: the loop must
  // not abandon in-flight chunks (their callable would dangle).
  EXPECT_EQ(completed.load(), 99);
}

TEST(ThreadPool, ParallelForFirstExceptionWins) {
  ThreadPool pool(2);
  // Two failing indices across different chunks: exactly one exception
  // surfaces, and it is the one from the lowest-index chunk joined first.
  try {
    pool.parallel_for(10, [&](std::size_t i) {
      if (i == 0 || i == 9) throw std::runtime_error("fail " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fail 0");
  }
}

TEST(ThreadPool, ParallelForHandlesZeroAndHugeCounts) {
  ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Far more indices than workers: chunking must still cover every index
  // exactly once.
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RejectsAbsurdThreadCounts) {
  // The historical bug: --threads -1 cast through size_t asked for ~2^64
  // workers and took the process down.  The pool now rejects anything past
  // its defensive ceiling instead of trying to spawn it.
  EXPECT_THROW(ThreadPool(static_cast<std::size_t>(-1)), std::invalid_argument);
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxThreads + 1), std::invalid_argument);
}

TEST(ThreadPool, DynamicCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_dynamic(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, DynamicEmptyRangeIsANoop) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelStats stats;
  pool.parallel_for_dynamic(0, [&](std::size_t) { ++calls; }, &stats);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(stats.stolen, 0u);
  EXPECT_EQ(stats.makespan_seconds, 0.0);
  for (double busy : stats.busy_seconds) EXPECT_EQ(busy, 0.0);
}

TEST(ThreadPool, DynamicPropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for_dynamic(100, [&](std::size_t i) {
      if (i == 3) throw std::runtime_error("item 3 failed");
      completed.fetch_add(1);
    });
    FAIL() << "expected the item exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "item 3 failed");
  }
  // After the failure workers stop claiming fresh tickets, so not every
  // index needs to have run — but nothing may run twice or crash.
  EXPECT_LE(completed.load(), 99);
}

TEST(ThreadPool, DynamicStatsAccountForEveryItem) {
  ThreadPool pool(3);
  ParallelStats stats;
  pool.parallel_for_dynamic(50, [](std::size_t) {}, &stats);
  EXPECT_EQ(stats.busy_seconds.size(), stats.items.size());
  std::size_t total = 0;
  for (std::size_t n : stats.items) total += n;
  EXPECT_EQ(total, 50u);
  EXPECT_GE(stats.makespan_seconds, 0.0);
  for (double busy : stats.busy_seconds) EXPECT_GE(busy, 0.0);
}

TEST(ThreadPool, DynamicStealsFromSkewedWork) {
  // One item sleeps while the rest are instant.  With a static partition,
  // the sleeper's owner would also run its other 3 items; dynamic dispatch
  // moves them to the idle worker, which the stolen counter must record.
  ThreadPool pool(2);
  ParallelStats stats;
  pool.parallel_for_dynamic(
      8,
      [](std::size_t i) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
      },
      &stats);
  EXPECT_GE(stats.stolen, 1u);
  std::size_t total = 0;
  for (std::size_t n : stats.items) total += n;
  EXPECT_EQ(total, 8u);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace mlaas
