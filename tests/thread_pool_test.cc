#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace pilote {
namespace {

// Stress coverage for the pool's dispatch and shutdown paths. These tests
// are the TSan preset's main workload for common/thread_pool: run them in a
// -DPILOTE_SANITIZE=thread build to race-check the queue, the completion
// latch, and destruction.

TEST(ThreadPoolStressTest, ConcurrentParallelForFromManyClients) {
  ThreadPool pool(4);
  constexpr int kClients = 4;
  constexpr int kItersPerClient = 25;
  constexpr int64_t kCount = 64;
  std::atomic<int64_t> total{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&pool, &total] {
      for (int it = 0; it < kItersPerClient; ++it) {
        pool.ParallelFor(kCount, [&total](int64_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(total.load(), kClients * kItersPerClient * kCount);
}

TEST(ThreadPoolStressTest, ConcurrentRangeDispatchCoversEverything) {
  ThreadPool pool(3);
  constexpr int kClients = 3;
  std::atomic<int64_t> covered{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&pool, &covered] {
      for (int it = 0; it < 20; ++it) {
        pool.ParallelForRanges(257, [&covered](int64_t begin, int64_t end) {
          covered.fetch_add(end - begin, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(covered.load(), kClients * 20 * 257);
}

TEST(ThreadPoolStressTest, RapidConstructRunDestroyCycles) {
  // Exercises worker startup and the shutdown handshake back to back; under
  // TSan this is the main producer of construction/destruction races.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(3);
    std::atomic<int> hits{0};
    pool.ParallelFor(17, [&](int64_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(hits.load(), 17);
  }
}

TEST(ThreadPoolStressTest, DestroyWithoutSubmittingWork) {
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(2);
    EXPECT_EQ(pool.num_threads(), 2);
  }
}

TEST(ThreadPoolStressTest, ShutdownRacesWithFinalCompletion) {
  // The destructor runs immediately after ParallelFor returns, while worker
  // threads may still be between the completion notification and the next
  // queue wait.
  for (int round = 0; round < 30; ++round) {
    ThreadPool pool(4);
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(4, [&](int64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 6);
  }
}

// Overwrites the stack bytes a just-returned ParallelForRanges frame used.
__attribute__((noinline)) void ClobberStack() {
  volatile unsigned char bytes[1024];
  for (size_t i = 0; i < sizeof(bytes); ++i) bytes[i] = 0xA5;
}

TEST(ThreadPoolStressTest, BackToBackShortRangeCallsOutliveTheirLatch) {
  // ParallelForRanges keeps its completion latch (counter, mutex, condvar)
  // in the caller's frame. Short calls back to back, each followed by a
  // call that reuses those stack bytes, race the last worker's notify
  // against the caller's return: a worker that still touches the latch
  // after the caller saw completion locks garbage (a glibc mutex
  // assertion), and the TSan build reports the race on the latch.
  // Oversubscribing the pool makes it likelier that a worker is preempted
  // between finishing its chunk and signalling completion.
  constexpr int kThreads = 8;
  ThreadPool pool(kThreads);
  for (int round = 0; round < 10000; ++round) {
    std::atomic<int64_t> covered{0};
    pool.ParallelForRanges(kThreads, [&covered](int64_t begin, int64_t end) {
      covered.fetch_add(end - begin, std::memory_order_relaxed);
    });
    ASSERT_EQ(covered.load(std::memory_order_relaxed), kThreads)
        << "round " << round;
    ClobberStack();
  }
}

TEST(ThreadPoolTest, RangesAreNonEmptyAndTileTheCount) {
  // Rounding the chunk size up must not leave trailing tasks with empty or
  // inverted ranges: 128 rows on 20 threads is 19 chunks of 7, not 20
  // chunks whose last ones start past the end. Callers such as the GEMM
  // row kernels size a memset by end - begin.
  const std::pair<int, int64_t> cases[] = {
      {4, 5}, {20, 128}, {12, 64}, {14, 128}, {24, 128}, {3, 257}};
  for (const auto& [threads, count] : cases) {
    ThreadPool pool(threads);
    Mutex mutex;
    std::vector<std::pair<int64_t, int64_t>> ranges;
    pool.ParallelForRanges(count, [&](int64_t begin, int64_t end) {
      MutexLock lock(mutex);
      ranges.emplace_back(begin, end);
    });
    std::sort(ranges.begin(), ranges.end());
    ASSERT_FALSE(ranges.empty());
    EXPECT_LE(static_cast<int64_t>(ranges.size()), threads);
    int64_t next = 0;
    for (const auto& [begin, end] : ranges) {
      EXPECT_LT(begin, end) << threads << " threads, count " << count;
      EXPECT_EQ(begin, next) << threads << " threads, count " << count;
      next = end;
    }
    EXPECT_EQ(next, count) << threads << " threads, count " << count;
  }
}

TEST(ThreadPoolTest, GlobalPoolIsStable) {
  ThreadPool* first = &ThreadPool::Global();
  ThreadPool* second = &ThreadPool::Global();
  EXPECT_EQ(first, second);
  EXPECT_GE(first->num_threads(), 1);
}

TEST(ThreadPoolTest, OversubscribedCountStillCoversAllIndices) {
  // More chunks requested than workers: the queue must drain fully even
  // when every worker has a backlog.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace pilote
