#include "mh/common/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "mh/common/error.h"

namespace mh {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw IoError("disk gone"); });
  EXPECT_THROW(f.get(), IoError);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilDrained) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++done;
    });
  }
  pool.waitIdle();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), IllegalStateError);
}

TEST(ThreadPoolTest, GrowToOnlyAddsWorkers) {
  ThreadPool pool(1);
  pool.growTo(3);
  EXPECT_EQ(pool.threadCount(), 3u);
  pool.growTo(2);  // never shrinks
  EXPECT_EQ(pool.threadCount(), 3u);
  // All three run at once: each task waits until every one has started.
  std::atomic<int> started{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(pool.submit([&started] {
      ++started;
      while (started.load() < 3) std::this_thread::yield();
    }));
  }
  for (auto& f : futures) f.get();
  pool.shutdown();
  EXPECT_THROW(pool.growTo(4), IllegalStateError);
}

TEST(ThreadPoolTest, ZeroThreadsRejected) {
  EXPECT_THROW(ThreadPool(0), InvalidArgumentError);
}

TEST(ThreadPoolTest, ParallelismActuallyHappens) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit([&] {
      const int now = ++concurrent;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --concurrent;
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_GE(peak.load(), 2);
}

}  // namespace
}  // namespace mh
