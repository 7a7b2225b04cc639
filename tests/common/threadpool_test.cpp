#include "mh/common/threadpool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <thread>
#include <vector>

#include "mh/common/error.h"
#include "mh/common/trace.h"

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

// forEachHelped's pool is process-wide and grows to the widest width asked
// for. No test here asks for more than kWidest, so kWidest indices that
// block occupy the caller and every worker the pool can have.
constexpr size_t kWidest = 64;

/// Runs a width-kWidest call on its own thread whose every index blocks
/// until `release()`: the parker's thread and every pool worker are then
/// parked in it.
class PoolParker {
 public:
  PoolParker()
      : thread_([this] {
          forEachHelped(kWidest, kWidest, [this](size_t) {
            ++parked_;
            gate_.wait();
          });
        }) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (parked_.load() < kWidest &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~PoolParker() { release(); }

  size_t parked() const { return parked_.load(); }

  void release() {
    if (!thread_.joinable()) return;
    gate_.count_down();
    thread_.join();
  }

 private:
  std::latch gate_{1};
  std::atomic<size_t> parked_{0};
  std::thread thread_;
};

TEST(ForEachHelpedTest, EveryIndexRunsExactlyOnce) {
  for (const size_t n : {0, 1, 2, 7, 100}) {
    for (const size_t width : {1, 2, 5, 64}) {
      std::vector<std::atomic<int>> runs(n);
      const size_t helpers =
          forEachHelped(n, width, [&](size_t i) { ++runs[i]; });
      EXPECT_EQ(helpers, n > 1 && width > 1 ? std::min(n, width) - 1 : 0)
          << "n=" << n << " width=" << width;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "n=" << n << " width=" << width << " i=" << i;
      }
    }
  }
}

TEST(ForEachHelpedTest, NarrowCallsRunOnTheCallerAndQueueNothing) {
  for (const auto& [n, width] : {std::pair<size_t, size_t>{7, 1},
                                {0, 64},
                                {1, 64}}) {
    std::vector<std::thread::id> ran_on(n);
    EXPECT_EQ(forEachHelped(n, width,
                            [&](size_t i) {
                              ran_on[i] = std::this_thread::get_id();
                            }),
              0u)
        << "n=" << n << " width=" << width;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ran_on[i], std::this_thread::get_id())
          << "n=" << n << " width=" << width << " i=" << i;
    }
  }
}

TEST(ForEachHelpedTest, HelpersRunUnderTheCallersTraceContext) {
  const TraceContext ctx{.trace_id = 41, .span_id = 42, .parent_span_id = 43};
  const TraceContextScope scope(ctx);
  constexpr size_t kN = 8;
  std::vector<TraceContext> seen(kN);
  std::vector<std::thread::id> ran_on(kN);
  std::atomic<bool> helper_ran{false};
  const std::thread::id caller = std::this_thread::get_id();
  forEachHelped(kN, 4, [&](size_t i) {
    seen[i] = currentTraceContext();
    ran_on[i] = std::this_thread::get_id();
    if (ran_on[i] != caller) {
      helper_ran = true;
      return;
    }
    // Hold the caller in its first index so helpers claim the rest.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!helper_ran && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ASSERT_TRUE(helper_ran) << "no helper ran an index";
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(seen[i].trace_id, ctx.trace_id) << i;
    EXPECT_EQ(seen[i].span_id, ctx.span_id) << i;
    EXPECT_EQ(seen[i].parent_span_id, ctx.parent_span_id) << i;
  }
}

TEST(ForEachHelpedTest, BusyPoolDoesNotStallTheCaller) {
  constexpr size_t kN = 10;
  std::atomic<size_t> runs{0};
  std::vector<std::thread::id> ran_on(kN);
  {
    PoolParker busy;
    ASSERT_EQ(busy.parked(), kWidest) << "the pool never filled";
    // Every worker is parked, so this call's helpers can only queue: the
    // caller must run every index itself and return without them.
    EXPECT_EQ(forEachHelped(kN, 5,
                            [&](size_t i) {
                              ++runs;
                              ran_on[i] = std::this_thread::get_id();
                            }),
              4u);
    EXPECT_EQ(runs.load(), kN);
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(ran_on[i], std::this_thread::get_id()) << i;
    }
  }
  // The four queued helpers ran once the parker released the pool. Park it
  // again: with every worker inside the new call, the pool has dequeued
  // and finished every older task, and none of them ran `body`.
  PoolParker again;
  ASSERT_EQ(again.parked(), kWidest);
  again.release();
  EXPECT_EQ(runs.load(), kN);
}

}  // namespace
}  // namespace mh
