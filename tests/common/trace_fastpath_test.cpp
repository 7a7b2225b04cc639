// The disabled-tracing contract, CI-gated: instrumentation left compiled
// into every hot path (RPC dispatch, task loops, DFS reads) must cost one
// relaxed atomic load per would-be event when tracing is off — no heap
// allocation, no span-id allocation, and (by construction, asserted
// indirectly here) no clock read. This file overrides global operator new
// to count allocations, so it builds as its own test binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "mh/common/trace.h"
#include "testutil/sanitizers.h"
#include "testutil/thread_cpu.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mh {
namespace {

TEST(TraceFastPathTest, DisabledTracingAllocatesNothing) {
  TraceCollector tc;
  ASSERT_FALSE(tc.enabled());

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10'000; ++i) {
    tc.instant("tasktracker.node01", "MAP m0 a0");
    TraceSpan span(&tc, "tasktracker.node01", "MAP m0 a0");
    span.arg("job", "1");
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u) << "disabled tracing must not allocate";
  EXPECT_EQ(tc.idsAllocated(), 0u)
      << "disabled tracing must not allocate span ids";
  EXPECT_EQ(tc.size(), 0u);
}

TEST(TraceFastPathTest, DisabledInstantCostsUnder100Nanoseconds) {
  if (testutil::kSanitized) {
    GTEST_SKIP() << "CPU-time bounds are not checked in sanitizer builds";
  }
  // Timed on this thread's CPU clock, so a busy host stretches the wall
  // clock of the loop but not its cost.
  constexpr int kCalls = 10'000'000;
  TraceCollector tc;
  const int64_t micros = testutil::bestOfThreeThreadCpuMicros([&] {
    for (int i = 0; i < kCalls; ++i) tc.instant("bench", "NOP");
  });
  const double ns_per_call = static_cast<double>(micros) * 1000.0 / kCalls;
  EXPECT_LT(ns_per_call, 100.0);
}

TEST(TraceFastPathTest, AmbientContextReadIsAllocationFree) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  uint64_t sink = 0;
  for (int i = 0; i < 10'000; ++i) sink += currentTraceContext().trace_id;
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(sink, 0u);
  EXPECT_EQ(after - before, 0u);
}

TEST(TraceFastPathTest, EnabledTracingDoesAllocate) {
  // Sanity check that the counter actually observes the traced path, so
  // the zero deltas above are meaningful.
  TraceCollector tc;
  tc.setEnabled(true);
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  tc.instant("c", "event");
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(after - before, 0u);
  EXPECT_EQ(tc.size(), 1u);
}

}  // namespace
}  // namespace mh
