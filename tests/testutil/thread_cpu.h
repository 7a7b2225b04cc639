#pragma once

#include <time.h>

#include <algorithm>
#include <cstdint>

/// \file thread_cpu.h
/// CPU time on the calling thread's clock (CLOCK_THREAD_CPUTIME_ID), for
/// perf gates that must hold beside other processes: a sibling burning CPU
/// delays this thread's wall clock, never its CPU time.

namespace mh::testutil {

/// Least CPU time of three runs of `work` on the calling thread, in
/// microseconds.
template <typename Fn>
int64_t bestOfThreeThreadCpuMicros(Fn&& work) {
  const auto now = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1000;
  };
  int64_t best = INT64_MAX;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t start = now();
    work();
    best = std::min(best, now() - start);
  }
  return best;
}

}  // namespace mh::testutil
