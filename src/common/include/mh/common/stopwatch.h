#pragma once

#include <chrono>
#include <cstdint>

/// \file stopwatch.h
/// Wall-clock timer over std::chrono::steady_clock for live-layer
/// measurements (benchmarks use google-benchmark's own timing; this is for
/// counters and progress reporting).

namespace mh {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void restart() { start_ = std::chrono::steady_clock::now(); }

  int64_t elapsedMillis() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  int64_t elapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  int64_t elapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  double elapsedSeconds() const {
    return static_cast<double>(elapsedMicros()) / 1e6;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mh
