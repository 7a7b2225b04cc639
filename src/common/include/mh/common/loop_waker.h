#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stop_token>

/// \file loop_waker.h
/// The one wait every daemon loop uses between rounds (JobTracker and
/// NameNode monitors, TaskTracker and DataNode heartbeats).

namespace mh {

/// Sleeps a loop for up to its interval, waking the moment its stop token
/// fires or another thread calls ring(). Rings coalesce: any number of them
/// before the sleeper wakes cost one early round, and a ring that lands
/// while the loop is busy makes its next wait return at once.
class LoopWaker {
 public:
  /// Returns true when a ring ended (or preempted) the wait, consuming it;
  /// false on timeout or stop.
  bool waitFor(const std::stop_token& token,
               std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool rung =
        cv_.wait_for(lock, token, timeout, [this] { return rung_; });
    rung_ = false;
    return rung;
  }

  void ring() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      rung_ = true;
    }
    cv_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable_any cv_;
  bool rung_ = false;
};

}  // namespace mh
