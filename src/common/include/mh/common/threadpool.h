#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

/// \file threadpool.h
/// Worker pools. Each TaskTracker runs its task slots on two fixed pools
/// (map and reduce). forEachHelped() fans the process's parallel I/O, DFS
/// block reads and shuffle fetches, out over one shared helper pool.

namespace mh {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1).
  explicit ThreadPool(size_t threads);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future for its result. Tasks submitted after
  /// shutdown() throw IllegalStateError.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task]() { (*task)(); });
    return result;
  }

  /// Adds workers until there are at least `threads`; never removes any.
  /// Throws IllegalStateError after shutdown().
  void growTo(size_t threads);

  /// Stops accepting work; running tasks finish, queued tasks still run.
  void shutdown();

  size_t threadCount() const;

 private:
  void enqueue(std::function<void()> task);
  void workerLoop();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutting_down_ = false;
};

/// Runs `body(i)` exactly once for every i < n, with up to `width` indices
/// in flight, and returns when all have finished. Indices are claimed in
/// order by the calling thread and by up to min(n, width) - 1 helpers from
/// one process-wide pool, which grows to the widest width asked for and
/// never shrinks, so a call creates no thread of its own. Helpers run
/// under the caller's TraceContext. The caller waits only for indices a
/// helper has already claimed: when the pool is busy it runs every index
/// itself. A helper that starts after the call returned finds nothing to
/// claim and touches only the call's shared claim state, never `body`.
/// An exception escaping `body` terminates the process; a body records
/// its failures per index. Returns the number of helpers asked for (0 when
/// n <= 1 or width <= 1: the caller runs everything, nothing is queued).
size_t forEachHelped(size_t n, size_t width,
                     const std::function<void(size_t)>& body);

}  // namespace mh
