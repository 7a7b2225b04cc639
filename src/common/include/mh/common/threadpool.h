#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

/// \file threadpool.h
/// Worker pool. TaskTrackers use one fixed pool per tracker (its "task
/// slots"); benchmarks use pools for parallel data generation; DFS clients
/// share one pool of block-read helpers, grown to the widest read asked for.

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

  /// Blocks until every queued and running task has finished.
  void waitIdle();

  /// Stops accepting work; running tasks finish, queued tasks still run.
  void shutdown();

  size_t threadCount() const;

 private:
  void enqueue(std::function<void()> task);
  void workerLoop();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t active_ = 0;
  bool shutting_down_ = false;
};

}  // namespace mh
