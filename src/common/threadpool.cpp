#include "mh/common/threadpool.h"

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>

#include "mh/common/error.h"
#include "mh/common/trace.h"

namespace mh {

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) throw InvalidArgumentError("ThreadPool needs >= 1 thread");
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  shutdown();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      throw IllegalStateError("submit() on a shut-down ThreadPool");
    }
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::workerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

void ThreadPool::growTo(size_t threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutting_down_) {
    throw IllegalStateError("growTo() on a shut-down ThreadPool");
  }
  while (workers_.size() < threads) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

size_t ThreadPool::threadCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
}

namespace {

/// The I/O helpers shared by every forEachHelped() call in the process:
/// created on the first call that asks for one, grown to the widest call
/// since, never shrunk.
ThreadPool& ioHelpers(size_t helpers) {
  static ThreadPool pool(helpers);
  pool.growTo(helpers);
  return pool;
}

/// What one call shares with its helpers. `body` is dereferenced only
/// after claiming an index below `n`, and the call returns only once every
/// index has finished, so a late helper never reaches it.
struct HelpedLoop {
  HelpedLoop(size_t count, const std::function<void(size_t)>& fn)
      : n(count), body(&fn), done(static_cast<std::ptrdiff_t>(count)) {}

  /// Claims and runs indices until none is left. noexcept: a throwing body
  /// is a bug and terminates rather than vanishing into a helper's future.
  void run() noexcept {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      (*body)(i);
      done.count_down();
    }
  }

  const size_t n;
  const std::function<void(size_t)>* const body;
  std::atomic<size_t> next{0};
  std::latch done;  ///< counts down once per finished index
};

}  // namespace

size_t forEachHelped(size_t n, size_t width,
                     const std::function<void(size_t)>& body) {
  const size_t helpers = n > 1 && width > 1 ? std::min(n, width) - 1 : 0;
  if (helpers == 0) {
    HelpedLoop(n, body).run();
    return 0;
  }
  const auto loop = std::make_shared<HelpedLoop>(n, body);
  ThreadPool& pool = ioHelpers(helpers);
  const TraceContext ctx = currentTraceContext();
  for (size_t h = 0; h < helpers; ++h) {
    pool.submit([loop, ctx] {
      const TraceContextScope trace_scope(ctx);
      loop->run();
    });
  }
  loop->run();
  loop->done.wait();
  return helpers;
}

}  // namespace mh
