#include "mh/common/threadpool.h"

#include "mh/common/error.h"

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
      ++active_;
    }
    task();  // packaged_task captures exceptions into the future
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
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

void ThreadPool::waitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
}

}  // namespace mh
