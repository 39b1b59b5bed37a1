#include "common/thread_pool.hpp"

#include <algorithm>

namespace cloudqc {

int ThreadPool::default_num_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 64u));
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = default_num_threads();
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      // Drain the queue even when stopping: destruction waits for queued
      // work rather than dropping futures into broken-promise state.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

bool ThreadPool::on_worker_thread() const {
  // workers_ is immutable after construction, so reading ids is safe.
  const auto id = std::this_thread::get_id();
  for (const auto& worker : workers_) {
    if (worker.get_id() == id) return true;
  }
  return false;
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || n <= 1 || pool->on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool->submit([&fn, i] { fn(i); }));
  }
  // Collect in index order so the lowest-index exception wins and failure
  // behaviour is deterministic.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace cloudqc
