// Fixed-size worker-thread pool — the library's one concurrency primitive.
// Exactly three fan-outs run on it, all through parallel_for below:
// independent batch jobs (core/independent.hpp), sweep points
// (run_sweep) and racing placement strategies (make_racing_placer).
// Everything else is single-threaded.
//
// Design constraints, in order:
//   1. Determinism support: the pool never decides *what* a task computes —
//      callers derive all per-task state (RNG streams via stream_seed) from
//      the task index, so results are independent of scheduling order.
//   2. Exception safety: submit() returns a std::future; a task that throws
//      stores the exception and parallel_for rethrows the lowest-index one.
//   3. Simplicity: one mutex + condition variable. The workloads this pool
//      runs (placement searches, network simulations) are milliseconds to
//      seconds each, so queue contention is irrelevant.
//
// Race-freedom is verified, not assumed: the tsan CI job runs the
// unit+integration test labels under ThreadSanitizer (-DCLOUDQC_TSAN=ON),
// so every cross-thread handoff here must happen-before through the queue
// mutex or a future — no lock-free cleverness without a matching tsan run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace cloudqc {

class ThreadPool {
 public:
  /// `num_threads <= 0` selects default_num_threads().
  explicit ThreadPool(int num_threads = 0);

  /// Blocks until every queued and running task has finished.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Hardware concurrency, clamped to [1, 64].
  static int default_num_threads();

  /// Enqueue `fn` and return a future for its result. Exceptions thrown by
  /// `fn` are captured into the future.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Run fn(0) … fn(n-1) across `pool` and block until all complete. Runs
/// inline on the caller when `pool` is null (the serial reference every
/// worker-count comparison is made against) or n <= 1. If any invocations
/// throw, the exception of the lowest index is rethrown (deterministic
/// regardless of execution order). Safe to call from inside a pool task:
/// nested calls run inline on the calling worker (fanning them out again
/// would deadlock — every worker could end up waiting for queued subtasks
/// no thread is free to run). `fn` must write only to its own output slot
/// and read only const shared state; then results are unchanged at any
/// worker count.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace cloudqc
