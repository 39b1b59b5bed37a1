// Fixture: no finding. The shared-state rule exempts the thread pool
// itself, the one place concurrency primitives may live.
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

class ThreadPool {
 private:
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
};
