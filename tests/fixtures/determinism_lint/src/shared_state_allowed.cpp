// Fixture: exactly one shared-state finding, unsuppressed. An allow
// comment silences other rules, but not this one: library code under a
// `src/` path segment keeps cross-thread state in the thread pool only.
#include <atomic>

class Counter {
 public:
  void add() { calls_.fetch_add(1); }

 private:
  // det-lint: allow(shared-state) an allow comment does not count here
  std::atomic<int> calls_{0};
};
