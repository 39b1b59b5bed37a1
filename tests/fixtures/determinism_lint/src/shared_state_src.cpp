// Fixture: exactly one shared-state finding. This file lives under a
// `src/` path segment, so the rule applies: a std::mutex member is
// flagged, a type named `thread` outside namespace std is not.
#include <mutex>

namespace my {
struct thread {};  // not std::thread
}  // namespace my

class Counter {
 public:
  void add() { ++count_; }

 private:
  my::thread owner_;
  std::mutex mutex_;  // finding: cross-thread state outside the pool
  int count_ = 0;
};
