// Minimal discrete-event queue: (time, sequence, payload) min-heap. The
// sequence number makes simultaneous events FIFO-stable so simulations are
// deterministic for a fixed seed. Payloads are trivially copyable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace cloudqc {

using SimTime = double;

template <typename Payload>
class EventQueue {
 public:
  void push(SimTime time, Payload payload) {
    CLOUDQC_DCHECK(time >= 0.0);
    heap_.push_back(Entry{time, next_seq_++, payload});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  SimTime next_time() const {
    CLOUDQC_CHECK(!heap_.empty());
    return heap_.front().time;
  }

  /// Pop the earliest event; returns (time, payload).
  std::pair<SimTime, Payload> pop() {
    CLOUDQC_CHECK(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Entry e = heap_.back();
    heap_.pop_back();
    return {e.time, e.payload};
  }

  /// Remove every event whose payload satisfies `pred` (called once per
  /// entry, in storage order). Survivors keep their (time, seq) keys, so
  /// their relative pop order is unchanged after the heap is rebuilt.
  /// Returns the number of events removed. O(n).
  template <typename Pred>
  std::size_t remove_if(Pred pred) {
    const auto keep_end =
        std::remove_if(heap_.begin(), heap_.end(),
                       [&](const Entry& e) { return pred(e.payload); });
    const std::size_t removed =
        static_cast<std::size_t>(heap_.end() - keep_end);
    if (removed > 0) {
      heap_.erase(keep_end, heap_.end());
      std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    return removed;
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Payload payload;
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  // Every sift copies entries, so they must stay plain records: a payload
  // that owns memory belongs in a side table the payload indexes.
  static_assert(std::is_trivially_copyable_v<Entry>,
                "event payloads must be trivially copyable");
  /// Min-heap over (time, seq) maintained with the std heap algorithms.
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace cloudqc
