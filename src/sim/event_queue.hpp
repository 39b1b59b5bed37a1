// Discrete-event queue ordered by (time, sequence). The sequence number
// makes simultaneous events FIFO-stable, so simulations are deterministic
// for a fixed seed. Payloads are trivially copyable.
//
// An event goes either to a binary min-heap (push) or to one of kLanes
// FIFO lanes (push_lane). A lane takes events whose times arrive in
// non-decreasing order. The simulator gives each local-gate class a lane:
// a gate of class c always finishes at now + duration[c], and the clock
// never runs backwards, so each lane is already sorted by (time, seq) and
// costs O(1) per push and pop instead of O(log n). pop() takes the least
// (time, seq) among the lane heads and the heap top. Keys are unique, so
// the pop sequence is exactly that of one heap fed the same pushes. The
// queue keeps track of where that least entry sits: a push compares its
// entry with it, and only pop() and remove_if() rescan the lane heads, so
// next_time() is O(1) and a pop scans the lanes once.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace cloudqc {

using SimTime = double;

template <typename Payload, std::size_t kLanes = 0>
class EventQueue {
 public:
  /// Schedule an event on the heap, at any time >= 0.
  void push(SimTime time, Payload payload) {
    CLOUDQC_DCHECK(time >= 0.0);
    heap_.push_back(Entry{time, next_seq_++, payload});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    // The heap top is the heap's least entry, so it is the queue's front
    // iff it beats the front it competes with.
    if (front_ == kNone || (front_ != kHeap && head(front_) > heap_.front())) {
      front_ = kHeap;
    }
  }

  /// Schedule an event on FIFO lane `lane`. Over the queue's life, the
  /// pushes to one lane must come in non-decreasing time order. This is
  /// always checked: a violation would reorder pops silently.
  void push_lane(std::size_t lane, SimTime time, Payload payload) {
    Lane& l = lanes_[lane];
    CLOUDQC_CHECK_MSG(time >= l.last_time,
                      "lane events must be pushed in time order");
    l.last_time = time;
    const bool was_empty = l.head == l.entries.size();
    l.entries.push_back(Entry{time, next_seq_++, payload});
    ++lane_size_;
    // Behind a non-empty lane's head the entry cannot be the front.
    if (was_empty && (front_ == kNone || head(front_) > l.entries[l.head])) {
      front_ = lane;
    }
  }

  bool empty() const { return heap_.empty() && lane_size_ == 0; }
  std::size_t size() const { return heap_.size() + lane_size_; }

  SimTime next_time() const {
    CLOUDQC_CHECK(!empty());
    return head(front_).time;
  }

  /// Pop the earliest event; returns (time, payload).
  std::pair<SimTime, Payload> pop() {
    CLOUDQC_CHECK(!empty());
    const Entry e = head(front_);
    if (front_ == kHeap) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
    } else {
      Lane& l = lanes_[front_];
      --lane_size_;
      if (++l.head == l.entries.size()) {
        l.entries.clear();
        l.head = 0;
      } else if (2 * l.head > l.entries.size()) {
        // Compact once the head passes half the lane: O(1) amortized.
        l.entries.erase(l.entries.begin(),
                        l.entries.begin() +
                            static_cast<std::ptrdiff_t>(l.head));
        l.head = 0;
      }
    }
    front_ = find_front();
    return {e.time, e.payload};
  }

  /// Remove every event whose payload satisfies `pred` (called once per
  /// entry: the lanes in order, each front to back, then the heap in
  /// storage order). Survivors keep their (time, seq) keys and each lane
  /// keeps its order, so their relative pop order is unchanged. Returns
  /// the number of events removed. O(n).
  template <typename Pred>
  std::size_t remove_if(Pred pred) {
    const auto matches = [&](const Entry& e) { return pred(e.payload); };
    std::size_t removed = 0;
    for (Lane& l : lanes_) {
      const auto keep_end = std::remove_if(
          l.entries.begin() + static_cast<std::ptrdiff_t>(l.head),
          l.entries.end(), matches);
      removed += static_cast<std::size_t>(l.entries.end() - keep_end);
      l.entries.erase(keep_end, l.entries.end());
    }
    lane_size_ -= removed;
    const auto keep_end = std::remove_if(heap_.begin(), heap_.end(), matches);
    const std::size_t from_heap =
        static_cast<std::size_t>(heap_.end() - keep_end);
    if (from_heap > 0) {
      heap_.erase(keep_end, heap_.end());
      std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    front_ = find_front();
    return removed + from_heap;
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

  /// A FIFO of events in (time, seq) order: the live ones are
  /// entries[head..].
  struct Lane {
    std::vector<Entry> entries;
    std::size_t head = 0;
    SimTime last_time = std::numeric_limits<SimTime>::lowest();
  };

  /// Where an entry sits: a lane index, kHeap for the heap top, or kNone
  /// when the queue is empty.
  static constexpr std::size_t kHeap = kLanes;
  static constexpr std::size_t kNone = kLanes + 1;

  /// The first entry of `from` (a lane index or kHeap), which must hold
  /// one.
  const Entry& head(std::size_t from) const {
    if (from == kHeap) return heap_.front();
    const Lane& l = lanes_[from];
    return l.entries[l.head];
  }

  /// Where the least (time, seq) entry sits, by a scan of the lane heads
  /// and the heap top.
  std::size_t find_front() const {
    std::size_t from = heap_.empty() ? kNone : kHeap;
    for (std::size_t i = 0; i < kLanes; ++i) {
      const Lane& l = lanes_[i];
      if (l.head == l.entries.size()) continue;
      if (from == kNone || head(from) > l.entries[l.head]) from = i;
    }
    return from;
  }

  /// Min-heap over (time, seq) maintained with the std heap algorithms.
  std::vector<Entry> heap_;
  std::array<Lane, kLanes> lanes_{};
  std::size_t lane_size_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Where pop() takes its entry from (see find_front()).
  std::size_t front_ = kNone;
};

}  // namespace cloudqc
