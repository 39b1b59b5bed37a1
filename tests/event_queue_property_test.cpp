// EventQueue: the FIFO lanes plus the heap must pop exactly what one
// binary heap keyed on (time, seq) pops. Random interleavings of lane
// pushes (monotone per lane), heap pushes, pops and remove_if are replayed
// against such a reference heap; times come from a coarse dyadic grid, so
// equal-time ties across lanes and the heap are common and the sequence
// number decides them.
//
// Iteration count: CLOUDQC_PROPERTY_ITERS (default 12; the sanitizer CI
// job lowers it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"

namespace cloudqc {
namespace {

int property_iters() {
  return static_cast<int>(env_int_or("CLOUDQC_PROPERTY_ITERS", 12));
}

constexpr std::size_t kLanes = 4;

/// The reference: one min-heap over (time, seq, payload).
class ReferenceQueue {
 public:
  void push(SimTime time, int payload) {
    heap_.emplace_back(time, next_seq_++, payload);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  SimTime next_time() const { return std::get<0>(heap_.front()); }
  std::pair<SimTime, int> pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [time, seq, payload] = heap_.back();
    heap_.pop_back();
    return {time, payload};
  }
  template <typename Pred>
  std::size_t remove_if(Pred pred) {
    const auto keep_end =
        std::remove_if(heap_.begin(), heap_.end(),
                       [&](const auto& e) { return pred(std::get<2>(e)); });
    const auto removed = static_cast<std::size_t>(heap_.end() - keep_end);
    heap_.erase(keep_end, heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    return removed;
  }

 private:
  std::vector<std::tuple<SimTime, std::uint64_t, int>> heap_;
  std::uint64_t next_seq_ = 0;
};

/// A step on the dyadic grid of 0.25: exact, so equal sums tie exactly.
SimTime grid_step(Rng& rng, std::int64_t max_quarters) {
  return 0.25 * static_cast<double>(rng.range(0, max_quarters));
}

TEST(EventQueueProperty, LanesAndHeapPopLikeOneHeap) {
  for (int iter = 0; iter < property_iters(); ++iter) {
    Rng rng(stream_seed(0xE7E7, static_cast<std::uint64_t>(iter)));
    EventQueue<int, kLanes> queue;
    ReferenceQueue reference;
    std::vector<SimTime> lane_last(kLanes, 0.0);
    SimTime clock = 0.0;  // time of the last pop
    int next_payload = 0;
    std::size_t pops = 0;
    for (int op = 0; op < 4000; ++op) {
      const double dice = rng.uniform();
      if (dice < 0.35) {
        // Lane push, like a local gate: at the lane's last time or later,
        // either a fixed lane duration after the clock or a free step.
        const auto lane = static_cast<std::size_t>(rng.below(kLanes));
        const SimTime time =
            rng.chance(0.5)
                ? std::max(lane_last[lane],
                           clock + 0.25 * static_cast<double>(lane))
                : lane_last[lane] + grid_step(rng, 3);
        lane_last[lane] = time;
        queue.push_lane(lane, time, next_payload);
        reference.push(time, next_payload);
        ++next_payload;
      } else if (dice < 0.55) {
        // Heap push, like a remote op: anywhere from 0 to a bit ahead of
        // the clock (the heap takes any order).
        const SimTime time = rng.chance(0.8)
                                 ? clock + grid_step(rng, 8)
                                 : 0.25 * static_cast<double>(rng.range(
                                              0, static_cast<std::int64_t>(
                                                     clock * 4.0)));
        queue.push(time, next_payload);
        reference.push(time, next_payload);
        ++next_payload;
      } else if (dice < 0.97) {
        ASSERT_EQ(queue.empty(), reference.empty());
        if (reference.empty()) continue;
        ASSERT_EQ(queue.next_time(), reference.next_time());
        const auto got = queue.pop();
        const auto want = reference.pop();
        ASSERT_EQ(got.first, want.first) << "iter " << iter << " op " << op;
        ASSERT_EQ(got.second, want.second) << "iter " << iter << " op " << op;
        clock = std::max(clock, got.first);
        ++pops;
      } else {
        // remove_if, like cancel_job: every payload in one residue class.
        const std::int64_t mod = rng.range(2, 7);
        const std::int64_t rest = rng.range(0, mod - 1);
        std::size_t calls = 0;
        const std::size_t before = queue.size();
        const std::size_t removed = queue.remove_if([&](int payload) {
          ++calls;
          return payload % mod == rest;
        });
        EXPECT_EQ(calls, before);  // once per entry
        ASSERT_EQ(removed, reference.remove_if([&](int payload) {
          return payload % mod == rest;
        }));
      }
      ASSERT_EQ(queue.size(), reference.size());
    }
    while (!reference.empty()) {
      ASSERT_FALSE(queue.empty());
      ASSERT_EQ(queue.pop(), reference.pop()) << "iter " << iter;
      ++pops;
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_GT(pops, 1000u);
  }
}

/// next_time() of `queue` equals the reference's whenever either holds an
/// event: the queue's cached front must be right after every operation.
template <std::size_t kN>
void expect_same_front(const EventQueue<int, kN>& queue,
                       const ReferenceQueue& reference) {
  ASSERT_EQ(queue.empty(), reference.empty());
  if (!reference.empty()) {
    ASSERT_EQ(queue.next_time(), reference.next_time());
  }
}

// The queue tracks where its least entry sits instead of rescanning the
// lanes on every next_time(). Interleave next_time() with every kind of
// update, including remove_if calls that take the front or empty the
// queue and lane pushes into an empty lane that beat the heap top; the
// small time grid makes cross-source ties common.
TEST(EventQueueProperty, NextTimeTracksEveryUpdate) {
  for (int iter = 0; iter < property_iters(); ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    Rng rng(stream_seed(0xF207, static_cast<std::uint64_t>(iter)));
    EventQueue<int, kLanes> queue;
    EventQueue<int> heap_only;
    ReferenceQueue reference;
    ReferenceQueue heap_reference;
    std::vector<SimTime> lane_last(kLanes, 0.0);
    SimTime clock = 0.0;
    int next_payload = 0;
    for (int op = 0; op < 3000; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const double dice = rng.uniform();
      if (dice < 0.3) {
        const auto lane = static_cast<std::size_t>(rng.below(kLanes));
        const SimTime time =
            std::max(lane_last[lane], clock + grid_step(rng, 2));
        lane_last[lane] = time;
        queue.push_lane(lane, time, next_payload);
        reference.push(time, next_payload);
        ++next_payload;
      } else if (dice < 0.6) {
        const SimTime time = clock + grid_step(rng, 3);
        queue.push(time, next_payload);
        reference.push(time, next_payload);
        heap_only.push(time, next_payload);
        heap_reference.push(time, next_payload);
        ++next_payload;
      } else if (dice < 0.93) {
        if (!reference.empty()) {
          const auto got = queue.pop();
          ASSERT_EQ(got, reference.pop());
          clock = std::max(clock, got.first);
        }
        if (!heap_reference.empty()) {
          ASSERT_EQ(heap_only.pop(), heap_reference.pop());
        }
      } else {
        // Sometimes everything, sometimes one residue class.
        const std::int64_t mod = rng.chance(0.2) ? 1 : rng.range(2, 4);
        const std::int64_t rest = rng.range(0, mod - 1);
        const auto pred = [&](int payload) { return payload % mod == rest; };
        ASSERT_EQ(queue.remove_if(pred), reference.remove_if(pred));
        ASSERT_EQ(heap_only.remove_if(pred), heap_reference.remove_if(pred));
      }
      expect_same_front(queue, reference);
      expect_same_front(heap_only, heap_reference);
      ASSERT_EQ(queue.size(), reference.size());
    }
  }
}

TEST(EventQueueProperty, NonMonotoneLanePushThrows) {
  EventQueue<int, 2> q;
  q.push_lane(0, 2.0, 1);
  q.push_lane(1, 1.0, 2);  // lanes are independent
  q.push_lane(0, 2.0, 3);  // equal times are in order
  EXPECT_THROW(q.push_lane(0, 1.5, 4), std::logic_error);
  // Popping does not reset a lane's order: a lane's pushes must be
  // monotone over the queue's life.
  EXPECT_EQ(q.pop().second, 2);
  EXPECT_EQ(q.pop().second, 1);
  EXPECT_EQ(q.pop().second, 3);
  EXPECT_THROW(q.push_lane(0, 1.0, 5), std::logic_error);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FifoForEqualTimes) {
  EventQueue<int> q;
  q.push(1.0, 10);
  q.push(1.0, 20);
  q.push(0.5, 30);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time(), 0.5);
  EXPECT_EQ(q.pop().second, 30);
  EXPECT_EQ(q.pop().second, 10);  // FIFO among the 1.0 events
  EXPECT_EQ(q.pop().second, 20);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopEmptyThrows) {
  EventQueue<int> q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW(q.next_time(), std::logic_error);
  EventQueue<int, 2> with_lanes;
  EXPECT_THROW(with_lanes.pop(), std::logic_error);
  EXPECT_THROW(with_lanes.next_time(), std::logic_error);
}

}  // namespace
}  // namespace cloudqc
