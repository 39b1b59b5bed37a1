#include "schedule/allocators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"

namespace cloudqc {
namespace {

/// True when request r can take one more pair under `free_comm`.
bool can_take(const CommRequest& r, const std::vector<int>& free_comm) {
  return free_comm[static_cast<std::size_t>(r.qpu_a)] >= 1 &&
         free_comm[static_cast<std::size_t>(r.qpu_b)] >= 1;
}

void take(const CommRequest& r, std::vector<int>& free_comm) {
  --free_comm[static_cast<std::size_t>(r.qpu_a)];
  --free_comm[static_cast<std::size_t>(r.qpu_b)];
}

}  // namespace

std::vector<std::size_t> priority_order(
    const std::vector<CommRequest>& requests) {
  std::vector<std::size_t> idx(requests.size());
  std::iota(idx.begin(), idx.end(), 0);
  // Ties go to the lower index, so no key compares equal and an unstable
  // sort gives the stable order without a merge buffer. A NaN priority
  // would break the ordering std::sort relies on.
  for (const CommRequest& r : requests) {
    CLOUDQC_CHECK_MSG(!std::isnan(r.priority), "request priority is NaN");
  }
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    if (requests[a].priority != requests[b].priority) {
      return requests[a].priority > requests[b].priority;
    }
    return a < b;
  });
  return idx;
}

namespace {

class CloudQcAllocator final : public CommAllocator {
 public:
  explicit CloudQcAllocator(int max_redundancy)
      : max_redundancy_(max_redundancy) {
    CLOUDQC_CHECK(max_redundancy >= 1);
  }

  std::string name() const override { return "CloudQC"; }

  std::vector<int> allocate(const std::vector<CommRequest>& requests,
                            std::vector<int> free_comm,
                            Rng& /*rng*/) const override {
    std::vector<int> pairs(requests.size(), 0);
    const auto order = priority_order(requests);
    // Pass 1 — effectiveness with starvation freedom: one pair to every
    // schedulable request, most important first.
    for (const std::size_t i : order) {
      if (can_take(requests[i], free_comm)) {
        take(requests[i], free_comm);
        pairs[i] = 1;
      }
    }
    // Pass 2 — redundancy, proportionally fair: hand out the leftover
    // budget one pair at a time to the funded request with the highest
    // priority-per-pair ratio. Critical gates accumulate redundancy fastest
    // (failure tolerance where a stall blocks the deepest cone), while
    // equal-priority gates share leftovers evenly.
    while (true) {
      double best_score = -1.0;
      std::size_t best = requests.size();
      for (const std::size_t i : order) {
        if (pairs[i] == 0 || pairs[i] >= max_redundancy_) continue;
        if (!can_take(requests[i], free_comm)) continue;
        const double score = (requests[i].priority + 1.0) / pairs[i];
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
      if (best == requests.size()) break;
      take(requests[best], free_comm);
      ++pairs[best];
    }
    return pairs;
  }

 private:
  int max_redundancy_;
};

class GreedyAllocator final : public CommAllocator {
 public:
  std::string name() const override { return "Greedy"; }

  std::vector<int> allocate(const std::vector<CommRequest>& requests,
                            std::vector<int> free_comm,
                            Rng& /*rng*/) const override {
    std::vector<int> pairs(requests.size(), 0);
    for (const std::size_t i : priority_order(requests)) {
      while (can_take(requests[i], free_comm)) {
        take(requests[i], free_comm);
        ++pairs[i];
      }
    }
    return pairs;
  }
};

class AverageAllocator final : public CommAllocator {
 public:
  std::string name() const override { return "Average"; }

  std::vector<int> allocate(const std::vector<CommRequest>& requests,
                            std::vector<int> free_comm,
                            Rng& /*rng*/) const override {
    std::vector<int> pairs(requests.size(), 0);
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (can_take(requests[i], free_comm)) {
          take(requests[i], free_comm);
          ++pairs[i];
          progress = true;
        }
      }
    }
    return pairs;
  }
};

class RandomAllocator final : public CommAllocator {
 public:
  std::string name() const override { return "Random"; }

  std::vector<int> allocate(const std::vector<CommRequest>& requests,
                            std::vector<int> free_comm,
                            Rng& rng) const override {
    std::vector<int> pairs(requests.size(), 0);
    // Hand out pairs one at a time to a uniformly random request that can
    // still take one — some ops randomly accumulate redundancy while others
    // randomly wait.
    std::vector<std::size_t> takeable;
    while (true) {
      takeable.clear();
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (can_take(requests[i], free_comm)) takeable.push_back(i);
      }
      if (takeable.empty()) break;
      const std::size_t i = takeable[rng.below(takeable.size())];
      take(requests[i], free_comm);
      ++pairs[i];
    }
    return pairs;
  }
};

}  // namespace

std::unique_ptr<CommAllocator> make_cloudqc_allocator(int max_redundancy) {
  return std::make_unique<CloudQcAllocator>(max_redundancy);
}
std::unique_ptr<CommAllocator> make_greedy_allocator() {
  return std::make_unique<GreedyAllocator>();
}
std::unique_ptr<CommAllocator> make_average_allocator() {
  return std::make_unique<AverageAllocator>();
}
std::unique_ptr<CommAllocator> make_random_allocator() {
  return std::make_unique<RandomAllocator>();
}

}  // namespace cloudqc
