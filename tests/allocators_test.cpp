#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "schedule/allocators.hpp"

namespace cloudqc {
namespace {

CommRequest req(double priority, QpuId a, QpuId b) {
  CommRequest r;
  r.priority = priority;
  r.qpu_a = a;
  r.qpu_b = b;
  return r;
}

/// Verify the fundamental budget invariant for any allocator result.
void expect_within_budget(const std::vector<CommRequest>& requests,
                          const std::vector<int>& pairs,
                          const std::vector<int>& budget) {
  std::vector<int> spend(budget.size(), 0);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_GE(pairs[i], 0);
    spend[static_cast<std::size_t>(requests[i].qpu_a)] += pairs[i];
    spend[static_cast<std::size_t>(requests[i].qpu_b)] += pairs[i];
  }
  for (std::size_t q = 0; q < budget.size(); ++q) {
    EXPECT_LE(spend[q], budget[q]) << "QPU " << q;
  }
}

TEST(CloudQcAllocator, EveryoneGetsOneBeforeRedundancy) {
  const auto alloc = make_cloudqc_allocator(3);
  Rng rng(1);
  // Two ops sharing QPU 0, which has 3 comm qubits.
  const std::vector<CommRequest> rs{req(5, 0, 1), req(1, 0, 2)};
  const auto pairs = alloc->allocate(rs, {3, 5, 5}, rng);
  EXPECT_GE(pairs[0], 1);
  EXPECT_GE(pairs[1], 1);  // low priority still served — starvation freedom
  expect_within_budget(rs, pairs, {3, 5, 5});
}

TEST(CloudQcAllocator, RedundancyGoesToHighestPriority) {
  const auto alloc = make_cloudqc_allocator(3);
  Rng rng(1);
  const std::vector<CommRequest> rs{req(9, 0, 1), req(1, 0, 2)};
  const auto pairs = alloc->allocate(rs, {4, 5, 5}, rng);
  // QPU 0 budget 4: 1+1 in pass one, remaining 2 → priority-9 op.
  EXPECT_EQ(pairs[0], 3);
  EXPECT_EQ(pairs[1], 1);
}

TEST(CloudQcAllocator, RespectsRedundancyCap) {
  const auto alloc = make_cloudqc_allocator(2);
  Rng rng(1);
  const std::vector<CommRequest> rs{req(9, 0, 1)};
  const auto pairs = alloc->allocate(rs, {10, 10}, rng);
  EXPECT_EQ(pairs[0], 2);
}

TEST(CloudQcAllocator, ZeroWhenNoBudget) {
  const auto alloc = make_cloudqc_allocator();
  Rng rng(1);
  const std::vector<CommRequest> rs{req(9, 0, 1)};
  const auto pairs = alloc->allocate(rs, {0, 5}, rng);
  EXPECT_EQ(pairs[0], 0);
}

TEST(GreedyAllocator, MaximisesTopPriority) {
  const auto alloc = make_greedy_allocator();
  Rng rng(1);
  const std::vector<CommRequest> rs{req(9, 0, 1), req(5, 0, 2)};
  const auto pairs = alloc->allocate(rs, {5, 5, 5}, rng);
  EXPECT_EQ(pairs[0], 5);  // all of QPU 0's budget
  EXPECT_EQ(pairs[1], 0);  // starved
}

TEST(GreedyAllocator, SecondOpServedWhenDisjoint) {
  const auto alloc = make_greedy_allocator();
  Rng rng(1);
  const std::vector<CommRequest> rs{req(9, 0, 1), req(5, 2, 3)};
  const auto pairs = alloc->allocate(rs, {2, 5, 4, 4}, rng);
  EXPECT_EQ(pairs[0], 2);
  EXPECT_EQ(pairs[1], 4);
}

TEST(AverageAllocator, EvenSplit) {
  const auto alloc = make_average_allocator();
  Rng rng(1);
  const std::vector<CommRequest> rs{req(9, 0, 1), req(1, 0, 2)};
  const auto pairs = alloc->allocate(rs, {6, 6, 6}, rng);
  EXPECT_EQ(pairs[0], 3);
  EXPECT_EQ(pairs[1], 3);
}

TEST(RandomAllocator, ExhaustsBudgetSomehow) {
  const auto alloc = make_random_allocator();
  Rng rng(5);
  const std::vector<CommRequest> rs{req(1, 0, 1), req(1, 0, 2)};
  const auto pairs = alloc->allocate(rs, {4, 9, 9}, rng);
  EXPECT_EQ(pairs[0] + pairs[1], 4);  // QPU 0 is the bottleneck
  expect_within_budget(rs, pairs, {4, 9, 9});
}

TEST(Allocators, EmptyRequestListIsFine) {
  Rng rng(1);
  for (const auto& alloc :
       {make_cloudqc_allocator(), make_greedy_allocator(),
        make_average_allocator(), make_random_allocator()}) {
    EXPECT_TRUE(alloc->allocate({}, {3, 3}, rng).empty()) << alloc->name();
  }
}

TEST(Allocators, Names) {
  EXPECT_EQ(make_cloudqc_allocator()->name(), "CloudQC");
  EXPECT_EQ(make_greedy_allocator()->name(), "Greedy");
  EXPECT_EQ(make_average_allocator()->name(), "Average");
  EXPECT_EQ(make_random_allocator()->name(), "Random");
}

// Property sweep: all four allocators respect per-QPU budgets and make
// progress (at least one op funded when budget exists) across random
// request patterns.
class AllocatorProperty : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorProperty, BudgetAndProgress) {
  const int variant = GetParam();
  const std::unique_ptr<CommAllocator> alloc =
      variant == 0   ? make_cloudqc_allocator()
      : variant == 1 ? make_greedy_allocator()
      : variant == 2 ? make_average_allocator()
                     : make_random_allocator();
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const int qpus = 4 + static_cast<int>(rng.below(4));
    std::vector<int> budget(static_cast<std::size_t>(qpus));
    for (auto& b : budget) b = static_cast<int>(rng.below(6));
    std::vector<CommRequest> rs;
    const int n = 1 + static_cast<int>(rng.below(8));
    for (int i = 0; i < n; ++i) {
      const auto a = static_cast<QpuId>(rng.below(static_cast<std::uint64_t>(qpus)));
      auto b = static_cast<QpuId>(rng.below(static_cast<std::uint64_t>(qpus)));
      if (b == a) b = (b + 1) % qpus;
      rs.push_back(req(static_cast<double>(rng.below(10)), a, b));
    }
    const auto pairs = alloc->allocate(rs, budget, rng);
    ASSERT_EQ(pairs.size(), rs.size());
    expect_within_budget(rs, pairs, budget);
    // Progress: if any request could take a pair, at least one op is funded.
    bool any_possible = false;
    for (const auto& r : rs) {
      if (budget[static_cast<std::size_t>(r.qpu_a)] >= 1 &&
          budget[static_cast<std::size_t>(r.qpu_b)] >= 1) {
        any_possible = true;
      }
    }
    if (any_possible) {
      int total = 0;
      for (int p : pairs) total += p;
      EXPECT_GT(total, 0) << alloc->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFour, AllocatorProperty,
                         ::testing::Values(0, 1, 2, 3));

// The simulator offers an allocator only the requests with a free qubit at
// both endpoints. That filter is exact: for every allocator, allocating
// over the whole set equals allocating over the fundable subset and
// scattering zeros back, and Random consumes the same draws either way.
class FundableFilter : public ::testing::TestWithParam<int> {};

TEST_P(FundableFilter, SubsetAllocationEqualsFullAllocation) {
  const int variant = GetParam();
  const std::unique_ptr<CommAllocator> alloc =
      variant == 0   ? make_cloudqc_allocator()
      : variant == 1 ? make_greedy_allocator()
      : variant == 2 ? make_average_allocator()
                     : make_random_allocator();
  Rng gen(0xF17E5 + static_cast<std::uint64_t>(variant));
  for (int trial = 0; trial < 250; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int qpus = 3 + static_cast<int>(gen.below(6));
    std::vector<int> budget(static_cast<std::size_t>(qpus));
    for (auto& b : budget) {
      // About a third of the QPUs have no free qubit at all.
      b = gen.below(3) == 0 ? 0 : 1 + static_cast<int>(gen.below(4));
    }
    std::vector<CommRequest> all;
    const int n = static_cast<int>(gen.below(12));
    for (int i = 0; i < n; ++i) {
      if (!all.empty() && gen.below(4) == 0) {
        all.push_back(all[gen.below(all.size())]);  // duplicate endpoints
        all.back().priority = static_cast<double>(gen.below(3));
        continue;
      }
      const auto a =
          static_cast<QpuId>(gen.below(static_cast<std::uint64_t>(qpus)));
      auto b = static_cast<QpuId>(
          gen.below(static_cast<std::uint64_t>(qpus - 1)));
      if (b >= a) ++b;
      // Three priority levels, so ties are common.
      all.push_back(req(static_cast<double>(gen.below(3)), a, b));
    }
    std::vector<CommRequest> fundable;
    std::vector<std::size_t> index;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (budget[static_cast<std::size_t>(all[i].qpu_a)] >= 1 &&
          budget[static_cast<std::size_t>(all[i].qpu_b)] >= 1) {
        fundable.push_back(all[i]);
        index.push_back(i);
      }
    }

    const std::uint64_t seed = gen();
    Rng rng_all(seed);
    Rng rng_sub(seed);
    const auto want = alloc->allocate(all, budget, rng_all);
    const auto sub = alloc->allocate(fundable, budget, rng_sub);
    ASSERT_EQ(sub.size(), fundable.size());
    std::vector<int> got(all.size(), 0);
    for (std::size_t i = 0; i < sub.size(); ++i) got[index[i]] = sub[i];
    EXPECT_EQ(got, want) << alloc->name();
    EXPECT_EQ(rng_all(), rng_sub()) << alloc->name() << ": RNG diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(AllFour, FundableFilter,
                         ::testing::Values(0, 1, 2, 3));

// priority_order and the two allocators built on it against test-only
// references that order requests with std::stable_sort, on random request
// lists with heavy priority ties (two or three levels, duplicated
// endpoints) and random budgets.
namespace reference {

std::vector<std::size_t> stable_priority_order(
    const std::vector<CommRequest>& requests) {
  std::vector<std::size_t> idx(requests.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return requests[a].priority > requests[b].priority;
  });
  return idx;
}

bool can_take(const CommRequest& r, const std::vector<int>& free_comm) {
  return free_comm[static_cast<std::size_t>(r.qpu_a)] >= 1 &&
         free_comm[static_cast<std::size_t>(r.qpu_b)] >= 1;
}

void take(const CommRequest& r, std::vector<int>& free_comm) {
  --free_comm[static_cast<std::size_t>(r.qpu_a)];
  --free_comm[static_cast<std::size_t>(r.qpu_b)];
}

std::vector<int> cloudqc(const std::vector<CommRequest>& requests,
                         std::vector<int> free_comm, int max_redundancy) {
  std::vector<int> pairs(requests.size(), 0);
  const auto order = stable_priority_order(requests);
  for (const std::size_t i : order) {
    if (can_take(requests[i], free_comm)) {
      take(requests[i], free_comm);
      pairs[i] = 1;
    }
  }
  while (true) {
    double best_score = -1.0;
    std::size_t best = requests.size();
    for (const std::size_t i : order) {
      if (pairs[i] == 0 || pairs[i] >= max_redundancy) continue;
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

std::vector<int> greedy(const std::vector<CommRequest>& requests,
                        std::vector<int> free_comm) {
  std::vector<int> pairs(requests.size(), 0);
  for (const std::size_t i : stable_priority_order(requests)) {
    while (can_take(requests[i], free_comm)) {
      take(requests[i], free_comm);
      ++pairs[i];
    }
  }
  return pairs;
}

}  // namespace reference

TEST(PriorityOrder, EqualsStableSortOnHeavyTies) {
  Rng gen(0x0DE5);
  for (int trial = 0; trial < 500; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto levels = 1 + gen.below(3);  // 1..3 priority levels
    std::vector<CommRequest> rs;
    const int n = static_cast<int>(gen.below(40));
    for (int i = 0; i < n; ++i) {
      rs.push_back(req(static_cast<double>(gen.below(levels)) * 0.5, 0, 1));
    }
    EXPECT_EQ(priority_order(rs), reference::stable_priority_order(rs));
  }
}

TEST(PriorityOrder, RejectsNanPriority) {
  const std::vector<CommRequest> rs{req(1, 0, 1), req(std::nan(""), 0, 1)};
  EXPECT_THROW(priority_order(rs), std::logic_error);
}

TEST(PriorityOrder, CloudQcAndGreedyGrantsEqualReference) {
  Rng gen(0x6A27);
  const auto greedy = make_greedy_allocator();
  for (const int cap : {1, 2, 1 << 20}) {
    const auto cloudqc = make_cloudqc_allocator(cap);
    for (int trial = 0; trial < 300; ++trial) {
      SCOPED_TRACE("cap " + std::to_string(cap) + " trial " +
                   std::to_string(trial));
      const int qpus = 2 + static_cast<int>(gen.below(6));
      std::vector<int> budget(static_cast<std::size_t>(qpus));
      for (auto& b : budget) b = static_cast<int>(gen.below(5));
      std::vector<CommRequest> rs;
      const int n = static_cast<int>(gen.below(16));
      for (int i = 0; i < n; ++i) {
        if (!rs.empty() && gen.below(3) == 0) {
          rs.push_back(rs[gen.below(rs.size())]);  // duplicate endpoints
          rs.back().priority = static_cast<double>(gen.below(2));
          continue;
        }
        const auto a =
            static_cast<QpuId>(gen.below(static_cast<std::uint64_t>(qpus)));
        auto b = static_cast<QpuId>(
            gen.below(static_cast<std::uint64_t>(qpus - 1)));
        if (b >= a) ++b;
        rs.push_back(req(static_cast<double>(gen.below(2)), a, b));
      }
      Rng unused(1);
      EXPECT_EQ(cloudqc->allocate(rs, budget, unused),
                reference::cloudqc(rs, budget, cap));
      EXPECT_EQ(greedy->allocate(rs, budget, unused),
                reference::greedy(rs, budget));
    }
  }
}

}  // namespace
}  // namespace cloudqc
