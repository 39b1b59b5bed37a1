#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common/csv.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"

namespace cloudqc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differ = 0;
  for (int i = 0; i < 32; ++i) {
    if (a() != b()) ++differ;
  }
  EXPECT_GT(differ, 30);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, BelowCoversFullRangeWithoutBias) {
  Rng rng(11);
  std::array<int, 7> counts{};
  constexpr int kN = 70000;
  for (int i = 0; i < kN; ++i) ++counts[rng.below(7)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kN / 7.0, kN / 7.0 * 0.1);
  }
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(123);
  Rng child = a.fork();
  // The child stream should not simply replay the parent.
  int differ = 0;
  Rng parent_copy(123);
  (void)parent_copy();  // advance past the fork draw
  for (int i = 0; i < 16; ++i) {
    if (child() != parent_copy()) ++differ;
  }
  EXPECT_GT(differ, 14);
}

TEST(TextTable, AlignedOutputContainsAllCells) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  for (const char* cell : {"name", "value", "alpha", "beta", "22"}) {
    EXPECT_NE(s.find(cell), std::string::npos) << cell;
  }
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, RowArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(FmtDouble, TrimsTrailingZeros) {
  EXPECT_EQ(fmt_double(3.0), "3");
  EXPECT_EQ(fmt_double(12.50), "12.5");
  EXPECT_EQ(fmt_double(0.125, 3), "0.125");
}

TEST(Env, FallbackWhenUnset) {
  ::unsetenv("CLOUDQC_TEST_ENV");
  EXPECT_EQ(env_or("CLOUDQC_TEST_ENV", "fallback"), "fallback");
  EXPECT_EQ(env_int_or("CLOUDQC_TEST_ENV", 7), 7);
}

TEST(Env, ReadsValues) {
  ::setenv("CLOUDQC_TEST_ENV", "41", 1);
  EXPECT_EQ(env_or("CLOUDQC_TEST_ENV", "x"), "41");
  EXPECT_EQ(env_int_or("CLOUDQC_TEST_ENV", 0), 41);
  ::setenv("CLOUDQC_TEST_ENV", "not-a-number", 1);
  EXPECT_EQ(env_int_or("CLOUDQC_TEST_ENV", 5), 5);
  ::unsetenv("CLOUDQC_TEST_ENV");
}

}  // namespace
}  // namespace cloudqc
