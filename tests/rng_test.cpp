#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/contracts.hpp"

namespace bnf {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  rng a(42);
  rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  rng a(1);
  rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 4);
}

TEST(RngTest, BelowStaysInRange) {
  rng random(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(random.below(13), 13U);
}

TEST(RngTest, BelowRejectsZero) {
  rng random(7);
  EXPECT_THROW((void)random.below(0), precondition_error);
}

TEST(RngTest, UniformRealInUnitInterval) {
  rng random(11);
  double sum = 0.0;
  constexpr int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const double value = random.uniform_real();
    ASSERT_GE(value, 0.0);
    ASSERT_LT(value, 1.0);
    sum += value;
  }
  EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  rng random(13);
  int hits = 0;
  constexpr int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += random.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
  EXPECT_FALSE(random.bernoulli(0.0));
  EXPECT_TRUE(random.bernoulli(1.0));
}

TEST(RngTest, ShuffleIsPermutation) {
  rng random(17);
  std::vector<int> values(20);
  for (int i = 0; i < 20; ++i) values[static_cast<std::size_t>(i)] = i;
  auto shuffled = values;
  random.shuffle(std::span<int>(shuffled));
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, values);
}

}  // namespace
}  // namespace bnf
