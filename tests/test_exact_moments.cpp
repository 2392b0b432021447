#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "scalar_reference.hpp"
#include "stats/descriptive.hpp"
#include "stats/exact_moments.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hlp;
using stats::ExactMoments;
using stats::RelativeCiRule;
using stats::u128;
using Ref = scalar_ref::PairMoments;

ExactMoments of(const std::vector<std::uint64_t>& qs) {
  ExactMoments m;
  for (std::uint64_t q : qs) m.add(q);
  return m;
}

// --- the moments ------------------------------------------------------------

TEST(ExactMoments, SumsAreExactAndMergeInAnyOrder) {
  stats::Rng rng(5);
  std::vector<std::uint64_t> qs;
  for (int i = 0; i < 5000; ++i) qs.push_back(rng.uniform_bits(32));
  const ExactMoments all = of(qs);
  u128 s1 = 0, s2 = 0;
  for (std::uint64_t q : qs) {
    s1 += q;
    s2 += static_cast<u128>(q) * q;
  }
  EXPECT_EQ(all.count(), qs.size());
  EXPECT_EQ(all.s1(), s1);
  EXPECT_EQ(all.s2(), s2);
  // Any split, merged in either order, is the same state.
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{777},
                          qs.size()}) {
    const ExactMoments a = of({qs.begin(), qs.begin() + cut});
    const ExactMoments b = of({qs.begin() + cut, qs.end()});
    ExactMoments ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab, all) << cut;
    EXPECT_EQ(ba, all) << cut;
  }
  EXPECT_EQ(ExactMoments::restore(all.count(), all.s1(), all.s2()), all);
  EXPECT_TRUE(all.plausible());
}

TEST(ExactMoments, MeanAndVarianceAreRoundedOnce) {
  // Operands below 2^53 convert exactly, and IEEE division rounds once, so
  // double(S1) / double(n) is the correctly rounded mean.
  stats::Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    const int len = 2 + static_cast<int>(rng.uniform_bits(6));
    std::vector<std::uint64_t> qs;
    for (int i = 0; i < len; ++i) qs.push_back(rng.uniform_bits(12));
    const ExactMoments m = of(qs);
    const auto n = static_cast<double>(m.count());
    const auto s1 = static_cast<double>(m.s1());
    EXPECT_EQ(m.mean(0), s1 / n);
    EXPECT_EQ(m.mean(3), std::ldexp(s1 / n, -3));
    const double v = static_cast<double>(
                         static_cast<u128>(m.count()) * m.s2() -
                         m.s1() * m.s1()) /
                     (n * n * (n - 1.0));
    const double z = stats::normal_quantile_two_sided(0.95);
    EXPECT_EQ(m.ci_halfwidth(0.95, 2), std::ldexp(z * std::sqrt(v), -2));
  }
  // Past 2^53 the long division still rounds once (the reference divides
  // one bit at a time).
  const ExactMoments big = ExactMoments::restore(
      3, (u128{1} << 62) + 5, (u128{1} << 126) + (u128{1} << 70));
  EXPECT_EQ(big.mean(0), Ref::ratio(big.s1(), 3));
  EXPECT_EQ(ExactMoments{}.mean(0), 0.0);
  EXPECT_EQ(of({7}).ci_halfwidth(0.95, 0), 0.0);
  EXPECT_EQ(of({7, 7, 7}).ci_halfwidth(0.95, 0), 0.0);
}

TEST(ExactMoments, PlausibleRejectsImpossibleSums) {
  EXPECT_TRUE(ExactMoments{}.plausible());
  EXPECT_TRUE(ExactMoments::restore(2, 10, 50).plausible());   // {5, 5}
  EXPECT_FALSE(ExactMoments::restore(2, 10, 49).plausible());  // S1² > n·S2
  EXPECT_FALSE(ExactMoments::restore(0, 1, 1).plausible());
  EXPECT_FALSE(
      ExactMoments::restore(1, u128{1} << 32, u128{1} << 64).plausible());
  EXPECT_TRUE(ExactMoments::restore(1, 0xFFFFFFFFu,
                                    u128{0xFFFFFFFFu} * 0xFFFFFFFFu)
                  .plausible());
}

// --- the stop rule ------------------------------------------------------------

TEST(RelativeCiRule, DecidesLikeTheExactReferenceAtTheBoundary) {
  // Sums placed on, just inside and just outside the boundary
  // z²·(n·S2 − S1²) = ε²·S1²·(n − 1), where the double filter cannot
  // decide and the wide-integer compare must.
  stats::Rng rng(29);
  const double z = stats::normal_quantile_two_sided(0.95);
  int holds = 0, fails = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const double eps = std::ldexp(0.5 + rng.uniform_real(), -1 - trial % 12);
    const std::uint64_t n = 2 + rng.uniform_bits(1 + trial % 20);
    const u128 s1 = static_cast<u128>(n) * (1 + rng.uniform_bits(20));
    const long double s1l = static_cast<long double>(s1);
    const long double nl = static_cast<long double>(n);
    const long double s2l =
        s1l * s1l / nl * (1.0L + static_cast<long double>(eps) * eps *
                                     (nl - 1.0L) / (static_cast<long double>(z) * z));
    const u128 centre = static_cast<u128>(s2l);
    for (int d = -3; d <= 3; ++d) {
      const u128 s2 = centre + static_cast<u128>(static_cast<std::int64_t>(d));
      const ExactMoments m = ExactMoments::restore(n, s1, s2);
      if (!m.plausible()) continue;
      const bool want = Ref::rule_holds(n, s1, s2, eps);
      ASSERT_EQ(RelativeCiRule(eps, 0.95)(m), want)
          << "n=" << n << " eps=" << eps << " d=" << d;
      (want ? holds : fails) += 1;
    }
  }
  EXPECT_GT(holds, 1000);
  EXPECT_GT(fails, 1000);
}

TEST(RelativeCiRule, DecidesLikeTheExactReferenceOnRandomStreams) {
  stats::Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    const double eps = 0.005 * (1 + trial % 40);
    const RelativeCiRule rule(eps, 0.95);
    ExactMoments m;
    const int bits = 1 + trial % 32;
    for (int i = 0; i < 400; ++i) {
      m.add(rng.uniform_bits(bits));
      if (m.count() < 2) continue;
      ASSERT_EQ(rule(m), Ref::rule_holds(m.count(), m.s1(), m.s2(), eps))
          << "trial " << trial << " pair " << i;
    }
  }
}

TEST(RelativeCiRule, NextCandidateNeverSkipsAPairWhereTheRuleHolds) {
  // Streams of values up to q_max, some skewed so that the mean sits far
  // below q_max: every pair the skip passes over must fail the rule (by
  // the reference), and the skips must still be long.
  stats::Rng rng(37);
  std::uint64_t tests = 0, pairs = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const double eps = 0.008 * (1 + trial % 25);
    const std::uint64_t q_max = std::uint64_t{1} << (4 + trial % 24);
    const RelativeCiRule rule(eps, 0.95);
    ExactMoments m;
    std::uint64_t next = 1 + trial % 40;  // min_pairs
    bool skipping = false;                // past a failed test
    while (m.count() < 5000) {
      std::uint64_t q = rng.uniform_bits(64) % (q_max + 1);
      if (trial % 2) q >>= rng.uniform_bits(4);  // mean well below q_max
      m.add(q);
      const bool holds = Ref::rule_holds(m.count(), m.s1(), m.s2(), eps);
      if (m.count() < next) {
        ASSERT_FALSE(skipping && holds)
            << "trial " << trial << " skipped pair " << m.count();
        continue;
      }
      skipping = true;
      ++tests;
      ASSERT_EQ(rule(m), holds) << "trial " << trial;
      if (holds) break;
      next = rule.next_candidate(m, q_max);
      ASSERT_GT(next, m.count());
    }
    pairs += m.count();
  }
  EXPECT_LT(tests * 10, pairs);
  // A rule that never holds is never tested again; a zero-variance stream
  // is tested on the next pair.
  ExactMoments spread = of({1, 9});
  EXPECT_EQ(RelativeCiRule(-1.0, 0.95).next_candidate(spread, 9), UINT64_MAX);
  EXPECT_EQ(RelativeCiRule(0.0, 0.95).next_candidate(spread, 9), UINT64_MAX);
  EXPECT_EQ(RelativeCiRule(0.0, 0.95).next_candidate(of({0, 0}), 9), 3u);
}

TEST(RelativeCiRule, EdgeCases) {
  const ExactMoments flat = of({4, 4, 4});
  const ExactMoments zero = of({0, 0, 0});
  const ExactMoments spread = of({1, 100, 3});
  // Zero variance meets any epsilon, zero included; a zero mean never.
  EXPECT_TRUE(RelativeCiRule(0.0, 0.95)(flat));
  EXPECT_FALSE(RelativeCiRule(0.0, 0.95)(spread));
  EXPECT_FALSE(RelativeCiRule(1.0, 0.95)(zero));
  EXPECT_TRUE(RelativeCiRule(std::numeric_limits<double>::infinity(), 0.95)(
      spread));
  EXPECT_FALSE(RelativeCiRule(std::numeric_limits<double>::infinity(), 0.95)(
      zero));
  EXPECT_FALSE(RelativeCiRule(-0.1, 0.95)(flat));
  EXPECT_FALSE(
      RelativeCiRule(std::numeric_limits<double>::quiet_NaN(), 0.95)(flat));
  // Epsilons whose squares leave the double range.
  EXPECT_FALSE(RelativeCiRule(1e-300, 0.95)(spread));
  EXPECT_TRUE(RelativeCiRule(1e300, 0.95)(spread));
  // The rule is hw <= eps·mean: check it against the computed half-width
  // away from the boundary.
  const double hw = spread.ci_halfwidth(0.95, 0), mean = spread.mean(0);
  EXPECT_TRUE(RelativeCiRule(hw / mean * 1.001, 0.95)(spread));
  EXPECT_FALSE(RelativeCiRule(hw / mean * 0.999, 0.95)(spread));
}

}  // namespace
