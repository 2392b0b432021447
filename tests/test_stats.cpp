#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/entropy.hpp"
#include "stats/regression.hpp"
#include "stats/rng.hpp"
#include "stats/sampling.hpp"

namespace {

using namespace hlp::stats;

TEST(RunningStats, MatchesClosedForm) {
  RunningStats rs;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 5u);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 2.5);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats rs;
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
  rs.add(7.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 7.0);
  EXPECT_EQ(rs.variance(), 0.0);
}

TEST(Descriptive, Correlation) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-12);
  std::vector<double> z{10, 8, 6, 4, 2};
  EXPECT_NEAR(correlation(x, z), -1.0, 1e-12);
  std::vector<double> c{3, 3, 3, 3, 3};
  EXPECT_EQ(correlation(x, c), 0.0);
}

TEST(Descriptive, MeanAbsRelError) {
  std::vector<double> est{1.1, 2.2};
  std::vector<double> ref{1.0, 2.0};
  EXPECT_NEAR(mean_abs_rel_error(est, ref), 0.1, 1e-12);
}

TEST(Entropy, BinaryEntropyBounds) {
  EXPECT_DOUBLE_EQ(binary_entropy(0.5), 1.0);
  EXPECT_EQ(binary_entropy(0.0), 0.0);
  EXPECT_EQ(binary_entropy(1.0), 0.0);
  EXPECT_GT(binary_entropy(0.3), 0.0);
  EXPECT_LT(binary_entropy(0.3), 1.0);
}

TEST(Entropy, DistributionEntropyUniform) {
  std::vector<double> p{0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(distribution_entropy(p), 2.0, 1e-12);
}

TEST(Entropy, StreamStatistics) {
  // Alternating 0b01 / 0b10: both lines have q = 0.5 and toggle each cycle.
  VectorStream s;
  s.width = 2;
  for (int i = 0; i < 100; ++i) s.words.push_back(i % 2 ? 0b01 : 0b10);
  auto q = signal_probabilities(s);
  EXPECT_NEAR(q[0], 0.5, 1e-9);
  EXPECT_NEAR(q[1], 0.5, 1e-9);
  auto e = switching_activities(s);
  EXPECT_NEAR(e[0], 1.0, 1e-9);
  EXPECT_NEAR(e[1], 1.0, 1e-9);
  EXPECT_NEAR(avg_bit_entropy(s), 1.0, 1e-9);
  // Word-level entropy: exactly two equiprobable vectors -> 1 bit.
  EXPECT_NEAR(word_entropy(s), 1.0, 1e-9);
  // The bit-level sum (2.0) upper-bounds the exact word entropy (1.0).
  EXPECT_GE(sum_bit_entropy(s), word_entropy(s));
  EXPECT_NEAR(avg_hamming_per_cycle(s), 2.0, 1e-9);
}

TEST(Entropy, WordEntropyUpperBoundProperty) {
  Rng rng(7);
  for (int rep = 0; rep < 10; ++rep) {
    VectorStream s;
    s.width = 6;
    for (int i = 0; i < 500; ++i) s.words.push_back(rng.uniform_bits(6));
    EXPECT_GE(sum_bit_entropy(s) + 1e-9, word_entropy(s));
  }
}

TEST(Regression, RecoversLinearModel) {
  Rng rng(3);
  Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    double a = rng.uniform_real(-1, 1), b = rng.uniform_real(-1, 1);
    x.push_back({a, b});
    y.push_back(3.0 + 2.0 * a - 5.0 * b + rng.normal(0, 0.01));
  }
  auto fit = ols(x, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.intercept, 3.0, 0.05);
  EXPECT_NEAR(fit.beta[0], 2.0, 0.05);
  EXPECT_NEAR(fit.beta[1], -5.0, 0.05);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(Regression, HandlesCollinearColumns) {
  Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    double a = i;
    x.push_back({a, 2 * a});  // perfectly collinear
    y.push_back(a);
  }
  auto fit = ols(x, y);
  ASSERT_TRUE(fit.ok);  // ridge fallback
  // Predictions still accurate even if coefficients are not unique.
  double row[2] = {10.0, 20.0};
  EXPECT_NEAR(fit.predict(row), 10.0, 0.1);
}

TEST(Regression, NonFiniteInputsRefuseInsteadOfNaN) {
  Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back({double(i), double(i * i)});
    y.push_back(2.0 * i);
  }
  x[7][1] = std::numeric_limits<double>::quiet_NaN();
  auto fit = ols(x, y);
  EXPECT_FALSE(fit.ok);  // used to return NaN coefficients with ok == true

  x[7][1] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ols(x, y).ok);

  x[7][1] = 49.0;
  y[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ols(x, y).ok);
}

TEST(Regression, CollinearFitIsFlaggedRankDeficientWithCondition) {
  Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    double a = i;
    x.push_back({a, 2 * a});
    y.push_back(a);
  }
  auto fit = ols(x, y);
  ASSERT_TRUE(fit.ok);            // ridge fallback still predicts
  EXPECT_TRUE(fit.rank_deficient);
  EXPECT_GT(fit.condition, 0.0);

  // Full-rank data: flag stays clear and the condition is moderate.
  Matrix good;
  std::vector<double> gy;
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    double a = rng.uniform_real(-1, 1), b = rng.uniform_real(-1, 1);
    good.push_back({a, b});
    gy.push_back(1.0 + a - b);
  }
  auto gfit = ols(good, gy);
  ASSERT_TRUE(gfit.ok);
  EXPECT_FALSE(gfit.rank_deficient);
}

TEST(Regression, StrictVariantsThrowTyped) {
  Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    double a = i;
    x.push_back({a, 2 * a});  // rank-deficient by construction
    y.push_back(a);
  }
  EXPECT_THROW(ols_strict(x, y), RankDeficientError);
  EXPECT_THROW(ols_inference(x, y), RankDeficientError);

  // Healthy system: strict succeeds and inference hands back a symmetric
  // positive-diagonal (X'X)^-1 of the right shape.
  Matrix good;
  std::vector<double> gy;
  Rng rng(23);
  for (int i = 0; i < 60; ++i) {
    double a = rng.uniform_real(-1, 1), b = rng.uniform_real(-1, 1);
    good.push_back({a, b});
    gy.push_back(0.5 + 2.0 * a - b + rng.normal(0, 0.01));
  }
  auto inf = ols_inference(good, gy);
  EXPECT_TRUE(inf.fit.ok);
  ASSERT_EQ(inf.p, 3u);
  ASSERT_EQ(inf.xtx_inv.size(), 9u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(inf.xtx_inv[i * 3 + i], 0.0);
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_NEAR(inf.xtx_inv[i * 3 + j], inf.xtx_inv[j * 3 + i], 1e-9);
  }
}

TEST(Regression, ForwardSelectFindsTrueVariables) {
  Rng rng(11);
  Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> row;
    for (int j = 0; j < 10; ++j) row.push_back(rng.uniform_real(-1, 1));
    x.push_back(row);
    // Only columns 2 and 7 matter.
    y.push_back(4.0 * x.back()[2] - 3.0 * x.back()[7] +
                rng.normal(0, 0.05));
  }
  auto res = forward_select(x, y, 4.0, 8);
  ASSERT_GE(res.selected.size(), 2u);
  EXPECT_TRUE(std::find(res.selected.begin(), res.selected.end(), 2u) !=
              res.selected.end());
  EXPECT_TRUE(std::find(res.selected.begin(), res.selected.end(), 7u) !=
              res.selected.end());
  // Should not pick many noise variables.
  EXPECT_LE(res.selected.size(), 4u);
}

TEST(Sampling, SimpleRandomSampleProperties) {
  Rng rng(5);
  auto s = simple_random_sample(100, 30, rng);
  EXPECT_EQ(s.size(), 30u);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1], s[i]);
  for (auto v : s) EXPECT_LT(v, 100u);
  auto all = simple_random_sample(10, 20, rng);
  EXPECT_EQ(all.size(), 10u);
}

TEST(Sampling, StratifiedCoversStrata) {
  Rng rng(5);
  auto s = stratified_sample(100, 10, 2, rng);
  EXPECT_EQ(s.size(), 20u);
  // Two samples per decade.
  for (int d = 0; d < 10; ++d) {
    int cnt = 0;
    for (auto v : s)
      if (v >= static_cast<std::size_t>(d * 10) &&
          v < static_cast<std::size_t>((d + 1) * 10))
        ++cnt;
    EXPECT_EQ(cnt, 2);
  }
}

TEST(Sampling, RatioEstimatorCorrectsScale) {
  // Y = 2X exactly; a sample of any size recovers mean(Y) = 2 * mean(X).
  std::vector<double> xs{1, 2, 3}, ys{2, 4, 6};
  EXPECT_NEAR(ratio_estimate_mean(xs, ys, 10.0), 20.0, 1e-12);
}

TEST(Sampling, RegressionEstimatorHandlesOffset) {
  // Y = 3 + 2X.
  std::vector<double> xs{1, 2, 3, 4}, ys{5, 7, 9, 11};
  EXPECT_NEAR(regression_estimate_mean(xs, ys, 10.0), 23.0, 1e-9);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
}

TEST(Rng, ParetoIsHeavyTailed) {
  Rng rng(9);
  double max_v = 0.0;
  for (int i = 0; i < 20000; ++i) max_v = std::max(max_v, rng.pareto(1.0, 1.5));
  EXPECT_GT(max_v, 50.0);  // heavy tail produces large outliers
}

// --- the MT19937-64 engine against std::mt19937_64 ----------------------

/// Seeds at the edges of the seeding recurrence, the std default and one a
/// sharded run derives.
std::vector<std::uint64_t> engine_seeds() {
  return {0, 1, 5489, ~std::uint64_t{0}, shard_seed(7, 3)};
}

TEST(RngEngine, MatchesStdMt19937_64) {
  for (std::uint64_t seed : engine_seeds()) {
    for (std::size_t n : {311u, 312u, 313u, 624u, 1000u}) {
      std::mt19937_64 ref(seed);
      Mt19937_64 one(seed), bulk(seed);
      std::vector<std::uint64_t> block(n);
      bulk.fill(block, ~std::uint64_t{0});
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t want = ref();
        ASSERT_EQ(one(), want) << "seed " << seed << " draw " << i;
        ASSERT_EQ(block[i], want) << "seed " << seed << " draw " << i;
      }
      // Both leave the stream at draw n.
      const std::uint64_t next = ref();
      EXPECT_EQ(one(), next) << "seed " << seed << " n=" << n;
      EXPECT_EQ(bulk(), next) << "seed " << seed << " n=" << n;
    }
  }
}

TEST(RngEngine, DiscardMatchesStd) {
  for (std::uint64_t seed : engine_seeds()) {
    for (unsigned long long n : {0ull, 1ull, 311ull, 312ull, 313ull, 1000ull}) {
      // From a fresh state and from one part-way through a refill.
      for (int before : {0, 5}) {
        std::mt19937_64 ref(seed);
        Mt19937_64 eng(seed);
        for (int i = 0; i < before; ++i) ASSERT_EQ(eng(), ref());
        ref.discard(n);
        eng.discard(n);
        for (int i = 0; i < 700; ++i)
          ASSERT_EQ(eng(), ref()) << "seed " << seed << " discard " << n
                                  << " after " << before << ", draw " << i;
      }
    }
  }
}

TEST(RngEngine, StdDistributionsDrawTheSameValues) {
  for (std::uint64_t seed : engine_seeds()) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    std::vector<int> a(100), b(100);
    std::iota(a.begin(), a.end(), 0);
    std::iota(b.begin(), b.end(), 0);
    std::shuffle(a.begin(), a.end(), rng.engine());
    std::shuffle(b.begin(), b.end(), ref);
    EXPECT_EQ(a, b) << "seed " << seed;
    for (int i = 0; i < 500; ++i) {
      EXPECT_EQ(rng.uniform_real(),
                std::uniform_real_distribution<double>(0.0, 1.0)(ref));
      EXPECT_EQ(rng.normal(2.0, 3.0),
                std::normal_distribution<double>(2.0, 3.0)(ref));
      EXPECT_EQ(rng.bit(0.3), std::bernoulli_distribution(0.3)(ref));
      EXPECT_EQ(rng.geometric(0.2),
                std::geometric_distribution<std::int64_t>(0.2)(ref));
    }
  }
}

class BernoulliProb : public ::testing::TestWithParam<double> {};

TEST_P(BernoulliProb, EmpiricalFrequencyMatches) {
  double p = GetParam();
  Rng rng(1234);
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += rng.bit(p) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, p, 0.02);
}

INSTANTIATE_TEST_SUITE_P(SweepP, BernoulliProb,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.7, 0.9,
                                           1.0));

}  // namespace
