#include <gtest/gtest.h>

#include <cmath>

#include "core/sampling_power.hpp"
#include "sim/simulator.hpp"
#include "sim/streams.hpp"
#include "stats/descriptive.hpp"

namespace {

using namespace hlp;
using namespace hlp::core;

struct CosimSetup {
  netlist::Module mod = netlist::adder_module(8);
  ModuleCharacterization train, eval;
  InputOutputModel io;

  explicit CosimSetup(double eval_hold = 0.0) {
    stats::Rng rng(5);
    auto train_in = sim::random_stream(16, 2000, 0.5, rng);
    train = characterize(mod, train_in);
    io.fit(train);
    stats::VectorStream eval_in =
        eval_hold > 0.0 ? sim::correlated_stream(16, 4000, eval_hold, rng)
                        : sim::random_stream(16, 4000, 0.5, rng);
    eval = characterize(mod, eval_in);
  }

  MacroFn model() const {
    return [this](const ModuleCharacterization& c, std::size_t t) {
      return io.predict_cycle(c.in_activity[t], c.out_activity[t]);
    };
  }
};

TEST(Census, MatchesGateLevelOnInDistributionData) {
  CosimSetup s;
  auto est = census_estimate(s.eval, s.model());
  double ref = gate_level_mean(s.eval);
  EXPECT_LT(std::abs(est.mean_energy - ref) / ref, 0.05);
  EXPECT_EQ(est.macro_evals, s.eval.transitions());
}

TEST(Census, BiasedOnOutOfDistributionData) {
  // Trained on white noise, evaluated on highly correlated data: the census
  // of the biased model is off (the ~30% effect in the paper).
  CosimSetup s(0.9);
  auto est = census_estimate(s.eval, s.model());
  double ref = gate_level_mean(s.eval);
  EXPECT_GT(std::abs(est.mean_energy - ref) / ref, 0.08);
}

TEST(Sampler, ApproximatesCensusWithFarFewerEvals) {
  CosimSetup s;
  stats::Rng rng(9);
  auto census = census_estimate(s.eval, s.model());
  auto sampler = sampler_estimate(s.eval, s.model(), 40, 2, rng);
  EXPECT_LT(sampler.macro_evals * 20, census.macro_evals);
  double rel =
      std::abs(sampler.mean_energy - census.mean_energy) / census.mean_energy;
  EXPECT_LT(rel, 0.15);
}

TEST(Sampler, MoreSamplesReduceError) {
  CosimSetup s;
  auto census = census_estimate(s.eval, s.model());
  double avg_small = 0.0, avg_big = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    stats::Rng r1(seed), r2(seed + 100);
    auto small = sampler_estimate(s.eval, s.model(), 30, 1, r1);
    auto big = sampler_estimate(s.eval, s.model(), 30, 12, r2);
    avg_small +=
        std::abs(small.mean_energy - census.mean_energy) / census.mean_energy;
    avg_big +=
        std::abs(big.mean_energy - census.mean_energy) / census.mean_energy;
  }
  EXPECT_LT(avg_big, avg_small + 1e-9);
}

TEST(Adaptive, RemovesModelBias) {
  CosimSetup s(0.9);  // biased regime
  stats::Rng rng(13);
  auto census = census_estimate(s.eval, s.model());
  auto adaptive = adaptive_estimate(s.eval, s.model(), 120, rng);
  double ref = gate_level_mean(s.eval);
  double census_err = std::abs(census.mean_energy - ref) / ref;
  double adaptive_err = std::abs(adaptive.mean_energy - ref) / ref;
  EXPECT_LT(adaptive_err, census_err);
  EXPECT_LT(adaptive_err, 0.10);
  EXPECT_EQ(adaptive.gate_cycle_sims, 120u);
}

TEST(Adaptive, UsesFewGateLevelCycles) {
  CosimSetup s(0.9);
  stats::Rng rng(17);
  auto adaptive = adaptive_estimate(s.eval, s.model(), 100, rng);
  EXPECT_LE(adaptive.gate_cycle_sims * 10,
            s.eval.transitions());  // ground truth mostly untouched
}

// --- Monte Carlo stop rule: the squared pre-test changes nothing ----------

/// Scalar Monte Carlo with the plain stop rule, `ci_halfwidth` evaluated
/// for every pair past min_pairs.
MonteCarloResult plain_rule_monte_carlo(const netlist::Module& mod,
                                        std::uint64_t seed, double epsilon,
                                        std::size_t min_pairs,
                                        std::size_t max_pairs) {
  const auto& nl = mod.netlist;
  const auto loads = nl.loads();
  const int n_in = mod.total_input_bits();
  stats::Rng rng(seed);
  sim::Simulator s(nl);
  std::vector<bool> prev(nl.gate_count());
  stats::RunningStats rs;
  MonteCarloResult res;
  while (rs.count() < max_pairs) {
    s.set_all_inputs(rng.uniform_bits(n_in));
    s.eval();
    for (netlist::GateId g = 0; g < nl.gate_count(); ++g) prev[g] = s.value(g);
    s.set_all_inputs(rng.uniform_bits(n_in));
    s.eval();
    double e = 0.0;
    for (netlist::GateId g = 0; g < nl.gate_count(); ++g)
      if (s.value(g) != prev[g]) e += loads[g];
    rs.add(e);
    if (rs.count() >= min_pairs) {
      const double hw = stats::ci_halfwidth(rs, 0.95);
      if (rs.mean() > 0.0 && hw <= epsilon * rs.mean()) {
        res.converged = true;
        res.ci_halfwidth = hw;
        break;
      }
    }
  }
  res.pairs = rs.count();
  res.mean_energy = rs.mean();
  if (!res.converged) res.ci_halfwidth = stats::ci_halfwidth(rs, 0.95);
  return res;
}

TEST(MonteCarloStopRule, StopsOnTheSamePairAsThePlainRule) {
  for (const auto& mod :
       {netlist::multiplier_module(8), netlist::adder_module(8)}) {
    const int n_in = mod.total_input_bits();
    for (double eps : {0.3, 0.2, 0.1, 0.07, 0.05, 0.03, 0.02, 0.015, 0.01}) {
      const auto ref = plain_rule_monte_carlo(mod, 77, eps, 30, 20000);
      ASSERT_TRUE(ref.converged) << "eps=" << eps;
      for (auto engine : {sim::EngineKind::Scalar, sim::EngineKind::Packed}) {
        stats::Rng rng(77);
        auto r = monte_carlo_power(
            mod, [&] { return rng.uniform_bits(n_in); }, eps, 0.95, 30, 20000,
            {}, sim::SimOptions{engine});
        EXPECT_EQ(r.pairs, ref.pairs) << "eps=" << eps;
        EXPECT_EQ(r.ci_halfwidth, ref.ci_halfwidth) << "eps=" << eps;
        EXPECT_EQ(r.mean_energy, ref.mean_energy) << "eps=" << eps;
        EXPECT_TRUE(r.converged) << "eps=" << eps;
      }
    }
  }
}

}  // namespace
