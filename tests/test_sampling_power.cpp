#include <gtest/gtest.h>

#include <cmath>

#include "core/sampling_power.hpp"
#include "netlist/words.hpp"
#include "scalar_reference.hpp"
#include "sim/simulator.hpp"
#include "sim/streams.hpp"
#include "stats/descriptive.hpp"

namespace {

using namespace hlp;
using namespace hlp::core;
using scalar_ref::plain_rule_monte_carlo;

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

TEST(MonteCarloStopRule, StopsOnTheSamePairAsThePlainRule) {
  for (const auto& mod :
       {netlist::multiplier_module(8), netlist::adder_module(8)}) {
    const int n_in = mod.total_input_bits();
    for (double eps : {0.3, 0.2, 0.1, 0.07, 0.05, 0.03, 0.02, 0.015, 0.01}) {
      const auto ref = plain_rule_monte_carlo(mod, 77, eps, 30, 20000);
      ASSERT_TRUE(ref.converged) << "eps=" << eps;
      for (int words : {1, 0}) {
        stats::Rng rng(77);
        sim::SimOptions opts;
        opts.block_words = words;
        auto r = monte_carlo_power(
            mod, [&] { return rng.uniform_bits(n_in); }, eps, 0.95, 30, 20000,
            {}, opts);
        EXPECT_EQ(r.pairs, ref.pairs) << "eps=" << eps;
        EXPECT_EQ(r.ci_halfwidth, ref.ci_halfwidth) << "eps=" << eps;
        EXPECT_EQ(r.mean_energy, ref.mean_energy) << "eps=" << eps;
        EXPECT_TRUE(r.converged) << "eps=" << eps;
      }
    }
  }
}

// --- Monte Carlo on a registered netlist (replica lanes) -----------------

/// adder:6 with every sum bit registered: output i is s_i xor q_i, where
/// q_i is a DFF on s_i initialised to (i odd). Monte Carlo never clocks the
/// registers, so each pair sees the DFFs at their initial state.
netlist::Module registered_adder() {
  netlist::Module m;
  m.name = "regadd6";
  auto& nl = m.netlist;
  const netlist::Word a = netlist::make_input_word(nl, 6, "a");
  const netlist::Word b = netlist::make_input_word(nl, 6, "b");
  const netlist::Word sum = netlist::ripple_adder(nl, a, b);
  netlist::Word y;
  for (std::size_t i = 0; i < sum.size(); ++i) {
    const auto q = nl.add_dff(sum[i], i % 2 == 1);
    y.push_back(nl.add_binary(netlist::GateKind::Xor, q, sum[i]));
  }
  netlist::mark_output_word(nl, y, "y");
  m.input_words = {a, b};
  m.output_words = {y};
  return m;
}

TEST(SequentialMonteCarlo, MatchesTheScalarReferenceLoop) {
  const auto mod = registered_adder();
  ASSERT_FALSE(sim::temporal_packable(mod.netlist));
  const int n_in = mod.total_input_bits();
  // 0.05 converges; 1e-9 runs to max_pairs. Every block width runs the
  // registers on replica lanes; width 3 takes the portable kernel tail.
  for (double eps : {0.05, 1e-9}) {
    const auto ref = plain_rule_monte_carlo(mod, 13, eps, 30, 3000);
    ASSERT_EQ(ref.converged, eps > 0.01) << "eps=" << eps;
    for (int words : {0, 1, 2, 3, 4, 8, 16, 64}) {
      stats::Rng rng(13);
      sim::SimOptions opts;
      opts.block_words = words;
      const auto r = monte_carlo_power(
          mod, [&] { return rng.uniform_bits(n_in); }, eps, 0.95, 30, 3000,
          {}, opts);
      EXPECT_EQ(r.pairs, ref.pairs) << "eps=" << eps << " W=" << words;
      EXPECT_EQ(r.mean_energy, ref.mean_energy)
          << "eps=" << eps << " W=" << words;
      EXPECT_EQ(r.ci_halfwidth, ref.ci_halfwidth)
          << "eps=" << eps << " W=" << words;
      EXPECT_EQ(r.converged, ref.converged) << "eps=" << eps << " W=" << words;
    }
  }
}

TEST(SequentialMonteCarlo, QuotaStopResumesToTheUninterruptedRun) {
  const auto mod = registered_adder();
  const int n_in = mod.total_input_bits();
  stats::Rng rng_full(8);
  const auto full = monte_carlo_power_budgeted(
      mod, [&] { return rng_full.uniform_bits(n_in); }, exec::Budget{}, 1e-9,
      0.95, 30, 400);
  ASSERT_EQ(full->pairs, 400u);

  stats::Rng rng(8);
  auto gen = [&] { return rng.uniform_bits(n_in); };
  const auto part = monte_carlo_power_budgeted(
      mod, gen, exec::Budget::with_step_quota(97), 1e-9, 0.95, 30, 400);
  EXPECT_EQ(part->stop_reason, MonteCarloResult::StopReason::BudgetExhausted);
  EXPECT_EQ(part->pairs, 97u);
  const auto resumed = monte_carlo_power_budgeted(
      mod, gen, exec::Budget{}, 1e-9, 0.95, 30, 400, {}, {},
      part->checkpoint);
  EXPECT_EQ(resumed->pairs, full->pairs);
  EXPECT_EQ(resumed->mean_energy, full->mean_energy);
  EXPECT_EQ(resumed->ci_halfwidth, full->ci_halfwidth);
  EXPECT_EQ(resumed->checkpoint.m2, full->checkpoint.m2);
}

// --- the Rng overload: bulk draws, the same stream ----------------------

/// The Rng overload against the per-word generator over the same seed: the
/// same result and checkpoint, and the generator left at the same draw.
void expect_bulk_matches_per_word(const netlist::Module& mod, int words,
                                  double eps, const exec::Budget& budget) {
  const int n_in = mod.total_input_bits();
  stats::Rng per_word(21), bulk(21);
  sim::SimOptions opts;
  opts.block_words = words;
  const auto a = monte_carlo_power_budgeted(
      mod, [&] { return per_word.uniform_bits(n_in); }, budget, eps, 0.95, 30,
      3000, {}, opts);
  const auto b = monte_carlo_power_budgeted(mod, bulk, budget, eps, 0.95, 30,
                                            3000, {}, opts);
  EXPECT_EQ(b->pairs, a->pairs);
  EXPECT_EQ(b->mean_energy, a->mean_energy);
  EXPECT_EQ(b->ci_halfwidth, a->ci_halfwidth);
  EXPECT_EQ(b->stop_reason, a->stop_reason);
  EXPECT_EQ(b->checkpoint.m2, a->checkpoint.m2);
  EXPECT_EQ(bulk.uniform_bits(64), per_word.uniform_bits(64));
}

TEST(RngMonteCarlo, BulkDrawMatchesPerWordGenerator) {
  for (const auto& mod : {netlist::multiplier_module(8), registered_adder()}) {
    for (int words : {0, 1}) {
      // Converges; runs to max_pairs; stops on a step quota.
      expect_bulk_matches_per_word(mod, words, 0.05, {});
      expect_bulk_matches_per_word(mod, words, 1e-9, {});
      expect_bulk_matches_per_word(mod, words, 1e-9,
                                   exec::Budget::with_step_quota(1500));
    }
  }
}

TEST(SequentialMonteCarlo, ShardedThreadCountsBitIdentical) {
  const auto mod = registered_adder();
  const auto ref = scalar_ref::sharded_monte_carlo(mod, 19, 1000, 128);
  ASSERT_EQ(ref.count(), 1000u);
  ShardedMcOptions opts;
  opts.total_pairs = 1000;
  opts.chunk_pairs = 128;
  for (int threads : {1, 4}) {
    opts.threads = threads;
    const auto r = monte_carlo_power_sharded(mod, 19, opts);
    EXPECT_EQ(r->pairs, ref.count()) << "threads " << threads;
    EXPECT_EQ(r->mean_energy, ref.mean()) << "threads " << threads;
    EXPECT_EQ(r->checkpoint.m2, ref.m2()) << "threads " << threads;
  }
}

}  // namespace
