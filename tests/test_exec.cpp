#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "bdd/netlist_bdd.hpp"
#include "core/guarded_eval.hpp"
#include "core/precomputation.hpp"
#include "core/sampling_power.hpp"
#include "core/scheduling_power.hpp"
#include "exec/exec.hpp"
#include "fsm/markov.hpp"
#include "fsm/symbolic.hpp"
#include "fsm/synth.hpp"
#include "netlist/generators.hpp"
#include "netlist/words.hpp"
#include "sim/glitch_sim.hpp"
#include "sim/streams.hpp"

namespace {

using namespace hlp;
using exec::Budget;
using exec::StopReason;

// --- Meter mechanics -------------------------------------------------------

TEST(Meter, UnlimitedBudgetNeverTrips) {
  exec::Meter m;  // default budget: every dimension unlimited
  EXPECT_TRUE(m.budget().unlimited());
  for (int i = 0; i < 10000; ++i) m.step();
  EXPECT_FALSE(m.over_budget());
  EXPECT_EQ(m.tripped(), StopReason::None);
  EXPECT_EQ(m.steps(), 10000u);
}

TEST(Meter, StepQuotaThrows) {
  exec::Meter m(Budget::with_step_quota(10));
  EXPECT_NO_THROW(m.step(10));
  try {
    m.step();
    FAIL() << "expected BudgetExceeded";
  } catch (const exec::BudgetExceeded& e) {
    EXPECT_EQ(e.reason(), StopReason::StepQuota);
  }
  EXPECT_EQ(m.tripped(), StopReason::StepQuota);
}

TEST(Meter, OverBudgetProbeIsStickyAndNonThrowing) {
  exec::Meter m(Budget::with_step_quota(3));
  EXPECT_FALSE(m.over_budget(1));
  EXPECT_FALSE(m.over_budget(1));
  EXPECT_FALSE(m.over_budget(1));
  EXPECT_TRUE(m.over_budget(1));  // 4th step exceeds the quota of 3
  EXPECT_TRUE(m.over_budget());   // sticky without further charges
  EXPECT_EQ(m.tripped(), StopReason::StepQuota);
}

TEST(Meter, DeadlineTrips) {
  exec::Meter m(Budget::with_deadline(1e-9));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(m.over_budget());
  EXPECT_EQ(m.tripped(), StopReason::Deadline);
  EXPECT_GT(m.elapsed_seconds(), 0.0);
}

TEST(Meter, CancellationObservedAtNextStep) {
  Budget b;
  b.cancel.request_cancel();
  exec::Meter m(b);
  EXPECT_TRUE(m.over_budget(1));
  EXPECT_EQ(m.tripped(), StopReason::Cancelled);
}

TEST(Meter, CancelTokenCopiesAliasOneFlag) {
  exec::CancelToken a;
  exec::CancelToken b = a;
  EXPECT_FALSE(b.cancel_requested());
  a.request_cancel();
  EXPECT_TRUE(b.cancel_requested());
}

TEST(Meter, NodeCapAndByteCapThrow) {
  Budget b;
  b.node_cap = 100;
  b.memory_cap_bytes = 1024;
  exec::Meter m(b);
  EXPECT_NO_THROW(m.check_nodes(100));
  EXPECT_THROW(m.check_nodes(101), exec::BudgetExceeded);
  EXPECT_EQ(m.tripped(), StopReason::NodeCap);
  exec::Meter m2(b);
  EXPECT_NO_THROW(m2.charge_bytes(1024));
  EXPECT_THROW(m2.charge_bytes(1), exec::BudgetExceeded);
  EXPECT_EQ(m2.tripped(), StopReason::MemoryCap);
}

TEST(Meter, StopReasonNames) {
  EXPECT_STREQ(exec::to_string(StopReason::None), "none");
  EXPECT_STREQ(exec::to_string(StopReason::Deadline), "deadline");
  EXPECT_STREQ(exec::to_string(StopReason::NodeCap), "node-cap");
  EXPECT_STREQ(exec::to_string(StopReason::MemoryCap), "memory-cap");
  EXPECT_STREQ(exec::to_string(StopReason::StepQuota), "step-quota");
  EXPECT_STREQ(exec::to_string(StopReason::Cancelled), "cancelled");
  EXPECT_STREQ(exec::to_string(StopReason::AllocFailure), "alloc-failure");
}

TEST(Outcome, CompletenessPredicates) {
  exec::Outcome<int> ok;
  ok.value = 42;
  EXPECT_TRUE(ok.complete());
  EXPECT_FALSE(ok.degraded());
  EXPECT_EQ(*ok, 42);

  exec::Outcome<int> partial;
  partial.diag.stop = StopReason::StepQuota;
  EXPECT_FALSE(partial.complete());

  exec::Outcome<int> degraded;
  degraded.diag.degraded = true;
  EXPECT_FALSE(degraded.complete());
  EXPECT_TRUE(degraded.degraded());
}

// --- Markov: validation + budgeted convergence ------------------------------

TEST(MarkovValidation, RejectsWrongSizedInputProbs) {
  auto stg = fsm::counter_fsm(3);  // 1 input bit -> 2 symbols
  std::vector<double> three{0.5, 0.25, 0.25};
  try {
    fsm::analyze_markov(stg, three);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2"), std::string::npos) << msg;
  }
}

TEST(MarkovValidation, RejectsBadSum) {
  auto stg = fsm::counter_fsm(3);
  std::vector<double> bad{0.7, 0.7};
  EXPECT_THROW(fsm::analyze_markov(stg, bad), std::invalid_argument);
  std::vector<double> negative{1.5, -0.5};
  EXPECT_THROW(fsm::analyze_markov(stg, negative), std::invalid_argument);
}

TEST(MarkovValidation, AcceptsValidDistribution) {
  auto stg = fsm::counter_fsm(3);
  std::vector<double> probs{0.25, 0.75};
  auto ma = fsm::analyze_markov(stg, probs);
  EXPECT_TRUE(ma.converged);
  EXPECT_GT(ma.iterations, 0);
  EXPECT_LT(ma.residual, 1e-10);
  double sum = 0.0;
  for (double p : ma.state_prob) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(MarkovBudgeted, StepQuotaYieldsHonestPartialResult) {
  auto stg = fsm::random_fsm(64, 2, 2, 11);
  auto full = fsm::analyze_markov(stg);
  ASSERT_TRUE(full.converged);

  auto out = fsm::analyze_markov_budgeted(stg, Budget::with_step_quota(2));
  EXPECT_FALSE(out.complete());
  EXPECT_EQ(out.diag.stop, StopReason::StepQuota);
  EXPECT_FALSE(out->converged);
  EXPECT_LE(out->iterations, 3);
  // The partial iterate is still a distribution over the right state set.
  ASSERT_EQ(out->state_prob.size(), stg.num_states());
  double sum = 0.0;
  for (double p : out->state_prob) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(MarkovBudgeted, UnlimitedBudgetMatchesPlainAnalysis) {
  auto stg = fsm::protocol_fsm(4);
  auto plain = fsm::analyze_markov(stg);
  auto out = fsm::analyze_markov_budgeted(stg, Budget{});
  EXPECT_TRUE(out.complete());
  EXPECT_EQ(out->iterations, plain.iterations);
  for (std::size_t s = 0; s < stg.num_states(); ++s)
    EXPECT_DOUBLE_EQ(out->state_prob[s], plain.state_prob[s]);
}

// --- Monte Carlo: stop reasons + checkpoint/resume ---------------------------

TEST(MonteCarloBudgeted, QuotaTripReturnsResumableCheckpoint) {
  auto mod = netlist::adder_module(8);
  stats::Rng budgeted_rng(7);
  auto out = core::monte_carlo_power_budgeted(
      mod, [&] { return budgeted_rng.uniform_bits(16); },
      Budget::with_step_quota(100), 0.03);
  EXPECT_EQ(out->stop_reason,
            core::MonteCarloResult::StopReason::BudgetExhausted);
  EXPECT_FALSE(out->converged);
  EXPECT_EQ(out->pairs, 100u);
  ASSERT_TRUE(out->checkpoint.valid());
  EXPECT_EQ(out->checkpoint.count, 100u);

  // Resume from the checkpoint, drawing from the SAME generator sequence:
  // the finished estimate must equal a single uninterrupted run.
  auto resumed = core::monte_carlo_power_budgeted(
      mod, [&] { return budgeted_rng.uniform_bits(16); }, Budget{}, 0.03,
      0.95, 30, 100000, {}, {}, out->checkpoint);
  EXPECT_EQ(resumed->stop_reason,
            core::MonteCarloResult::StopReason::Converged);

  stats::Rng straight_rng(7);
  auto straight = core::monte_carlo_power(
      mod, [&] { return straight_rng.uniform_bits(16); }, 0.03);
  EXPECT_EQ(resumed->pairs, straight.pairs);
  EXPECT_DOUBLE_EQ(resumed->mean_energy, straight.mean_energy);
  EXPECT_DOUBLE_EQ(resumed->ci_halfwidth, straight.ci_halfwidth);
}

TEST(MonteCarloBudgeted, CancellationStopsTheRun) {
  auto mod = netlist::adder_module(8);
  Budget b;
  b.cancel.request_cancel();  // cancelled before the first pair
  stats::Rng rng(3);
  auto out = core::monte_carlo_power_budgeted(
      mod, [&] { return rng.uniform_bits(16); }, b, 0.03);
  EXPECT_EQ(out.diag.stop, StopReason::Cancelled);
  EXPECT_EQ(out->pairs, 0u);
  EXPECT_FALSE(out->checkpoint.valid());
}

// --- Glitch simulation: prefix semantics ------------------------------------

TEST(GlitchBudgeted, TripKeepsExactPrefixRates) {
  auto mod = netlist::multiply_reduce_module(4, 2);
  stats::Rng rng(5);
  auto stream = sim::random_stream(8, 200, 0.5, rng);

  auto full = sim::simulate_glitches(mod.netlist, stream);
  EXPECT_EQ(full.cycles, 200u);

  // 49 budget steps = cycles 1..49 simulated, i.e. a 50-cycle prefix.
  auto out = sim::simulate_glitches_budgeted(mod.netlist, stream,
                                             Budget::with_step_quota(49));
  EXPECT_EQ(out.diag.stop, StopReason::StepQuota);
  EXPECT_EQ(out->cycles, 50u);

  stats::VectorStream prefix;
  prefix.width = stream.width;
  prefix.words.assign(stream.words.begin(), stream.words.begin() + 50);
  auto ref = sim::simulate_glitches(mod.netlist, prefix);
  ASSERT_EQ(out->total_activity.size(), ref.total_activity.size());
  for (std::size_t g = 0; g < ref.total_activity.size(); ++g) {
    EXPECT_DOUBLE_EQ(out->total_activity[g], ref.total_activity[g]);
    EXPECT_DOUBLE_EQ(out->functional_activity[g], ref.functional_activity[g]);
  }
}

// --- Schedulers: partial management / ASAP fallback --------------------------

cdfg::Cdfg mux_heavy_cdfg() {
  cdfg::Cdfg g;
  using cdfg::OpKind;
  auto c = g.add_input("c", 1);
  for (int i = 0; i < 4; ++i) {
    auto a = g.add_input();
    auto b = g.add_input();
    auto x = g.add_binary(OpKind::Add, a, b);
    auto y = g.add_binary(OpKind::Mul, a, b);
    auto m = g.add_mux(c, x, y);
    g.mark_output(m);
  }
  return g;
}

TEST(SchedulerBudgeted, MonteiroTripKeepsAcceptedMuxes) {
  auto g = mux_heavy_cdfg();
  auto full = core::monteiro_schedule(g);
  ASSERT_GT(full.managed_muxes.size(), 1u);

  auto out = core::monteiro_schedule_budgeted(g, Budget::with_step_quota(1));
  EXPECT_TRUE(out.degraded());
  EXPECT_EQ(out.diag.stop, StopReason::StepQuota);
  EXPECT_LT(out->managed_muxes.size(), full.managed_muxes.size());
  // The partial schedule is still complete and consistent with its edges.
  EXPECT_EQ(out->schedule.start.size(), g.size());
  EXPECT_GT(out->schedule.length, 0);

  auto unlimited = core::monteiro_schedule_budgeted(g, Budget{});
  EXPECT_TRUE(unlimited.complete());
  EXPECT_EQ(unlimited->managed_muxes, full.managed_muxes);
}

TEST(SchedulerBudgeted, ActivityDrivenDegradesToAsap) {
  auto g = mux_heavy_cdfg();
  std::map<cdfg::OpKind, int> limits{{cdfg::OpKind::Mul, 1},
                                     {cdfg::OpKind::Add, 1}};
  auto out =
      core::activity_driven_schedule_budgeted(g, Budget::with_step_quota(1),
                                              limits);
  EXPECT_TRUE(out.degraded());
  EXPECT_EQ(out.diag.degraded_to, "asap schedule (resource limits ignored)");
  auto asap = cdfg::asap(g);
  EXPECT_EQ(out->start, asap.start);
  EXPECT_EQ(out->length, asap.length);

  auto unlimited = core::activity_driven_schedule_budgeted(g, Budget{}, limits);
  EXPECT_TRUE(unlimited.complete());
  auto plain = core::activity_driven_schedule(g, limits);
  EXPECT_EQ(unlimited->start, plain.start);
}

// --- Symbolic -> sampling degradation ----------------------------------------

TEST(Degradation, PrecomputeSelectionFallsBackToSampling) {
  auto mod = netlist::comparator_module(6);  // output 0 = lt
  auto symbolic = core::select_precompute_inputs(mod, 2);

  // A 16-node cap is hopeless for the comparator BDD: must degrade.
  auto out =
      core::select_precompute_inputs_budgeted(mod, 2, Budget::with_node_cap(16));
  EXPECT_TRUE(out.degraded());
  EXPECT_EQ(out.diag.degraded_to, "sampled coverage");
  EXPECT_EQ(out->size(), symbolic.size());
  // Sampled selection must still produce a usable predictor subset: build
  // the precomputed circuit and check it fires on a nonzero input fraction.
  auto pc = core::build_precomputed(mod, *out);
  EXPECT_GT(pc.coverage, 0.0);

  auto unlimited = core::select_precompute_inputs_budgeted(mod, 2, Budget{});
  EXPECT_TRUE(unlimited.complete());
  EXPECT_EQ(*unlimited, symbolic);
}

/// Shared-ALU style module with a guardable mux bank: sel ? a+b : a*b.
netlist::Module alu_select_module(int n) {
  netlist::Module m;
  m.name = "alusel";
  auto& nl = m.netlist;
  auto a = netlist::make_input_word(nl, n, "a");
  auto b = netlist::make_input_word(nl, n, "b");
  auto sel = nl.add_input("sel");
  auto sum = netlist::ripple_adder(nl, a, b);
  auto mult = netlist::array_multiplier(nl, a, b);
  mult.resize(sum.size(), mult.empty() ? 0 : mult.back());
  auto out = netlist::mux_word(nl, sel, sum, mult);
  netlist::mark_output_word(nl, out, "y");
  m.input_words = {a, b, {sel}};
  m.output_words = {out};
  return m;
}

TEST(Degradation, GuardDiscoveryFallsBackToSampledOdc) {
  auto mod = alu_select_module(4);
  auto symbolic = core::find_guards(mod);
  ASSERT_FALSE(symbolic.empty());

  auto out = core::find_guards_budgeted(mod, Budget::with_node_cap(8));
  EXPECT_TRUE(out.degraded());
  EXPECT_EQ(out.diag.degraded_to, "random-vector ODC verification");
  ASSERT_EQ(out->size(), symbolic.size());
  for (std::size_t i = 0; i < symbolic.size(); ++i) {
    EXPECT_EQ((*out)[i].guard, symbolic[i].guard);
    EXPECT_EQ((*out)[i].cone, symbolic[i].cone);
  }
  // Degraded guards still produce a functionally correct guarded circuit.
  auto gc = core::apply_guards(mod, *out);
  stats::Rng rng(9);
  auto stream = sim::random_stream(mod.total_input_bits(), 300, 0.5, rng);
  auto ev = core::evaluate_guarded(mod, gc, stream);
  EXPECT_TRUE(ev.functionally_correct);

  auto unlimited = core::find_guards_budgeted(mod, Budget{});
  EXPECT_TRUE(unlimited.complete());
  EXPECT_EQ(unlimited->size(), symbolic.size());
}

TEST(Degradation, ReachabilityFallsBackToExplicitBfs) {
  auto stg = fsm::protocol_fsm(5);
  std::vector<std::uint64_t> codes;
  for (std::size_t s = 0; s < stg.num_states(); ++s) codes.push_back(s);
  int bits = 1;
  while ((std::size_t{1} << bits) < stg.num_states()) ++bits;
  auto sf = fsm::synthesize_fsm(stg, codes, bits);

  bdd::Manager ref_mgr;
  auto ref_sym = fsm::build_symbolic(ref_mgr, sf);
  auto ref = fsm::symbolic_reachability(ref_sym);

  bdd::Manager mgr;
  auto out = fsm::reachability_budgeted(mgr, sf, stg,
                                        Budget::with_node_cap(4));
  EXPECT_TRUE(out.degraded());
  EXPECT_EQ(out.diag.degraded_to, "explicit STG breadth-first search");
  EXPECT_DOUBLE_EQ(out->count, ref.count);
  // The rebuilt characteristic function agrees with the symbolic one per
  // code, and the manager (which tripped mid-build) is still usable.
  fsm::SymbolicFsm probe;
  probe.mgr = &mgr;
  probe.state_bits = sf.state_bits;
  for (int k = 0; k < sf.state_bits; ++k)
    probe.s_vars.push_back(static_cast<std::uint32_t>(sf.inputs.size() + k));
  for (std::size_t s = 0; s < stg.num_states(); ++s)
    EXPECT_EQ(fsm::code_reachable(probe, out->reached, codes[s]),
              fsm::code_reachable(ref_sym, ref.reached, codes[s]))
        << "state " << s;

  bdd::Manager mgr2;
  auto unlimited = fsm::reachability_budgeted(mgr2, sf, stg, Budget{});
  EXPECT_TRUE(unlimited.complete());
  EXPECT_DOUBLE_EQ(unlimited->count, ref.count);
  EXPECT_EQ(unlimited->iterations, ref.iterations);
}

}  // namespace
