// Differential and property tests for hlp::analysis (DESIGN.md §10): the
// worklist fixpoint engine, the four analyses, the static estimator's
// bracketing guarantee against the simulation/symbolic kernels, and the
// serve tier-0 path.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/activity.hpp"
#include "analysis/arrival.hpp"
#include "analysis/bounds.hpp"
#include "analysis/const_prop.hpp"
#include "analysis/estimate.hpp"
#include "analysis/fixpoint.hpp"
#include "core/sampling_power.hpp"
#include "fsm/benchmarks.hpp"
#include "fsm/encoding.hpp"
#include "fsm/synth.hpp"
#include "jobs/kernels.hpp"
#include "netlist/generators.hpp"
#include "netlist/index.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sim/glitch_sim.hpp"
#include "sim/streams.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hlp;
using analysis::StaticEstimate;
using analysis::StaticOptions;
using netlist::GateId;
using netlist::Module;

// The combinational generator corpus every differential test sweeps.
const char* const kCombSpecs[] = {
    "adder:8",          "mult:4",           "mult:6",
    "parity:8",         "comparator:6",     "max:6",
    "mux:3",            "alu:4",            "mulred:4:2",
    "random:12:80:6:3", "random:16:200:8:9", "c17",
};

Module fsm_module(const std::string& name) {
  fsm::Stg stg = fsm::controller_by_name(name);
  std::vector<std::uint64_t> codes;
  for (std::size_t s = 0; s < stg.num_states(); ++s) codes.push_back(s);
  int bits = 1;
  while ((std::size_t{1} << bits) < stg.num_states()) ++bits;
  fsm::SynthesizedFsm sf = fsm::synthesize_fsm(stg, codes, bits);
  Module m;
  m.name = "fsm:" + name;
  m.netlist = std::move(sf.netlist);
  m.input_words = {sf.inputs};
  return m;
}

std::vector<Module> corpus() {
  std::vector<Module> mods;
  for (const char* spec : kCombSpecs) mods.push_back(jobs::make_module(spec));
  mods.push_back(fsm_module("traffic"));
  mods.push_back(fsm_module("dma"));
  mods.push_back(fsm_module("elevator"));
  return mods;
}

StaticEstimate estimate_of(const Module& m, std::size_t refine = 20000,
                           std::uint64_t salt = 0) {
  netlist::NetlistIndex ix = netlist::build_index(m.netlist);
  StaticOptions opts;
  opts.refine_node_budget = refine;
  opts.fixpoint.worklist_salt = salt;
  return analysis::static_estimate(m.netlist, ix, opts);
}

// --- Bracketing: lower <= truth <= upper ------------------------------------

TEST(StaticBounds, BracketSymbolicExactOnCombinationalCorpus) {
  for (const char* spec : kCombSpecs) {
    jobs::KernelRequest krq;
    krq.kind = jobs::JobKind::Symbolic;
    krq.design = spec;
    const jobs::AttemptOutcome sym = jobs::run_kernel(krq, {});
    ASSERT_TRUE(sym.ok) << spec;
    const StaticEstimate est = estimate_of(jobs::make_module(spec));
    EXPECT_LE(est.lower, sym.out.value + 1e-6) << spec;
    EXPECT_GE(est.upper, sym.out.value - 1e-6) << spec;
    EXPECT_LE(est.lower, est.upper) << spec;
    EXPECT_GE(est.point, est.lower - 1e-9) << spec;
    EXPECT_LE(est.point, est.upper + 1e-9) << spec;
  }
}

TEST(StaticBounds, BracketPackedMonteCarloOnFullCorpus) {
  // The Monte Carlo mean is a random variable centered on the true
  // expectation the bounds enclose, so the assertion allows its own
  // reported confidence-interval half-width (3x, ~4 sigma at 95%).
  for (const Module& m : corpus()) {
    const StaticEstimate est = estimate_of(m);
    stats::Rng rng(42);
    const int width = m.total_input_bits();
    auto gen = [&rng, width] { return rng.uniform_bits(width); };
    const core::MonteCarloResult mc =
        core::monte_carlo_power(m, gen, 0.01, 0.99, 100, 20000);
    const double slack = 3.0 * std::max(mc.ci_halfwidth, 1e-9);
    EXPECT_GE(mc.mean_energy, est.lower - slack) << m.name;
    EXPECT_LE(mc.mean_energy, est.upper + slack) << m.name;
  }
}

TEST(StaticBounds, RefinementTightensWithoutBreakingTheBracket) {
  const Module m = jobs::make_module("mult:6");
  jobs::KernelRequest krq;
  krq.kind = jobs::JobKind::Symbolic;
  krq.design = "mult:6";
  const double truth = jobs::run_kernel(krq, {}).out.value;
  double prev_spread = -1.0;
  for (std::size_t budget : {std::size_t{0}, std::size_t{2000},
                             std::size_t{200000}}) {
    const StaticEstimate est = estimate_of(m, budget);
    EXPECT_LE(est.lower, truth + 1e-6) << budget;
    EXPECT_GE(est.upper, truth - 1e-6) << budget;
    if (prev_spread >= 0.0) {
      EXPECT_LE(est.upper - est.lower, prev_spread + 1e-9)
          << "a larger refinement budget must not loosen bounds";
    }
    prev_spread = est.upper - est.lower;
  }
}

// --- Decorrelated point: exact where independence actually holds ------------

TEST(StaticPoint, ExactOnNonReconvergentNetlists) {
  // parity:N is a pure XOR tree — every input feeds one gate, so spatial
  // independence holds and the decorrelated point (no BDD refinement at
  // all) must equal the symbolic exact value to float accuracy.
  for (const char* spec : {"parity:8", "parity:16"}) {
    jobs::KernelRequest krq;
    krq.kind = jobs::JobKind::Symbolic;
    krq.design = spec;
    const double truth = jobs::run_kernel(krq, {}).out.value;
    const StaticEstimate est = estimate_of(jobs::make_module(spec), 0);
    EXPECT_NEAR(est.point, truth, 1e-9 * std::max(1.0, truth)) << spec;
  }
}

TEST(StaticPoint, BddRefinementRecoversExactValueOnReconvergentCone) {
  // Multipliers reconverge heavily; with enough refinement budget the whole
  // cone is BDD-exact and the point estimate equals the symbolic kernel.
  jobs::KernelRequest krq;
  krq.kind = jobs::JobKind::Symbolic;
  krq.design = "mult:4";
  const double truth = jobs::run_kernel(krq, {}).out.value;
  const StaticEstimate est = estimate_of(jobs::make_module("mult:4"), 500000);
  EXPECT_GT(est.activity.refined_gates, 0u);
  EXPECT_FALSE(est.activity.refine_budget_hit);
  EXPECT_NEAR(est.point, truth, 1e-9 * std::max(1.0, truth));
  // Fully refined combinational cone: bounds collapse onto the point.
  EXPECT_NEAR(est.upper, est.lower, 1e-9 * std::max(1.0, truth));
}

TEST(StaticPoint, DefaultBudgetIsExactOnSmallCones) {
  // These cones fit the default refinement budget in the kernel's own
  // variable order, so every gate is refined and the point is the symbolic
  // kernel's value to the bit, with the bounds collapsed onto it.
  for (const char* spec :
       {"adder:8", "adder:16", "comparator:12", "mult:6", "mult:7"}) {
    jobs::KernelRequest krq;
    krq.kind = jobs::JobKind::Symbolic;
    krq.design = spec;
    const double truth = jobs::run_kernel(krq, {}).out.value;
    const Module m = jobs::make_module(spec);
    const netlist::NetlistIndex ix = netlist::build_index(m.netlist);
    const StaticEstimate est = analysis::static_estimate(m.netlist, ix);
    EXPECT_FALSE(est.activity.refine_budget_hit) << spec;
    EXPECT_EQ(est.point, truth) << spec;
    EXPECT_EQ(est.upper, est.lower) << spec;
  }
}

// --- Determinism / worklist-order independence ------------------------------

TEST(Fixpoint, ResultsAreIndependentOfWorklistSalt) {
  for (const Module& m : corpus()) {
    const StaticEstimate base = estimate_of(m, 20000, 0);
    for (std::uint64_t salt : {std::uint64_t{1}, std::uint64_t{0x9e3779b9},
                               std::uint64_t{0xfeedfacecafebeefull}}) {
      const StaticEstimate other = estimate_of(m, 20000, salt);
      EXPECT_NEAR(base.point, other.point, 1e-9) << m.name << " salt " << salt;
      EXPECT_NEAR(base.lower, other.lower, 1e-9) << m.name << " salt " << salt;
      EXPECT_NEAR(base.upper, other.upper, 1e-9) << m.name << " salt " << salt;
    }
  }
}

TEST(Fixpoint, RepeatedRunsAreBitIdentical) {
  const Module m = jobs::make_module("random:16:200:8:9");
  const StaticEstimate a = estimate_of(m);
  const StaticEstimate b = estimate_of(m);
  EXPECT_EQ(a.point, b.point);
  EXPECT_EQ(a.lower, b.lower);
  EXPECT_EQ(a.upper, b.upper);
  ASSERT_EQ(a.gate_point.size(), b.gate_point.size());
  for (std::size_t g = 0; g < a.gate_point.size(); ++g)
    ASSERT_EQ(a.gate_point[g], b.gate_point[g]) << g;
}

TEST(Fixpoint, MeterTripStopsIterationGracefully) {
  const Module m = jobs::make_module("mult:6");
  netlist::NetlistIndex ix = netlist::build_index(m.netlist);
  exec::Budget b;
  b.step_quota = 10;
  exec::Meter meter(b);
  const StaticEstimate est =
      analysis::static_estimate(m.netlist, ix, {}, &meter);
  EXPECT_EQ(est.stop, exec::StopReason::StepQuota);
  EXPECT_FALSE(est.complete);
}

// --- Constant / dead-logic propagation --------------------------------------

TEST(ConstProp, ProvesConstantsThroughLogicAndRegisters) {
  netlist::Netlist nl;
  const GateId x = nl.add_input("x");
  const GateId zero = nl.add_const(false);
  const GateId dead = nl.add_binary(netlist::GateKind::And, x, zero, "dead");
  const GateId live = nl.add_binary(netlist::GateKind::Or, x, dead, "live");
  // A register recirculating its own output never leaves its init value.
  const GateId hold = nl.add_dff(netlist::kNullGate, true, "hold");
  nl.set_dff_input(hold, hold);
  const GateId gated =
      nl.add_binary(netlist::GateKind::And, live, hold, "gated");
  nl.mark_output(gated);

  netlist::NetlistIndex ix = netlist::build_index(nl);
  const analysis::ConstResult cr = analysis::run_const_prop(nl, ix);
  EXPECT_EQ(cr.value[dead], analysis::ConstValue::Zero);
  EXPECT_EQ(cr.value[hold], analysis::ConstValue::One);
  EXPECT_EQ(cr.value[live], analysis::ConstValue::Varying);
  EXPECT_EQ(cr.value[gated], analysis::ConstValue::Varying);
  EXPECT_TRUE(cr.stats.converged);
  EXPECT_GE(cr.constant_gates, 2u);

  // Constant nets carry zero activity in the estimate.
  const StaticEstimate est = [&] {
    return analysis::static_estimate(nl, ix);
  }();
  EXPECT_EQ(est.gate_point[dead], 0.0);
  EXPECT_EQ(est.gate_upper[dead], 0.0);
}

// --- Arrival windows vs the unit-delay glitch simulator ---------------------

TEST(Arrival, TransitionBoundDominatesGlitchSimulation)
{
  for (const char* spec : {"adder:8", "mult:4", "random:12:80:6:3"}) {
    const Module m = jobs::make_module(spec);
    netlist::NetlistIndex ix = netlist::build_index(m.netlist);
    const analysis::ArrivalResult ar = analysis::run_arrival(m.netlist, ix);
    ASSERT_TRUE(ar.stats.converged) << spec;
    stats::Rng rng(7);
    stats::VectorStream stream =
        sim::random_stream(m.total_input_bits(), 200, 0.5, rng);
    const sim::GlitchResult gr = sim::simulate_glitches(m.netlist, stream);
    for (GateId g = 0; g < m.netlist.gate_count(); ++g) {
      EXPECT_LE(gr.total_activity[g],
                static_cast<double>(ar.window[g].max_transitions) + 1e-9)
          << spec << " gate " << g;
    }
  }
}

// --- Serve: tier-0 static estimates and escalation --------------------------

TEST(ServeStatic, Tier0AnswersAndCaches) {
  serve::Service service;
  serve::Request rq;
  rq.op = serve::Op::Estimate;
  rq.kind = jobs::JobKind::Static;
  rq.design = "parity:8";
  rq.epsilon = 0.05;  // parity bounds are exact: tier-0 must satisfy this
  serve::ResponseView rv;
  ASSERT_TRUE(serve::parse_response(service.handle_line(rq.serialize()), rv));
  ASSERT_TRUE(rv.ok) << rv.error;
  EXPECT_NE(rv.detail.find("static-tier0"), std::string::npos) << rv.detail;
  EXPECT_FALSE(rv.degraded);

  // Second identical request: served from the result cache.
  serve::ResponseView rv2;
  ASSERT_TRUE(serve::parse_response(service.handle_line(rq.serialize()), rv2));
  EXPECT_EQ(rv2.value, rv.value);
  EXPECT_EQ(service.metrics().hits, 1u);
}

TEST(ServeStatic, EscalatesToMonteCarloWhenBoundsAreTooLoose) {
  serve::Service service;
  serve::Request rq;
  rq.op = serve::Op::Estimate;
  rq.kind = jobs::JobKind::Static;
  // An 8x8 multiplier's middle product bits blow the fixed BDD refinement
  // budget, so the unrefined tail keeps loose union-bound toggle intervals
  // and the spread cannot meet a 5% accuracy request.
  rq.design = "mult:8";
  rq.epsilon = 0.05;
  serve::ResponseView rv;
  ASSERT_TRUE(serve::parse_response(service.handle_line(rq.serialize()), rv));
  ASSERT_TRUE(rv.ok) << rv.error;
  EXPECT_NE(rv.detail.find("static-escalated"), std::string::npos)
      << rv.detail;
  EXPECT_FALSE(rv.degraded) << "escalation is the tier contract, not a "
                               "degradation: the result must cache";

  // The escalated value matches a direct Monte Carlo run with the same
  // derived parameters and seed.
  jobs::KernelRequest krq;
  krq.kind = jobs::JobKind::MonteCarlo;
  krq.design = rq.design;
  krq.epsilon = rq.epsilon;
  krq.seed = service.keys(rq).seed;
  const jobs::AttemptOutcome mc = jobs::run_kernel(krq, {});
  ASSERT_TRUE(mc.ok);
  EXPECT_EQ(rv.value, mc.out.value);
}

TEST(ServeStatic, StaticKindRoundTripsThroughTheWireProtocol) {
  serve::Request rq;
  rq.op = serve::Op::Estimate;
  rq.kind = jobs::JobKind::Static;
  rq.design = "adder:8";
  const std::string line = rq.serialize();
  serve::Request back;
  std::string error;
  ASSERT_TRUE(serve::Request::parse(line, back, error)) << error;
  EXPECT_EQ(back.kind, jobs::JobKind::Static);
  EXPECT_EQ(back.design, "adder:8");
}

}  // namespace
