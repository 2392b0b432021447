#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/macromodel.hpp"
#include "core/precomputation.hpp"
#include "fsm/benchmarks.hpp"
#include "fsm/encoding.hpp"
#include "fsm/synth.hpp"
#include "netlist/generators.hpp"
#include "scalar_reference.hpp"
#include "sim/power.hpp"
#include "sim/simulator.hpp"
#include "sim/streams.hpp"
#include "sim/toggle_energy.hpp"
#include "stats/rng.hpp"

// The cycle-by-cycle branch of sim::sweep_stream (registered netlists and
// combinational ones wider than 64 lines) against the scalar reference
// loops; the packed branch has its own suites (PackedDifferential.*,
// PackedCharacterize.*, BlockDifferential.*).

namespace {

using namespace hlp;
using netlist::GateId;
using netlist::GateKind;

void expect_sweeps_match(const netlist::Module& mod, std::size_t cycles,
                         std::uint64_t seed, const std::string& name) {
  const auto& nl = mod.netlist;
  ASSERT_FALSE(sim::temporal_packable(nl)) << name;
  stats::Rng rng(seed);
  auto in = sim::random_stream(mod.total_input_bits(), cycles, 0.5, rng);

  stats::VectorStream ref_out, out;
  const auto ref_acts = scalar_ref::activities(nl, in, &ref_out);
  EXPECT_EQ(sim::simulate_activities(nl, in), ref_acts) << name;
  EXPECT_EQ(sim::simulate_activities(nl, in, &out), ref_acts) << name;
  EXPECT_EQ(out.width, ref_out.width) << name;
  EXPECT_EQ(out.words, ref_out.words) << name;
  EXPECT_EQ(sim::simulate_outputs(nl, in).words, ref_out.words) << name;

  const auto cs = scalar_ref::characterize(mod, in);
  const auto cp = core::characterize(mod, in);
  ASSERT_EQ(cs.transitions(), cp.transitions()) << name;
  EXPECT_EQ(cs.n_in, cp.n_in);
  EXPECT_EQ(cs.n_out, cp.n_out);
  EXPECT_EQ(cs.total_cap, cp.total_cap);
  EXPECT_EQ(cs.energy, cp.energy) << name;
  EXPECT_EQ(cs.pin_toggle, cp.pin_toggle) << name;
  EXPECT_EQ(cs.in_activity, cp.in_activity) << name;
  EXPECT_EQ(cs.in_prob, cp.in_prob) << name;
  EXPECT_EQ(cs.out_activity, cp.out_activity) << name;
  EXPECT_EQ(cs.cur_word, cp.cur_word) << name;
  EXPECT_EQ(cs.prev_word, cp.prev_word) << name;
}

TEST(StreamSweep, SynthesizedControllersMatchScalarReference) {
  std::uint64_t seed = 1;
  for (const auto& [name, stg] : fsm::controller_benchmarks()) {
    const auto style = fsm::EncodingStyle::Binary;
    auto sf = fsm::synthesize_fsm(
        stg, fsm::encode_states(stg, style),
        fsm::encoding_bits(style, stg.num_states()));
    ASSERT_FALSE(sf.netlist.dffs().empty()) << name;
    netlist::Module mod;
    mod.name = name;
    mod.netlist = std::move(sf.netlist);
    mod.input_words = {sf.inputs};
    mod.output_words = {sf.outputs};
    // 300 cycles: long enough to walk every controller out of reset.
    expect_sweeps_match(mod, 300, seed++, name);
  }
}

TEST(StreamSweep, ShiftRegisterMatchesScalarReference) {
  // x -> q0 -> q1 -> ... -> q7, every stage a primary output, with a
  // parity of the taps so the logic between registers toggles too.
  netlist::Module mod;
  auto& nl = mod.netlist;
  const GateId x = nl.add_input("x");
  const GateId en = nl.add_input("en");
  GateId d = x;
  netlist::Word stages;
  for (int i = 0; i < 8; ++i) {
    const GateId q = nl.add_dff(d, i % 2 == 1);
    stages.push_back(q);
    d = q;
  }
  const GateId parity = nl.add_gate(GateKind::Xor, stages);
  const GateId gated = nl.add_binary(GateKind::And, parity, en);
  for (GateId q : stages) nl.mark_output(q);
  nl.mark_output(gated);
  mod.input_words = {{x, en}};
  stages.push_back(gated);
  mod.output_words = {stages};
  expect_sweeps_match(mod, 200, 9, "shift8");
}

TEST(StreamSweep, WideCombinationalNetlistTakesTheCycleLoop) {
  // 8 inputs, 80 outputs: combinational, but wider than one stream word.
  netlist::Netlist nl;
  netlist::Word ins;
  for (int i = 0; i < 8; ++i) ins.push_back(nl.add_input());
  const GateKind kinds[] = {GateKind::And, GateKind::Or, GateKind::Xor,
                            GateKind::Nand, GateKind::Nor};
  for (int o = 0; o < 80; ++o) {
    const GateId a = ins[static_cast<std::size_t>(o % 8)];
    const GateId b = ins[static_cast<std::size_t>((o / 8 + o + 1) % 8)];
    nl.mark_output(nl.add_binary(kinds[o % 5], a, b));
  }
  ASSERT_TRUE(nl.dffs().empty());
  ASSERT_FALSE(sim::temporal_packable(nl));
  stats::Rng rng(17);
  auto in = sim::random_stream(8, 150, 0.5, rng);
  EXPECT_EQ(sim::simulate_activities(nl, in), scalar_ref::activities(nl, in));
}

TEST(StreamSweep, PrecomputeBesideA64OutputReferenceReadsEveryLine) {
  // A 64-output reference plus the `fired` flag is 65 lines, wider than one
  // stream word. With every input in the subset each output is decided, so
  // `fired` holds every cycle and y replays the inputs one cycle late.
  netlist::Module mod;
  netlist::Word ins, outs;
  for (int i = 0; i < 64; ++i) ins.push_back(mod.netlist.add_input());
  for (GateId x : ins) {
    outs.push_back(mod.netlist.add_unary(GateKind::Not, x));
    mod.netlist.mark_output(outs.back());
  }
  mod.input_words = {ins};
  mod.output_words = {outs};
  std::vector<std::uint32_t> subset;
  for (std::uint32_t i = 0; i < 64; ++i) subset.push_back(i);
  auto pc = core::build_precomputed_multi(mod, subset, true);
  ASSERT_EQ(pc.netlist.outputs().size(), 65u);

  stats::Rng rng(23);
  auto in = sim::random_stream(64, 100, 0.5, rng);
  auto ev = core::evaluate_precomputed_multi(pc, mod, in);
  EXPECT_TRUE(ev.functionally_correct);
  EXPECT_EQ(ev.coverage_observed, 1.0);
  EXPECT_EQ(ev.power,
            sim::compute_power(pc.netlist,
                               scalar_ref::activities(pc.netlist, in), {})
                .total_power);
}

TEST(StreamSweep, LoadsAndEnergyMustComeTogether) {
  auto mod = netlist::adder_module(4);
  stats::Rng rng(5);
  auto in = sim::random_stream(mod.total_input_bits(), 20, 0.5, rng);
  const std::vector<double> ld(mod.netlist.gate_count(), 1.0);
  const sim::LoadClasses loads(ld);
  std::vector<double> energy;
  EXPECT_THROW(sim::sweep_stream(mod.netlist, in, {}, nullptr, nullptr,
                                 &energy, nullptr),
               std::invalid_argument);
  EXPECT_THROW(sim::sweep_stream(mod.netlist, in, {}, nullptr, &loads,
                                 nullptr, nullptr),
               std::invalid_argument);
  sim::sweep_stream(mod.netlist, in, {}, nullptr, &loads, &energy, nullptr);
  EXPECT_EQ(energy.size(), 19u);
}

}  // namespace
