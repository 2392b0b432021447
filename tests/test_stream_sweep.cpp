#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bus_codec.hpp"
#include "core/bus_encoding.hpp"
#include "core/clock_gating.hpp"
#include "core/fsm_encoding_power.hpp"
#include "core/macromodel.hpp"
#include "core/precomputation.hpp"
#include "core/retiming_power.hpp"
#include "fsm/benchmarks.hpp"
#include "fsm/decompose.hpp"
#include "fsm/encoding.hpp"
#include "fsm/markov.hpp"
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
// PackedCharacterize.*, BlockDifferential.*). The *ValuesArePinned cases
// fix, bit for bit, what the FSM, bus-codec and retiming estimators report
// from their sweeps on fixed seeds.

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

// Symbol 0 (the idle input of every controller benchmark) half the time,
// the other symbols evenly: exercises the weighted symbol draw.
std::vector<double> skewed_probs(std::size_t sym) {
  std::vector<double> p(sym, 0.5 / static_cast<double>(sym - 1));
  p[0] = 0.5;
  return p;
}

fsm::SynthesizedFsm binary_fsm(const fsm::Stg& stg) {
  const auto style = fsm::EncodingStyle::Binary;
  auto ma = fsm::analyze_markov(stg);
  return fsm::synthesize_fsm(stg, fsm::encode_states(stg, style, &ma),
                             fsm::encoding_bits(style, stg.num_states()));
}

TEST(StreamSweep, EncodingComparisonValuesArePinned) {
  struct Row {
    const char* fsm;
    const char* style;
    int state_bits;
    std::size_t gates;
    double expected_switching, simulated_power, simulated_state_switching;
  };
  // "skewed" is traffic under skewed_probs, seed 6; the rest are uniform,
  // seed 5.
  const Row pinned[] = {
      {"traffic", "binary", 2, 24, 0.75000000000033451, 12144679786.524347,
       0.71647765176784528},
      {"traffic", "gray", 2, 24, 0.50000000000020628, 10705803869.246161,
       0.47765176784523017},
      {"traffic", "one-hot", 4, 28, 1.0000000000004126, 14827468312.208134,
       0.95530353569046034},
      {"traffic", "random", 2, 24, 0.50000000000020628, 10978485657.104733,
       0.47765176784523017},
      {"traffic", "low-power", 2, 24, 0.50000000000020628, 10842144763.175447,
       0.47765176784523017},
      {"uart-rx", "binary", 4, 56, 0.83333333333358039, 30551701134.089382,
       0.82921947965310205},
      {"uart-rx", "gray", 4, 56, 0.5833333333339572, 26999958305.537003,
       0.58038692461641095},
      {"uart-rx", "one-hot", 11, 70, 0.9166666666666976, 35063667444.963303,
       0.91260840560373579},
      {"uart-rx", "random", 4, 56, 0.83333333333342219, 30955303535.690453,
       0.83055370246831217},
      {"uart-rx", "low-power", 4, 56, 0.49999999999978895, 25882129753.168777,
       0.49766511007338227},
      {"dma", "binary", 3, 42, 1.2682926829269496, 28255170113.408943,
       1.2835223482321547},
      {"dma", "gray", 3, 42, 1.073170731707362, 26008297198.132092,
       1.0773849232821882},
      {"dma", "one-hot", 8, 52, 1.5609756097561778, 33825550366.911282,
       1.5703802535023348},
      {"dma", "random", 3, 42, 1.1219512195122618, 26311832888.5924,
       1.1227484989993328},
      {"dma", "low-power", 3, 42, 0.92682926829274792, 24482196464.309536,
       0.92928619079386254},
      {"elevator", "binary", 3, 34, 1.0000000000000757, 19883255503.669109,
       1.0120080053368912},
      {"elevator", "gray", 3, 34, 0.8000000000001819, 18227776851.234158,
       0.80853902601734484},
      {"elevator", "one-hot", 6, 40, 1.2000000000001212, 23079177785.190125,
       1.2141427618412275},
      {"elevator", "random", 3, 34, 0.6000000000000606, 16547489993.328888,
       0.60707138092061375},
      {"elevator", "low-power", 3, 34, 0.6000000000000606, 16338183789.192793,
       0.60707138092061375},
      {"skewed", "binary", 2, 24, 0.63157894736860465, 11063417278.185457,
       0.64442961974649771},
      {"skewed", "gray", 2, 24, 0.42105263157905809, 9751292528.3522358,
       0.4296197464976651},
      {"skewed", "one-hot", 4, 28, 0.84210526315811618, 13611949633.088724,
       0.8592394929953302},
      {"skewed", "random", 2, 24, 0.42105263157905809, 9751292528.3522358,
       0.4296197464976651},
      {"skewed", "low-power", 2, 24, 0.42105263157905809, 10102359906.604403,
       0.4296197464976651},
  };
  std::vector<std::pair<std::string, core::EncodingReport>> got;
  for (const auto& [name, stg] : fsm::controller_benchmarks())
    for (auto& r : core::compare_encodings(stg, 1500, 5))
      got.emplace_back(name, std::move(r));
  const auto traffic = fsm::controller_by_name("traffic");
  for (auto& r : core::compare_encodings(traffic, 1500, 6,
                                         skewed_probs(traffic.n_symbols())))
    got.emplace_back("skewed", std::move(r));
  ASSERT_EQ(got.size(), std::size(pinned));
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& [name, r] = got[i];
    const Row& p = pinned[i];
    EXPECT_EQ(name, p.fsm);
    EXPECT_EQ(r.style, p.style) << name;
    EXPECT_EQ(r.state_bits, p.state_bits) << name << " " << p.style;
    EXPECT_EQ(r.gates, p.gates) << name << " " << p.style;
    EXPECT_EQ(r.expected_switching, p.expected_switching)
        << name << " " << p.style;
    EXPECT_EQ(r.simulated_power, p.simulated_power) << name << " " << p.style;
    EXPECT_EQ(r.simulated_state_switching, p.simulated_state_switching)
        << name << " " << p.style;
  }
}

TEST(StreamSweep, ClockGatingValuesArePinned) {
  struct Row {
    double base_power, gated_power, idle_fraction;
    std::size_t fa_gates;
    std::uint64_t next_draw;  ///< the caller's Rng after the call
  };
  // Per benchmark: uniform symbols, then skewed_probs; seeds 31, 32, ...
  const Row pinned[] = {
      {12348924462.231115, 12044461230.615309, 0.503, 1, 4437832135098332226u},
      {10705258879.43972, 10254957978.989494, 0.59850000000000003, 1,
       8421113818587475849u},
      {31611743371.685856, 30876590795.397709, 0.52749999999999997, 1,
       12297924204864605727u},
      {24053933216.608326, 22902060780.390217, 0.70350000000000001, 1,
       9151474028878637446u},
      {27727457478.739376, 27521280640.320168, 0.23499999999999999, 1,
       17329352874772846446u},
      {23391414457.228607, 22993805277.638813, 0.3695, 1, 5132048028282991681u},
      {19734367183.591797, 19369056778.389194, 0.41299999999999998, 1,
       9090000766562457985u},
      {16368715607.803907, 15758210980.49025, 0.5675, 1, 5819595666768455281u},
  };
  std::size_t i = 0;
  std::uint64_t seed = 31;
  for (const auto& [name, stg] : fsm::controller_benchmarks()) {
    const auto sf = binary_fsm(stg);
    for (bool skew : {false, true}) {
      ASSERT_LT(i, std::size(pinned));
      const Row& p = pinned[i++];
      const auto probs =
          skew ? skewed_probs(stg.n_symbols()) : std::vector<double>{};
      stats::Rng rng(seed++);
      const auto r = core::evaluate_clock_gating(stg, sf, 2000, rng, probs);
      EXPECT_EQ(r.base_power, p.base_power) << name << " skew " << skew;
      EXPECT_EQ(r.gated_power, p.gated_power) << name << " skew " << skew;
      EXPECT_EQ(r.idle_fraction, p.idle_fraction) << name << " skew " << skew;
      EXPECT_EQ(r.fa_gates, p.fa_gates) << name << " skew " << skew;
      EXPECT_EQ(rng.uniform_bits(64), p.next_draw) << name << " skew " << skew;
    }
  }
  EXPECT_EQ(i, std::size(pinned));
}

TEST(StreamSweep, GatedFsmActivationColumnCountsSelfLoops) {
  // The activation function F_a, built as evaluate_clock_gating builds it,
  // run cycle by cycle: its column holds exactly on the cycles where the
  // STG walk takes a self-loop.
  std::uint64_t seed = 81;
  for (const auto& [name, stg] : fsm::controller_benchmarks()) {
    auto sf = binary_fsm(stg);
    std::vector<GateId> terms;
    for (std::size_t s = 0; s < stg.num_states(); ++s)
      for (std::size_t a = 0; a < stg.n_symbols(); ++a)
        if (stg.next(static_cast<fsm::StateId>(s), a) ==
            static_cast<fsm::StateId>(s))
          terms.push_back(sf.terms[s][a]);
    ASSERT_GE(terms.size(), 2u) << name;
    const GateId fa = sf.netlist.add_gate(GateKind::Or, terms, "Fa");

    stats::Rng rng(seed++);
    std::vector<std::uint64_t> inputs;
    const auto states = fsm::simulate_states(
        stg, 1000, rng, skewed_probs(stg.n_symbols()), 0, &inputs, nullptr);
    std::size_t self_loops = 0, fa_high = 0;
    sim::Simulator s(sf.netlist);
    for (std::size_t c = 0; c < states.size(); ++c) {
      if (stg.next(states[c], inputs[c]) == states[c]) ++self_loops;
      s.set_word(sf.inputs, inputs[c]);
      s.eval();
      if (s.value(fa)) ++fa_high;
      s.tick();
    }
    EXPECT_GT(self_loops, 0u) << name;
    EXPECT_EQ(fa_high, self_loops) << name;
  }
}

TEST(StreamSweep, BusInvertCodecValuesArePinned) {
  struct Row {
    int width;
    std::size_t words;
    double binary, bi, codec_cap;
  };
  const Row pinned[] = {
      {8, 2, 0, 0, 0},
      {8, 3, 5, 1, 106.125},
      {8, 1000, 3.934869739478958, 3.376753507014028, 111.76226226226228},
      {16, 2, 0, 0, 0},
      {16, 3, 8, 8, 279.5},
      {16, 1000, 8.0891783567134272, 6.9058116232464926, 237.91216216216213},
  };
  for (const Row& p : pinned) {
    const auto codec = core::build_bus_invert_codec(p.width);
    stats::Rng rng(50 + static_cast<std::uint64_t>(p.width) + p.words);
    const auto words = core::random_data_stream(p.words, p.width, rng);
    const auto ev = core::evaluate_bus_invert_codec(codec, words);
    EXPECT_EQ(ev.bus_transitions_binary, p.binary) << p.width << "x" << p.words;
    EXPECT_EQ(ev.bus_transitions_bi, p.bi) << p.width << "x" << p.words;
    EXPECT_EQ(ev.codec_cap_per_word, p.codec_cap) << p.width << "x" << p.words;
    EXPECT_TRUE(ev.functionally_correct) << p.width << "x" << p.words;
  }
  // A receiver that inverts one decoded line fails the one-cycle-late check.
  auto broken = core::build_bus_invert_codec(8);
  broken.netlist.gate_mut(broken.decoded[0]).kind = GateKind::Xnor;
  stats::Rng rng(71);
  const auto ev = core::evaluate_bus_invert_codec(
      broken, core::random_data_stream(300, 8, rng));
  EXPECT_FALSE(ev.functionally_correct);
  EXPECT_EQ(ev.bus_transitions_binary, 3.8322147651006713);
  EXPECT_EQ(ev.bus_transitions_bi, 3.3456375838926173);
  EXPECT_EQ(ev.codec_cap_per_word, 111.9389632107024);
}

TEST(StreamSweep, DecompositionValuesArePinned) {
  struct Row {
    double mono_power, decomposed_power, crossing_rate, active0, active1;
    std::size_t mono_gates, sub0, sub1;
  };
  // Per benchmark: uniform symbols, then skewed_probs; seeds 41, 42, ...
  const Row pinned[] = {
      {12073349174.58729, 14596656250, 0.247, 0.247, 1, 24, 14, 26},
      {10859929964.982491, 12947218750, 0.21099999999999999,
       0.21099999999999999, 1, 24, 14, 26},
      {30003533016.50827, 28070250000, 0.080000000000000002,
       0.20999999999999999, 0.87, 56, 21, 56},
      {23956040520.260136, 22015218750, 0.052999999999999999,
       0.19700000000000001, 0.85599999999999998, 56, 21, 56},
      {27942908954.477242, 23199812500, 0.044499999999999998,
       0.96199999999999997, 0.082500000000000004, 42, 41, 20},
      {23388194097.048519, 21478625000, 0.010999999999999999,
       0.99450000000000005, 0.016500000000000001, 42, 41, 21},
      {19487837668.834419, 21055625000, 0.19800000000000001,
       0.29249999999999998, 0.90549999999999997, 34, 14, 37},
      {15889694847.42371, 13555125000, 0.14099999999999999, 0.5615,
       0.57950000000000002, 34, 26, 26},
  };
  std::size_t i = 0;
  std::uint64_t seed = 41;
  for (const auto& [name, stg] : fsm::controller_benchmarks()) {
    for (bool skew : {false, true}) {
      ASSERT_LT(i, std::size(pinned));
      const Row& p = pinned[i++];
      const auto probs =
          skew ? skewed_probs(stg.n_symbols()) : std::vector<double>{};
      const auto part =
          fsm::partition_min_crossing(stg, fsm::analyze_markov(stg, probs));
      const auto ev =
          fsm::evaluate_decomposition(stg, part, 2000, seed++, probs);
      EXPECT_EQ(ev.mono_power, p.mono_power) << name << " skew " << skew;
      EXPECT_EQ(ev.decomposed_power, p.decomposed_power)
          << name << " skew " << skew;
      EXPECT_EQ(ev.crossing_rate, p.crossing_rate) << name << " skew " << skew;
      EXPECT_EQ(ev.active_fraction[0], p.active0) << name << " skew " << skew;
      EXPECT_EQ(ev.active_fraction[1], p.active1) << name << " skew " << skew;
      EXPECT_EQ(ev.mono_gates, p.mono_gates) << name << " skew " << skew;
      EXPECT_EQ(ev.sub_gates[0], p.sub0) << name << " skew " << skew;
      EXPECT_EQ(ev.sub_gates[1], p.sub1) << name << " skew " << skew;
      EXPECT_TRUE(ev.functionally_correct) << name << " skew " << skew;
    }
  }
  EXPECT_EQ(i, std::size(pinned));
}

TEST(StreamSweep, RetimedValuesArePinned) {
  struct Row {
    const char* circuit;
    int cut;
    double power_total, power_functional;
    std::size_t registers;
  };
  const Row pinned[] = {
      {"mult4", 0, 28771543086.172348, 24552855711.422848, 9},
      {"mult4", 2, 31832039078.156311, 29423471943.887775, 17},
      {"mult4", 4, 31051352705.41082, 28814128256.513035, 16},
      {"mult4", 6, 30140531062.124256, 28132765531.062126, 15},
      {"mult4", 8, 29356212424.849693, 26747745490.981972, 13},
      {"mult4", 10, 29332665330.661327, 26020791583.166344, 12},
      {"mult4", 12, 29421718436.873753, 24805736472.945904, 10},
      {"mult4", 14, 29574649298.597195, 24149549098.1964, 9},
      {"parity8", 0, 9934869739.4789581, 9934869739.4789581, 8},
      {"parity8", 2, 4804859719.4388771, 4804859719.4388771, 2},
  };
  for (const Row& p : pinned) {
    const auto mod = std::string(p.circuit) == "mult4"
                         ? netlist::multiplier_module(4)
                         : netlist::parity_module(8);
    stats::Rng rng(61);
    const auto in = sim::random_stream(mod.total_input_bits(), 500, 0.5, rng);
    const auto ev =
        core::evaluate_retimed(core::place_registers_at_cut(mod, p.cut), mod,
                               in);
    EXPECT_EQ(ev.power_total, p.power_total) << p.circuit << " cut " << p.cut;
    EXPECT_EQ(ev.power_functional, p.power_functional)
        << p.circuit << " cut " << p.cut;
    EXPECT_EQ(ev.registers, p.registers) << p.circuit << " cut " << p.cut;
    EXPECT_TRUE(ev.functionally_correct) << p.circuit << " cut " << p.cut;
  }
  // Checked against another circuit's outputs, the one-cycle-lag check
  // fails.
  stats::Rng rng(73);
  const auto in = sim::random_stream(8, 300, 0.5, rng);
  const auto ev = core::evaluate_retimed(
      core::place_registers_at_cut(netlist::multiplier_module(4), 4),
      netlist::adder_module(4), in);
  EXPECT_FALSE(ev.functionally_correct);
  EXPECT_EQ(ev.power_total, 33034698996.655518);
  EXPECT_EQ(ev.power_functional, 30093645484.949833);
  EXPECT_EQ(ev.registers, 16u);
}

}  // namespace
