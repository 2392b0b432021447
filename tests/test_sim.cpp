#include <gtest/gtest.h>

#include "netlist/generators.hpp"
#include "netlist/words.hpp"
#include "sim/glitch_sim.hpp"
#include "sim/power.hpp"
#include "sim/simulator.hpp"
#include "sim/streams.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hlp;
using namespace hlp::sim;
using netlist::GateKind;
using netlist::Netlist;

TEST(Simulator, SequentialCounter) {
  // 2-bit counter out of toggle flops.
  Netlist nl;
  auto q0 = nl.add_dff();
  auto q1 = nl.add_dff();
  auto nq0 = nl.add_unary(GateKind::Not, q0);
  nl.set_dff_input(q0, nq0);
  auto x = nl.add_binary(GateKind::Xor, q1, q0);
  nl.set_dff_input(q1, x);
  Simulator s(nl);
  std::vector<int> seen;
  for (int c = 0; c < 8; ++c) {
    s.eval();
    seen.push_back((s.value(q1) << 1) | s.value(q0));
    s.tick();
  }
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(ActivityCollector, CountsToggles) {
  Netlist nl;
  auto a = nl.add_input();
  auto b = nl.add_unary(GateKind::Not, a);
  Simulator s(nl);
  ActivityCollector col(nl);
  for (int c = 0; c < 10; ++c) {
    s.set_input(a, c % 2);
    s.eval();
    col.record(s);
  }
  auto acts = col.activities();
  EXPECT_NEAR(acts[a], 1.0, 1e-12);
  EXPECT_NEAR(acts[b], 1.0, 1e-12);
}

TEST(Streams, RandomStreamSignalProbability) {
  stats::Rng rng(5);
  auto s = random_stream(16, 4000, 0.25, rng);
  auto q = stats::signal_probabilities(s);
  for (double qi : q) EXPECT_NEAR(qi, 0.25, 0.05);
}

TEST(Streams, CorrelatedStreamHasLowActivity) {
  stats::Rng rng(5);
  auto hot = correlated_stream(8, 4000, 0.95, rng);
  auto cold = correlated_stream(8, 4000, 0.0, rng);
  double a_hot = stats::avg_hamming_per_cycle(hot);
  double a_cold = stats::avg_hamming_per_cycle(cold);
  EXPECT_LT(a_hot, a_cold * 0.3);
}

TEST(Streams, CounterStreamLsbToggles) {
  auto s = counter_stream(8, 256);
  auto e = stats::switching_activities(s);
  EXPECT_NEAR(e[0], 1.0, 1e-12);   // LSB toggles every cycle
  EXPECT_NEAR(e[7], 1.0 / 255.0, 1e-9);  // MSB toggles once (at 127 -> 128)
}

TEST(Streams, GaussianWalkSignBitsCorrelated) {
  stats::Rng rng(5);
  auto s = gaussian_walk_stream(12, 4000, 0.99, 0.2, rng);
  auto e = stats::switching_activities(s);
  // MSB (sign region) switches far less than LSB (noise region).
  EXPECT_LT(e[11], e[0] * 0.5);
}

TEST(Power, ScalesWithActivityAndCap) {
  auto mod = netlist::adder_module(8);
  std::vector<double> low(mod.netlist.gate_count(), 0.1);
  std::vector<double> high(mod.netlist.gate_count(), 0.4);
  PowerParams p;
  auto rl = compute_power(mod.netlist, low, p);
  auto rh = compute_power(mod.netlist, high, p);
  EXPECT_NEAR(rh.total_power / rl.total_power, 4.0, 1e-9);
  EXPECT_GT(rl.total_power, 0.0);
}

TEST(Power, ComponentBreakdownSumsToTotal) {
  auto mod = netlist::adder_module(4);
  std::vector<double> acts(mod.netlist.gate_count(), 0.25);
  std::vector<std::string> labels(mod.netlist.gate_count());
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = (i % 2) ? "even" : "odd";
  auto by = switched_cap_by_component(mod.netlist, acts, labels);
  auto rep = compute_power(mod.netlist, acts);
  double sum = 0.0;
  for (auto& [k, v] : by) sum += v;
  EXPECT_NEAR(sum, rep.switched_cap, 1e-9);
}

TEST(GlitchSim, XorChainGlitches) {
  // Unbalanced XOR chain: x ^ x ^ x ... arrival-time skew produces glitches
  // under unit delay when driven by a common toggling input via different
  // depths.
  Netlist nl;
  auto a = nl.add_input();
  auto b = nl.add_input();
  // path1 = a (level 0); path2 = NOT NOT NOT a (level 3).
  auto n1 = nl.add_unary(GateKind::Not, a);
  auto n2 = nl.add_unary(GateKind::Not, n1);
  auto n3 = nl.add_unary(GateKind::Not, n2);
  auto x = nl.add_binary(GateKind::Xor, a, n3);
  auto y = nl.add_binary(GateKind::And, x, b);
  nl.mark_output(y);
  // x functionally = a ^ !a = 1 constant; all its activity is glitching.
  stats::Rng rng(3);
  auto in = random_stream(2, 2000, 0.5, rng);
  auto res = simulate_glitches(nl, in);
  EXPECT_NEAR(res.functional_activity[x], 0.0, 1e-12);
  EXPECT_GT(res.total_activity[x], 0.3);
}

TEST(GlitchSim, TotalAtLeastFunctional) {
  auto mod = netlist::multiplier_module(5);
  stats::Rng rng(17);
  auto in = random_stream(10, 300, 0.5, rng);
  auto res = simulate_glitches(mod.netlist, in);
  for (std::size_t g = 0; g < res.total_activity.size(); ++g)
    EXPECT_GE(res.total_activity[g] + 1e-12, res.functional_activity[g]);
}

TEST(GlitchSim, FunctionalMatchesZeroDelaySim) {
  auto mod = netlist::adder_module(6);
  stats::Rng rng(23);
  auto in = random_stream(12, 500, 0.5, rng);
  auto res = simulate_glitches(mod.netlist, in);
  auto zero = simulate_activities(mod.netlist, in);
  for (std::size_t g = 0; g < zero.size(); ++g)
    EXPECT_NEAR(res.functional_activity[g], zero[g], 1e-9);
}

TEST(SimulateActivities, OutputStreamMatchesManualSim) {
  auto mod = netlist::parity_module(4);
  stats::Rng rng(2);
  auto in = random_stream(4, 100, 0.5, rng);
  stats::VectorStream out;
  simulate_activities(mod.netlist, in, &out);
  ASSERT_EQ(out.words.size(), in.words.size());
  for (std::size_t t = 0; t < in.words.size(); ++t) {
    bool parity = __builtin_popcountll(in.words[t]) % 2;
    EXPECT_EQ(out.words[t] & 1, parity ? 1u : 0u);
  }
}

TEST(WideNetlist, SetAllInputsAndOutputBitsThrowBeyond64) {
  // 70 inputs / 70 outputs: the packed-word entry points must refuse
  // instead of silently truncating to the low 64 lines.
  Netlist nl;
  std::vector<netlist::GateId> ins;
  for (int i = 0; i < 70; ++i) ins.push_back(nl.add_input());
  for (int i = 0; i < 70; ++i) {
    auto b = nl.add_unary(GateKind::Buf, ins[static_cast<std::size_t>(i)]);
    nl.mark_output(b);
  }
  Simulator s(nl);
  EXPECT_THROW(s.set_all_inputs(0), std::out_of_range);
  EXPECT_THROW((void)s.output_bits(), std::out_of_range);
}

TEST(Streams, ZipAndConcat) {
  auto a = counter_stream(4, 10);
  auto b = counter_stream(4, 10, 5);
  auto z = zip_streams(a, b);
  EXPECT_EQ(z.width, 8);
  EXPECT_EQ(z.words[0], (5ull << 4) | 0ull);
  auto c = concat_streams({a, b});
  EXPECT_EQ(c.words.size(), 20u);
}

}  // namespace
