#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "netlist/copy.hpp"
#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"
#include "netlist/words.hpp"
#include "sim/block_simulator.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hlp::netlist;
using hlp::sim::Simulator;

TEST(Netlist, GateEvaluation) {
  std::uint8_t v01[] = {0, 1};
  std::uint8_t v11[] = {1, 1};
  std::uint8_t v00[] = {0, 0};
  EXPECT_FALSE(eval_gate(GateKind::And, v01));
  EXPECT_TRUE(eval_gate(GateKind::And, v11));
  EXPECT_TRUE(eval_gate(GateKind::Or, v01));
  EXPECT_FALSE(eval_gate(GateKind::Or, v00));
  EXPECT_TRUE(eval_gate(GateKind::Nand, v01));
  EXPECT_FALSE(eval_gate(GateKind::Nand, v11));
  EXPECT_TRUE(eval_gate(GateKind::Xor, v01));
  EXPECT_FALSE(eval_gate(GateKind::Xor, v11));
  EXPECT_TRUE(eval_gate(GateKind::Xnor, v11));
  std::uint8_t mux_sel0[] = {0, 1, 0};  // sel=0 -> d0=1
  std::uint8_t mux_sel1[] = {1, 1, 0};  // sel=1 -> d1=0
  EXPECT_TRUE(eval_gate(GateKind::Mux, mux_sel0));
  EXPECT_FALSE(eval_gate(GateKind::Mux, mux_sel1));
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  Netlist nl;
  auto a = nl.add_input("a");
  auto b = nl.add_input("b");
  auto c = nl.add_binary(GateKind::And, a, b);
  auto d = nl.add_binary(GateKind::Or, c, a);
  const auto topo = nl.topo_order();
  ASSERT_EQ(topo.size(), 4u);
  auto pos = [&](GateId g) {
    return std::find(topo.begin(), topo.end(), g) - topo.begin();
  };
  EXPECT_LT(pos(a), pos(c));
  EXPECT_LT(pos(b), pos(c));
  EXPECT_LT(pos(c), pos(d));
}

TEST(Netlist, TopoOrderSeesSetFaninEdits) {
  Netlist nl;
  auto a = nl.add_input("a");
  auto b = nl.add_input("b");
  auto c = nl.add_input("c");
  auto x = nl.add_binary(GateKind::And, a, b);
  auto y = nl.add_binary(GateKind::Or, x, c);
  nl.mark_output(y);

  auto pos_in = [](const std::vector<GateId>& topo, GateId g) {
    return std::find(topo.begin(), topo.end(), g) - topo.begin();
  };
  {
    const auto topo = nl.topo_order();
    EXPECT_LT(pos_in(topo, x), pos_in(topo, y));
  }

  // Rewire y's first fanin from x to a: x no longer precedes y by
  // necessity, and the next order must be a valid topological order of the
  // *edited* graph.
  nl.set_fanin(y, 0, a);
  EXPECT_EQ(nl.gate(y).fanins[0], a);
  {
    const auto topo = nl.topo_order();
    ASSERT_EQ(topo.size(), nl.gate_count());
    EXPECT_LT(pos_in(topo, a), pos_in(topo, y));
  }

  // Rewire through gate_mut(): make y depend on x again, then make x
  // depend on y — a combinational cycle the next order must detect.
  nl.gate_mut(y).fanins[0] = x;
  (void)nl.topo_order();
  nl.set_fanin(x, 0, y);
  EXPECT_THROW(nl.topo_order(), std::logic_error);

  // Undo; add_extra_cap must not perturb topology but must show up in
  // loads().
  nl.set_fanin(x, 0, a);
  EXPECT_NO_THROW(nl.topo_order());
  auto before = nl.loads();
  nl.add_extra_cap(x, 2.5);
  auto after = nl.loads();
  EXPECT_DOUBLE_EQ(after[x], before[x] + 2.5);
}

TEST(Netlist, GateAccessorsAreConstByDefault) {
  // gate() on a non-const Netlist must bind to the const accessor; only
  // gate_mut() hands out a mutable reference, so every edit is visible at
  // its call site.
  Netlist nl;
  (void)nl.add_input();
  static_assert(std::is_same_v<decltype(nl.gate(GateId{0})), const Gate&>);
  static_assert(std::is_same_v<decltype(nl.gate_mut(GateId{0})), Gate&>);
}

TEST(Words, WidthMismatchThrowsTypedError) {
  Netlist nl;
  Word a = make_input_word(nl, 4, "a");
  Word b = make_input_word(nl, 3, "b");
  try {
    (void)ripple_adder(nl, a, b);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ripple_adder"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("4"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("3"), std::string::npos);
  }
  EXPECT_THROW((void)subtractor(nl, a, b), std::invalid_argument);
  EXPECT_THROW((void)xor_word(nl, a, b), std::invalid_argument);
  EXPECT_THROW((void)mux_word(nl, a[0], a, b), std::invalid_argument);
  EXPECT_THROW((void)equals(nl, a, b), std::invalid_argument);
  EXPECT_THROW((void)parity(nl, Word{}), std::invalid_argument);
  EXPECT_THROW((void)carry_select_adder(nl, a, a, 0), std::invalid_argument);
}

TEST(Netlist, DffBreaksCycles) {
  Netlist nl;
  auto q = nl.add_dff();
  auto nq = nl.add_unary(GateKind::Not, q);
  nl.set_dff_input(q, nq);  // toggle flip-flop
  EXPECT_NO_THROW(nl.topo_order());
  Simulator s(nl);
  s.eval();
  EXPECT_FALSE(s.value(q));
  s.tick();
  s.eval();
  EXPECT_TRUE(s.value(q));
  s.tick();
  s.eval();
  EXPECT_FALSE(s.value(q));
}

TEST(Netlist, LoadsAccountForFanout) {
  Netlist nl;
  auto a = nl.add_input();
  auto b = nl.add_unary(GateKind::Not, a);
  auto c = nl.add_unary(GateKind::Not, a);
  (void)b;
  (void)c;
  CapacitanceModel cap;
  auto loads = nl.loads(cap);
  // a drives two gate pins plus self cap plus wire.
  EXPECT_NEAR(loads[a],
              2 * cap.input_pin_cap + cap.output_self_cap +
                  2 * cap.wire_cap_per_fanout,
              1e-12);
}

TEST(Netlist, DepthOfChain) {
  Netlist nl;
  auto a = nl.add_input();
  GateId g = a;
  for (int i = 0; i < 5; ++i) g = nl.add_unary(GateKind::Not, g);
  EXPECT_EQ(nl.depth(), 5);
}

TEST(Netlist, ConcurrentReadersShareOneNetlist) {
  // A const Netlist has no hidden state: threads that read one fresh
  // netlist at once — building simulators, asking for order, loads and
  // depth — need no lock and all see the same views.
  const Module mod = multiplier_module(8);
  const Netlist& nl = mod.netlist;
  const int n_in = mod.total_input_bits();
  std::vector<std::uint64_t> patterns(64);
  hlp::stats::Rng rng(3);
  for (auto& p : patterns) p = rng.uniform_bits(n_in);

  struct View {
    std::vector<GateId> topo;
    std::vector<double> loads;
    int depth = 0;
    std::vector<std::uint64_t> scalar_out, block_out;
    std::string error;
  };
  constexpr int kThreads = 8;
  std::vector<View> views(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      View& v = views[static_cast<std::size_t>(t)];
      start.arrive_and_wait();
      try {
        Simulator s(nl);
        hlp::sim::BlockSimulator bs(nl, 1);
        v.topo = nl.topo_order();
        v.loads = nl.loads();
        v.depth = nl.depth();
        for (std::uint64_t p : patterns) {
          s.set_all_inputs(p);
          s.eval();
          v.scalar_out.push_back(s.output_bits());
        }
        bs.set_inputs_from_cycles(patterns);
        bs.eval();
        v.block_out.resize(patterns.size());
        bs.outputs_to_cycles(v.block_out);
      } catch (const std::exception& e) {
        v.error = e.what();
      }
    });
  for (auto& th : threads) th.join();

  const std::vector<GateId> topo = nl.topo_order();
  ASSERT_EQ(topo.size(), nl.gate_count());
  for (int t = 0; t < kThreads; ++t) {
    const View& v = views[static_cast<std::size_t>(t)];
    ASSERT_EQ(v.error, "") << "thread " << t;
    EXPECT_EQ(v.topo, topo) << "thread " << t;
    EXPECT_EQ(v.loads, nl.loads()) << "thread " << t;
    EXPECT_EQ(v.depth, nl.depth()) << "thread " << t;
    EXPECT_EQ(v.scalar_out, views[0].scalar_out) << "thread " << t;
    EXPECT_EQ(v.block_out, v.scalar_out) << "thread " << t;
  }
}

class AdderWidth : public ::testing::TestWithParam<int> {};

TEST_P(AdderWidth, RippleAdderIsCorrect) {
  int n = GetParam();
  auto mod = adder_module(n);
  Simulator s(mod.netlist);
  hlp::stats::Rng rng(99 + n);
  std::uint64_t mask = (n >= 64) ? ~0ull : ((1ull << n) - 1);
  for (int rep = 0; rep < 50; ++rep) {
    std::uint64_t a = rng.uniform_bits(n), b = rng.uniform_bits(n);
    s.set_word(mod.input_words[0], a);
    s.set_word(mod.input_words[1], b);
    s.eval();
    EXPECT_EQ(s.word_value(mod.output_words[0]), (a & mask) + (b & mask));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderWidth, ::testing::Values(1, 2, 4, 8, 16));

class MultiplierWidth : public ::testing::TestWithParam<int> {};

TEST_P(MultiplierWidth, ArrayMultiplierIsCorrect) {
  int n = GetParam();
  auto mod = multiplier_module(n);
  Simulator s(mod.netlist);
  hlp::stats::Rng rng(7 + n);
  for (int rep = 0; rep < 50; ++rep) {
    std::uint64_t a = rng.uniform_bits(n), b = rng.uniform_bits(n);
    s.set_word(mod.input_words[0], a);
    s.set_word(mod.input_words[1], b);
    s.eval();
    EXPECT_EQ(s.word_value(mod.output_words[0]), a * b)
        << "a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MultiplierWidth,
                         ::testing::Values(2, 3, 4, 6, 8));

TEST(Words, SubtractorTwosComplement) {
  Netlist nl;
  auto a = make_input_word(nl, 8, "a");
  auto b = make_input_word(nl, 8, "b");
  auto d = subtractor(nl, a, b);
  Simulator s(nl);
  hlp::stats::Rng rng(3);
  for (int rep = 0; rep < 100; ++rep) {
    std::uint64_t x = rng.uniform_bits(8), y = rng.uniform_bits(8);
    s.set_word(a, x);
    s.set_word(b, y);
    s.eval();
    EXPECT_EQ(s.word_value(d), (x - y) & 0xFF);
  }
}

class CarrySelectParam
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CarrySelectParam, MatchesRippleEverywhere) {
  auto [n, block] = GetParam();
  Netlist nl;
  auto a = make_input_word(nl, n, "a");
  auto b = make_input_word(nl, n, "b");
  GateId cout = kNullGate;
  auto s = carry_select_adder(nl, a, b, block, &cout);
  Simulator sim(nl);
  hlp::stats::Rng rng(5);
  std::uint64_t mask = (n >= 64) ? ~0ull : ((1ull << n) - 1);
  for (int rep = 0; rep < 100; ++rep) {
    std::uint64_t x = rng.uniform_bits(n), y = rng.uniform_bits(n);
    sim.set_word(a, x);
    sim.set_word(b, y);
    sim.eval();
    std::uint64_t full = x + y;
    EXPECT_EQ(sim.word_value(s), full & mask);
    EXPECT_EQ(sim.value(cout), ((full >> n) & 1) != 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, CarrySelectParam,
                         ::testing::Values(std::pair{8, 2}, std::pair{8, 4},
                                           std::pair{12, 3},
                                           std::pair{16, 4},
                                           std::pair{7, 3}));

TEST(Words, CarrySelectIsShallowerThanRipple) {
  Netlist r, c;
  auto ra = make_input_word(r, 16, "a"), rb = make_input_word(r, 16, "b");
  ripple_adder(r, ra, rb);
  auto ca = make_input_word(c, 16, "a"), cb = make_input_word(c, 16, "b");
  carry_select_adder(c, ca, cb, 4);
  EXPECT_LT(c.depth(), r.depth());
}

class CsaMultParam : public ::testing::TestWithParam<int> {};

TEST_P(CsaMultParam, MatchesArrayMultiplier) {
  int n = GetParam();
  Netlist nl;
  auto a = make_input_word(nl, n, "a");
  auto b = make_input_word(nl, n, "b");
  auto p = csa_multiplier(nl, a, b);
  Simulator sim(nl);
  hlp::stats::Rng rng(9);
  for (int rep = 0; rep < 100; ++rep) {
    std::uint64_t x = rng.uniform_bits(n), y = rng.uniform_bits(n);
    sim.set_word(a, x);
    sim.set_word(b, y);
    sim.eval();
    EXPECT_EQ(sim.word_value(p), x * y) << x << "*" << y;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CsaMultParam, ::testing::Values(2, 3, 4, 6,
                                                                 8));

TEST(Words, CsaMultiplierIsShallowerThanArray) {
  Netlist arr, csa;
  auto aa = make_input_word(arr, 8, "a"), ab = make_input_word(arr, 8, "b");
  array_multiplier(arr, aa, ab);
  auto ca = make_input_word(csa, 8, "a"), cb = make_input_word(csa, 8, "b");
  csa_multiplier(csa, ca, cb);
  EXPECT_LT(csa.depth(), arr.depth());
}

TEST(Words, ComparatorAndEquality) {
  auto mod = comparator_module(6);
  Simulator s(mod.netlist);
  hlp::stats::Rng rng(21);
  for (int rep = 0; rep < 200; ++rep) {
    std::uint64_t x = rng.uniform_bits(6), y = rng.uniform_bits(6);
    s.set_word(mod.input_words[0], x);
    s.set_word(mod.input_words[1], y);
    s.eval();
    bool lt = s.value(mod.output_words[0][0]);
    bool eq = s.value(mod.output_words[0][1]);
    EXPECT_EQ(lt, x < y);
    EXPECT_EQ(eq, x == y);
  }
}

TEST(Words, ParityTree) {
  auto mod = parity_module(9);
  Simulator s(mod.netlist);
  for (std::uint64_t v : {0ull, 1ull, 0b101ull, 0x1FFull, 0b110110101ull}) {
    s.set_word(mod.input_words[0], v);
    s.eval();
    EXPECT_EQ(s.value(mod.output_words[0][0]),
              (__builtin_popcountll(v) % 2) == 1);
  }
}

TEST(Words, MaxModule) {
  auto mod = hlp::netlist::max_module(5);
  Simulator s(mod.netlist);
  hlp::stats::Rng rng(8);
  for (int rep = 0; rep < 100; ++rep) {
    std::uint64_t x = rng.uniform_bits(5), y = rng.uniform_bits(5);
    s.set_word(mod.input_words[0], x);
    s.set_word(mod.input_words[1], y);
    s.eval();
    EXPECT_EQ(s.word_value(mod.output_words[0]), std::max(x, y));
  }
}

TEST(Generators, C17MatchesTruthTable) {
  auto mod = c17_module();
  Simulator s(mod.netlist);
  for (std::uint64_t in = 0; in < 32; ++in) {
    s.set_all_inputs(in);
    s.eval();
    bool g1 = in & 1, g2 = (in >> 1) & 1, g3 = (in >> 2) & 1,
         g6 = (in >> 3) & 1, g7 = (in >> 4) & 1;
    bool n10 = !(g1 && g3), n11 = !(g3 && g6);
    bool n16 = !(g2 && n11), n19 = !(n11 && g7);
    bool o22 = !(n10 && n16), o23 = !(n16 && n19);
    EXPECT_EQ(s.value(mod.output_words[0][0]), o22);
    EXPECT_EQ(s.value(mod.output_words[0][1]), o23);
  }
}

TEST(Generators, MuxTreeSelects) {
  auto mod = mux_tree_module(3);
  Simulator s(mod.netlist);
  hlp::stats::Rng rng(4);
  for (int rep = 0; rep < 100; ++rep) {
    std::uint64_t sel = rng.uniform_bits(3);
    std::uint64_t data = rng.uniform_bits(8);
    s.set_word(mod.input_words[0], sel);
    s.set_word(mod.input_words[1], data);
    s.eval();
    EXPECT_EQ(s.value(mod.output_words[0][0]),
              static_cast<bool>((data >> sel) & 1));
  }
}

TEST(Generators, RandomLogicDeterministicInSeed) {
  auto m1 = random_logic_module(8, 50, 4, 77);
  auto m2 = random_logic_module(8, 50, 4, 77);
  ASSERT_EQ(m1.netlist.gate_count(), m2.netlist.gate_count());
  Simulator s1(m1.netlist), s2(m2.netlist);
  for (std::uint64_t in = 0; in < 64; ++in) {
    s1.set_all_inputs(in);
    s2.set_all_inputs(in);
    s1.eval();
    s2.eval();
    EXPECT_EQ(s1.output_bits(), s2.output_bits());
  }
}

TEST(Copy, CopyPreservesFunction) {
  auto mod = adder_module(4);
  Netlist dst;
  std::vector<GateId> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(dst.add_input());
  auto xlat = copy_combinational(mod.netlist, dst, ins);
  for (auto o : mod.netlist.outputs()) dst.mark_output(xlat[o]);
  Simulator s_src(mod.netlist), s_dst(dst);
  hlp::stats::Rng rng(12);
  for (int rep = 0; rep < 100; ++rep) {
    std::uint64_t in = rng.uniform_bits(8);
    s_src.set_all_inputs(in);
    s_dst.set_all_inputs(in);
    s_src.eval();
    s_dst.eval();
    EXPECT_EQ(s_src.output_bits(), s_dst.output_bits());
  }
}

TEST(Copy, RejectsSequentialSource) {
  Netlist src;
  src.add_dff();
  Netlist dst;
  EXPECT_THROW(copy_combinational(src, dst, {}), std::invalid_argument);
}

}  // namespace
