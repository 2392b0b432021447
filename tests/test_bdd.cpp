#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/bdd_to_netlist.hpp"
#include "bdd/netlist_bdd.hpp"
#include "exec/exec.hpp"
#include "exec/fi.hpp"
#include "jobs/jobs.hpp"
#include "jobs/kernels.hpp"
#include "jobs/spec.hpp"
#include "netlist/generators.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hlp::bdd;

TEST(Bdd, BasicOperators) {
  Manager m;
  auto a = m.var(0), b = m.var(1);
  EXPECT_EQ(m.bdd_and(a, m.bdd_not(a)), kFalse);
  EXPECT_EQ(m.bdd_or(a, m.bdd_not(a)), kTrue);
  EXPECT_EQ(m.bdd_xor(a, a), kFalse);
  EXPECT_EQ(m.bdd_xnor(a, a), kTrue);
  EXPECT_EQ(m.bdd_and(a, b), m.bdd_and(b, a));  // canonical
  EXPECT_EQ(m.bdd_not(m.bdd_not(a)), a);
}

TEST(Bdd, EvalTruthTable) {
  Manager m;
  auto f = m.bdd_or(m.bdd_and(m.var(0), m.var(1)), m.var(2));
  for (std::uint64_t in = 0; in < 8; ++in) {
    bool expect = ((in & 1) && (in & 2)) || (in & 4);
    EXPECT_EQ(m.eval(f, in), expect);
  }
}

TEST(Bdd, SatFraction) {
  Manager m;
  auto a = m.var(0), b = m.var(1), c = m.var(2);
  EXPECT_DOUBLE_EQ(m.sat_fraction(kTrue), 1.0);
  EXPECT_DOUBLE_EQ(m.sat_fraction(kFalse), 0.0);
  EXPECT_DOUBLE_EQ(m.sat_fraction(a), 0.5);
  EXPECT_DOUBLE_EQ(m.sat_fraction(m.bdd_and(a, b)), 0.25);
  EXPECT_DOUBLE_EQ(m.sat_fraction(m.bdd_and(m.bdd_and(a, b), c)), 0.125);
  EXPECT_DOUBLE_EQ(m.sat_fraction(m.bdd_or(a, b)), 0.75);
}

// The uniform counter as a plain recursive average of the two branches.
double average_fraction(const Manager& m, NodeRef f) {
  if (m.is_terminal(f)) return f == kTrue ? 1.0 : 0.0;
  return 0.5 * (average_fraction(m, m.node_lo(f)) +
                average_fraction(m, m.node_hi(f)));
}

TEST(Bdd, WeightedSatProbabilityMatchesEnumeration) {
  // Weighted counts against brute force over every input vector, with
  // each input 1 at probability p; the p = 0.5 case must be the uniform
  // average bit for bit.
  for (const char* spec : {"adder:4", "mult:3"}) {
    const auto mod = hlp::jobs::make_module(spec);
    const auto& nl = mod.netlist;
    const std::size_t n = nl.inputs().size();
    Manager m;
    const NetlistBdds bdds = build_bdds(m, nl);  // variable i = input i
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      const NodeRef f = bdds.output(nl, o);
      for (double p : {0.3, 0.7}) {
        double expect = 0.0;
        for (std::uint64_t in = 0; in < (std::uint64_t{1} << n); ++in) {
          if (!m.eval(f, in)) continue;
          double w = 1.0;
          for (std::size_t i = 0; i < n; ++i) w *= ((in >> i) & 1u) ? p : 1 - p;
          expect += w;
        }
        EXPECT_NEAR(m.sat_probability(f, p), expect, 1e-12)
            << spec << " output " << o << " p " << p;
      }
      EXPECT_EQ(m.sat_probability(f, 0.5), average_fraction(m, f))
          << spec << " output " << o;
      EXPECT_EQ(m.sat_fraction(f), average_fraction(m, f))
          << spec << " output " << o;
    }
  }
}

TEST(Bdd, Quantification) {
  Manager m;
  auto a = m.var(0), b = m.var(1);
  auto f = m.bdd_and(a, b);
  EXPECT_EQ(m.exists(f, 0), b);
  EXPECT_EQ(m.forall(f, 0), kFalse);
  auto g = m.bdd_or(a, b);
  EXPECT_EQ(m.forall(g, 0), b);
  EXPECT_EQ(m.exists(g, 0), kTrue);
}

TEST(Bdd, ComposeSubstitutes) {
  Manager m;
  auto a = m.var(0), b = m.var(1), c = m.var(2);
  auto f = m.bdd_xor(a, b);
  auto g = m.bdd_and(b, c);
  auto h = m.compose(f, 0, g);  // (b&c) ^ b
  for (std::uint64_t in = 0; in < 8; ++in) {
    bool bb = (in >> 1) & 1, cc = (in >> 2) & 1;
    EXPECT_EQ(m.eval(h, in), static_cast<bool>((bb && cc) ^ bb));
  }
}

TEST(Bdd, ImpliesAndAnySat) {
  Manager m;
  auto a = m.var(0), b = m.var(1);
  auto f = m.bdd_and(a, b);
  EXPECT_TRUE(m.implies(f, a));
  EXPECT_TRUE(m.implies(f, b));
  EXPECT_FALSE(m.implies(a, f));
  auto sat = m.any_sat(f);
  EXPECT_TRUE(m.eval(f, sat));
}

TEST(Bdd, SupportAndNodeCount) {
  Manager m;
  auto f = m.bdd_xor(m.var(0), m.bdd_xor(m.var(2), m.var(5)));
  auto sup = m.support(f);
  EXPECT_EQ(sup, (std::vector<std::uint32_t>{0, 2, 5}));
  // XOR of k variables has k internal nodes... with plain BDDs it is
  // 2k-1? For xor chain: each level has 2 nodes except the last; count > 0.
  EXPECT_GE(m.node_count(f), 3u);
}

TEST(Bdd, SharedNodeCountDedups) {
  Manager m;
  auto f = m.bdd_and(m.var(0), m.var(1));
  NodeRef roots[2] = {f, f};
  EXPECT_EQ(m.node_count(roots), m.node_count(f));
}

TEST(NetlistBdd, MatchesSimulation) {
  auto mod = hlp::netlist::c17_module();
  Manager m;
  auto bdds = build_bdds(m, mod.netlist);
  hlp::sim::Simulator s(mod.netlist);
  for (std::uint64_t in = 0; in < 32; ++in) {
    s.set_all_inputs(in);
    s.eval();
    for (std::size_t o = 0; o < mod.netlist.outputs().size(); ++o) {
      EXPECT_EQ(m.eval(bdds.output(mod.netlist, o), in),
                s.value(mod.netlist.outputs()[o]));
    }
  }
}

class NetlistBddModule : public ::testing::TestWithParam<int> {};

TEST_P(NetlistBddModule, AdderBddMatchesSim) {
  auto mod = hlp::netlist::adder_module(GetParam());
  Manager m;
  auto bdds = build_bdds(m, mod.netlist);
  hlp::sim::Simulator s(mod.netlist);
  hlp::stats::Rng rng(31);
  int n_in = mod.total_input_bits();
  for (int rep = 0; rep < 100; ++rep) {
    std::uint64_t in = rng.uniform_bits(n_in);
    s.set_all_inputs(in);
    s.eval();
    for (std::size_t o = 0; o < mod.netlist.outputs().size(); ++o)
      EXPECT_EQ(m.eval(bdds.output(mod.netlist, o), in),
                s.value(mod.netlist.outputs()[o]));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, NetlistBddModule,
                         ::testing::Values(2, 4, 6, 8));

TEST(BddOrdering, InterleavingCollapsesAdderBdd) {
  // The classic ordering lesson: with operands concatenated (a-bits then
  // b-bits) the adder BDD is exponential; interleaved (a0,b0,a1,b1,...) it
  // is linear.
  auto mod = hlp::netlist::adder_module(8);
  Manager m1, m2;
  auto bad = build_bdds(m1, mod.netlist);
  auto order = interleaved_word_order(mod.input_words);
  auto good = build_bdds_ordered(m2, mod.netlist, order);
  std::vector<NodeRef> roots_bad, roots_good;
  for (auto g : mod.netlist.outputs()) {
    roots_bad.push_back(bad.fn[g]);
    roots_good.push_back(good.fn[g]);
  }
  std::size_t n_bad = m1.node_count(roots_bad);
  std::size_t n_good = m2.node_count(roots_good);
  EXPECT_GT(n_bad, 10 * n_good);
  EXPECT_LT(n_good, 200u);  // linear-size BDD for an 8-bit adder
}

TEST(BddOrdering, OrderedBuildStaysFunctionallyCorrect) {
  auto mod = hlp::netlist::adder_module(5);
  Manager m;
  auto order = interleaved_word_order(mod.input_words);
  auto bdds = build_bdds_ordered(m, mod.netlist, order);
  hlp::sim::Simulator s(mod.netlist);
  hlp::stats::Rng rng(3);
  for (int rep = 0; rep < 200; ++rep) {
    std::uint64_t in = rng.uniform_bits(10);
    // Permute the assignment: variable bdds.input_vars[i] carries input i.
    std::uint64_t assignment = 0;
    for (std::size_t i = 0; i < 10; ++i)
      if ((in >> i) & 1u)
        assignment |= std::uint64_t{1} << bdds.input_vars[i];
    s.set_all_inputs(in);
    s.eval();
    for (std::size_t o = 0; o < mod.netlist.outputs().size(); ++o)
      ASSERT_EQ(m.eval(bdds.output(mod.netlist, o), assignment),
                s.value(mod.netlist.outputs()[o]));
  }
}

TEST(BddOrdering, NodeCapTripsAdversarialOrderAndManagerSurvives) {
  // Worst-case variable order (operands concatenated) on a wide adder: the
  // build must trip the node cap instead of exhausting memory, and the
  // manager must stay fully usable afterwards.
  auto mod = hlp::netlist::adder_module(14);
  Manager m;
  hlp::exec::Meter meter(hlp::exec::Budget::with_node_cap(10000));
  m.set_meter(&meter);
  bool tripped = false;
  try {
    (void)build_bdds(m, mod.netlist);
  } catch (const hlp::exec::BudgetExceeded& e) {
    tripped = true;
    EXPECT_EQ(e.reason(), hlp::exec::StopReason::NodeCap);
  }
  ASSERT_TRUE(tripped);
  EXPECT_LE(m.total_nodes(), 10000u);  // the cap really bounded growth
  m.set_meter(nullptr);

  // Same manager, good (interleaved) order: the build succeeds and is
  // functionally correct, proving the tables survived the mid-ITE unwind.
  auto order = interleaved_word_order(mod.input_words);
  auto bdds = build_bdds_ordered(m, mod.netlist, order);
  hlp::sim::Simulator s(mod.netlist);
  hlp::stats::Rng rng(17);
  const int n_in = mod.total_input_bits();
  for (int rep = 0; rep < 50; ++rep) {
    std::uint64_t in = rng.uniform_bits(n_in);
    std::uint64_t assignment = 0;
    for (int i = 0; i < n_in; ++i)
      if ((in >> i) & 1u)
        assignment |= std::uint64_t{1}
                      << bdds.input_vars[static_cast<std::size_t>(i)];
    s.set_all_inputs(in);
    s.eval();
    for (std::size_t o = 0; o < mod.netlist.outputs().size(); ++o)
      ASSERT_EQ(m.eval(bdds.output(mod.netlist, o), assignment),
                s.value(mod.netlist.outputs()[o]));
  }
}

// --- Fanin-DFS order: the symbolic kernel's variable order ----------------

// Combinational generator designs the ordering tests sweep.
const char* const kOrderSpecs[] = {
    "adder:8",    "adder:10",    "mult:4",        "mult:6",
    "parity:8",   "comparator:6", "comparator:12", "max:6",
    "max:8",      "mux:3",       "mux:4",         "alu:4",
    "alu:8",      "mulred:4:2",  "random:12:80:6:3", "random:16:200:8:9",
    "c17",
};

// The symbolic kernel's energy for one variable order: sum over gates, in
// gate order, of load * 2p(1-p) with p the BDD sat fraction.
double energy_in_order(const hlp::netlist::Module& mod,
                       std::span<const std::size_t> order) {
  Manager m;
  auto bdds = build_bdds_ordered(m, mod.netlist, order);
  const std::vector<double> loads = mod.netlist.loads({});
  double energy = 0.0;
  for (hlp::netlist::GateId g = 0; g < mod.netlist.gate_count(); ++g) {
    const double p = m.sat_fraction(bdds.fn[g]);
    energy += loads[g] * 2.0 * p * (1.0 - p);
  }
  return energy;
}

std::size_t nodes_in_order(const hlp::netlist::Module& mod,
                           std::span<const std::size_t> order) {
  Manager m;
  (void)build_bdds_ordered(m, mod.netlist, order);
  return m.total_nodes();
}

std::vector<std::size_t> declaration_order(const hlp::netlist::Module& mod) {
  std::vector<std::size_t> order(mod.netlist.inputs().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  return order;
}

TEST(BddOrdering, FaninDfsOrderIsAPermutationOfTheInputs) {
  for (const char* spec : kOrderSpecs) {
    auto mod = hlp::jobs::make_module(spec);
    std::vector<std::size_t> order = fanin_dfs_order(mod.netlist);
    std::sort(order.begin(), order.end());
    EXPECT_EQ(order, declaration_order(mod)) << spec;
  }
  // An input no output depends on keeps its declaration position at the end.
  hlp::netlist::Netlist nl;
  const auto a = nl.add_input();
  nl.add_input();  // input 1: no output depends on it
  const auto b = nl.add_input();
  nl.mark_output(nl.add_binary(hlp::netlist::GateKind::And, a, b));
  EXPECT_EQ(fanin_dfs_order(nl), (std::vector<std::size_t>{2, 0, 1}));
}

TEST(BddOrdering, FaninDfsMatchesExhaustiveEnumeration) {
  // The kernel's value must be the exact expectation: enumerate every input
  // vector, count each gate's ones, and apply the kernel's own formula to
  // p = ones / 2^n. Both sides are exact dyadic rationals, so == holds.
  int checked = 0;
  for (const char* spec : kOrderSpecs) {
    auto mod = hlp::jobs::make_module(spec);
    const int n = mod.total_input_bits();
    if (n > 16) continue;
    const auto& nl = mod.netlist;
    hlp::sim::Simulator s(nl);
    std::vector<std::uint64_t> ones(nl.gate_count(), 0);
    for (std::uint64_t in = 0; in < (std::uint64_t{1} << n); ++in) {
      s.set_all_inputs(in);
      s.eval();
      for (hlp::netlist::GateId g = 0; g < nl.gate_count(); ++g)
        ones[g] += s.value(g);
    }
    const std::vector<double> loads = nl.loads({});
    const double total = static_cast<double>(std::uint64_t{1} << n);
    double expect = 0.0;
    for (hlp::netlist::GateId g = 0; g < nl.gate_count(); ++g) {
      const double p = static_cast<double>(ones[g]) / total;
      expect += loads[g] * 2.0 * p * (1.0 - p);
    }
    hlp::jobs::KernelRequest krq;
    krq.kind = hlp::jobs::JobKind::Symbolic;
    krq.design = spec;
    const hlp::jobs::AttemptOutcome sym = hlp::jobs::run_kernel(krq, {});
    ASSERT_TRUE(sym.ok) << spec;
    EXPECT_EQ(sym.out.value, expect) << spec;
    EXPECT_EQ(sym.out.detail.rfind("bdd exact (fanin-dfs order), ", 0), 0u)
        << sym.out.detail;
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

TEST(BddOrdering, KernelValueIdenticalAcrossOrders) {
  for (const char* spec : kOrderSpecs) {
    auto mod = hlp::jobs::make_module(spec);
    const double decl = energy_in_order(mod, declaration_order(mod));
    EXPECT_EQ(energy_in_order(mod, interleaved_word_order(mod.input_words)),
              decl)
        << spec;
    EXPECT_EQ(energy_in_order(mod, fanin_dfs_order(mod.netlist)), decl)
        << spec;
  }
}

TEST(BddOrdering, FaninDfsNodeCountsPinned) {
  auto dfs_nodes = [](const char* spec) {
    auto mod = hlp::jobs::make_module(spec);
    return nodes_in_order(mod, fanin_dfs_order(mod.netlist));
  };
  EXPECT_EQ(dfs_nodes("adder:10"), 448u);
  EXPECT_EQ(dfs_nodes("mult:6"), 4406u);
  EXPECT_EQ(dfs_nodes("comparator:12"), 189u);
  for (const char* spec : {"adder:8", "adder:10", "mult:5", "mult:6", "alu:8",
                           "comparator:12", "max:8"}) {
    auto mod = hlp::jobs::make_module(spec);
    EXPECT_LE(nodes_in_order(mod, fanin_dfs_order(mod.netlist)),
              nodes_in_order(mod, declaration_order(mod)))
        << spec;
  }
}

TEST(BddOrdering, NodeCapStillDegradesMult8) {
  // The README campaign's mult8-exact job: mult:8 needs 41,198 nodes in
  // fanin-DFS order, so a 3000-node cap still trips and the retry
  // downgrades to sampling.
  hlp::jobs::KernelRequest krq;
  krq.kind = hlp::jobs::JobKind::Symbolic;
  krq.design = "mult:8";
  try {
    (void)hlp::jobs::run_kernel(krq, hlp::exec::Budget::with_node_cap(3000));
    FAIL() << "mult:8 fit under a 3000-node cap";
  } catch (const hlp::exec::BudgetExceeded& e) {
    EXPECT_EQ(e.reason(), hlp::exec::StopReason::NodeCap);
  }
  hlp::jobs::CampaignSpec spec = hlp::jobs::parse_campaign_spec(
      "base-delay 0\n"
      "job mult8-exact  symbolic  mult:8  node-cap=3000\n");
  hlp::jobs::RunnerOptions opts;
  opts.retry = spec.retry;
  const hlp::jobs::CampaignResult cr = hlp::jobs::Runner(opts).run(spec.jobs);
  ASSERT_EQ(cr.results.size(), 1u);
  EXPECT_EQ(cr.results[0].status, hlp::jobs::JobStatus::Completed);
  EXPECT_TRUE(cr.results[0].degraded);
  EXPECT_EQ(cr.results[0].attempts, 2);
}

// --- Table growth is charged to the memory cap ------------------------------

TEST(Bdd, TableGrowthChargesMemoryCapAndManagerSurvives) {
  auto mod = hlp::netlist::multiplier_module(5);
  const auto order = fanin_dfs_order(mod.netlist);
  Manager plain;
  const auto ref = build_bdds_ordered(plain, mod.netlist, order);

  // Unlimited budget: the tables are charged, nothing trips, and the build
  // is node-for-node the unmetered one.
  Manager metered;
  hlp::exec::Meter unlimited;
  metered.set_meter(&unlimited);
  (void)build_bdds_ordered(metered, mod.netlist, order);
  EXPECT_EQ(metered.total_nodes(), plain.total_nodes());
  EXPECT_GE(unlimited.bytes_charged(), plain.total_nodes() * 12);

  // A cap well below the footprint trips memory-cap; the same manager then
  // finishes the build unmetered, node-for-node and value-for-value.
  Manager capped;
  hlp::exec::Budget b;
  b.memory_cap_bytes = 16 * 1024;
  hlp::exec::Meter meter(b);
  capped.set_meter(&meter);
  try {
    (void)build_bdds_ordered(capped, mod.netlist, order);
    FAIL() << "a 16 KiB memory cap did not trip";
  } catch (const hlp::exec::BudgetExceeded& e) {
    EXPECT_EQ(e.reason(), hlp::exec::StopReason::MemoryCap);
  }
  capped.set_meter(nullptr);
  auto bdds = build_bdds_ordered(capped, mod.netlist, order);
  EXPECT_EQ(capped.total_nodes(), plain.total_nodes());
  for (std::size_t o = 0; o < mod.netlist.outputs().size(); ++o)
    EXPECT_EQ(capped.sat_fraction(bdds.output(mod.netlist, o)),
              plain.sat_fraction(ref.output(mod.netlist, o)));
}

TEST(BddToNetlist, MaterializedMuxNetworkMatches) {
  Manager m;
  auto f = m.bdd_or(m.bdd_and(m.var(0), m.var(1)),
                    m.bdd_and(m.bdd_not(m.var(0)), m.var(2)));
  hlp::netlist::Netlist nl;
  std::unordered_map<std::uint32_t, hlp::netlist::GateId> vars;
  for (std::uint32_t v = 0; v < 3; ++v) vars[v] = nl.add_input();
  auto g = materialize(m, f, nl, vars);
  nl.mark_output(g);
  hlp::sim::Simulator s(nl);
  for (std::uint64_t in = 0; in < 8; ++in) {
    s.set_all_inputs(in);
    s.eval();
    EXPECT_EQ(s.value(g), m.eval(f, in));
  }
}

TEST(Bdd, RestrictMatchesCofactor) {
  Manager m;
  hlp::stats::Rng rng(13);
  // Random 4-var function via its minterms.
  std::uint64_t tt = rng.uniform_bits(16);
  NodeRef f = kFalse;
  for (std::uint32_t mt = 0; mt < 16; ++mt) {
    if (!((tt >> mt) & 1)) continue;
    NodeRef cube = kTrue;
    for (std::uint32_t v = 0; v < 4; ++v)
      cube = m.bdd_and(cube, ((mt >> v) & 1) ? m.var(v) : m.nvar(v));
    f = m.bdd_or(f, cube);
  }
  for (std::uint32_t v = 0; v < 4; ++v) {
    auto f0 = m.restrict_var(f, v, false);
    auto f1 = m.restrict_var(f, v, true);
    for (std::uint64_t in = 0; in < 16; ++in) {
      EXPECT_EQ(m.eval(f0, in & ~(1ull << v)),
                m.eval(f, in & ~(1ull << v)));
      EXPECT_EQ(m.eval(f1, in | (1ull << v)),
                m.eval(f, in | (1ull << v)));
    }
  }
}

// --- Direct XOR apply ------------------------------------------------------

// A function over `vars` variables from the bits of a truth table.
NodeRef from_truth_table(Manager& m, std::uint64_t tt, std::uint32_t vars) {
  NodeRef f = kFalse;
  for (std::uint32_t mt = 0; mt < (1u << vars); ++mt) {
    if (!((tt >> mt) & 1)) continue;
    NodeRef cube = kTrue;
    for (std::uint32_t v = 0; v < vars; ++v)
      cube = m.bdd_and(cube, ((mt >> v) & 1) ? m.var(v) : m.nvar(v));
    f = m.bdd_or(f, cube);
  }
  return f;
}

TEST(BddXor, TerminalCases) {
  Manager m;
  const NodeRef x = m.var(0);
  const NodeRef y = m.bdd_and(m.var(1), m.nvar(2));
  EXPECT_EQ(m.bdd_xor(kFalse, kFalse), kFalse);
  EXPECT_EQ(m.bdd_xor(kTrue, kTrue), kFalse);
  EXPECT_EQ(m.bdd_xor(kFalse, kTrue), kTrue);
  EXPECT_EQ(m.bdd_xor(kTrue, kFalse), kTrue);
  for (NodeRef f : {x, y}) {
    EXPECT_EQ(m.bdd_xor(f, f), kFalse);
    EXPECT_EQ(m.bdd_xor(f, kFalse), f);
    EXPECT_EQ(m.bdd_xor(kFalse, f), f);
    EXPECT_EQ(m.bdd_xor(f, kTrue), m.bdd_not(f));
    EXPECT_EQ(m.bdd_xor(kTrue, f), m.bdd_not(f));
    EXPECT_EQ(m.bdd_xor(f, m.bdd_not(f)), kTrue);
  }
}

TEST(BddXor, SameNodeAsIteOnRandomFunctions) {
  Manager m;
  hlp::stats::Rng rng(29);
  std::vector<std::uint64_t> tts;
  std::vector<NodeRef> fs;
  for (int i = 0; i < 24; ++i) {
    tts.push_back(rng.uniform_bits(32));
    fs.push_back(from_truth_table(m, tts.back(), 5));
  }
  for (std::size_t i = 0; i < fs.size(); ++i) {
    for (std::size_t j = 0; j < fs.size(); ++j) {
      const NodeRef direct = m.bdd_xor(fs[i], fs[j]);
      ASSERT_EQ(direct, m.ite(fs[i], m.bdd_not(fs[j]), fs[j])) << i << "," << j;
      ASSERT_EQ(direct, m.bdd_xor(fs[j], fs[i]));
      for (std::uint64_t in = 0; in < 32; ++in)
        ASSERT_EQ(m.eval(direct, in),
                  (((tts[i] ^ tts[j]) >> in) & 1) != 0);
    }
  }
}

// --- sat_probability's id-order memo ----------------------------------------

double sat_reference(const Manager& m, NodeRef f, double p) {
  if (m.is_terminal(f)) return f == kTrue ? 1.0 : 0.0;
  return (1.0 - p) * sat_reference(m, m.node_lo(f), p) +
         p * sat_reference(m, m.node_hi(f), p);
}

TEST(BddSat, IdOrderMemoMatchesRecursiveReference) {
  Manager m;
  hlp::stats::Rng rng(41);
  std::vector<NodeRef> fs;
  // Each round builds more functions between queries, as the static
  // refinement does, and returns to an earlier p after a change.
  for (double p : {0.5, 0.3, 0.5, 0.9, 0.3, 0.125}) {
    for (int i = 0; i < 6; ++i) {
      fs.push_back(from_truth_table(m, rng.uniform_bits(64), 6));
      const NodeRef g = fs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(fs.size()) - 1))];
      fs.push_back(i % 2 ? m.bdd_xor(fs.back(), g) : m.bdd_and(fs.back(), g));
      for (NodeRef f : fs)
        ASSERT_EQ(m.sat_probability(f, p), sat_reference(m, f, p))
            << "p=" << p << " f=" << f;
    }
  }
  EXPECT_EQ(m.sat_probability(kTrue, 0.7), 1.0);
  EXPECT_EQ(m.sat_probability(kFalse, 0.7), 0.0);
  EXPECT_EQ(m.sat_fraction(m.var(3)), 0.5);
}

// --- Per-thread table recycling --------------------------------------------

// Everything a metered build reports that must not depend on the thread's
// earlier builds.
struct BuildPrint {
  std::vector<NodeRef> fn;
  std::size_t total_nodes = 0;
  std::size_t steps = 0;
  std::size_t bytes = 0;
  hlp::exec::StopReason stop = hlp::exec::StopReason::None;
  bool bad_alloc = false;
  bool operator==(const BuildPrint&) const = default;
};

void PrintTo(const BuildPrint& p, std::ostream* os) {
  *os << "{nodes " << p.total_nodes << ", steps " << p.steps << ", bytes "
      << p.bytes << ", stop " << hlp::exec::to_string(p.stop)
      << (p.bad_alloc ? ", bad_alloc" : "") << "}";
}

BuildPrint metered_build(const char* spec, const hlp::exec::Budget& b = {}) {
  const auto mod = hlp::jobs::make_module(spec);
  Manager m;
  hlp::exec::Meter meter(b);
  m.set_meter(&meter);
  BuildPrint p;
  try {
    p.fn = build_bdds_ordered(m, mod.netlist, fanin_dfs_order(mod.netlist)).fn;
  } catch (const hlp::exec::BudgetExceeded& e) {
    p.stop = e.reason();
  } catch (const std::bad_alloc&) {
    p.bad_alloc = true;
  }
  p.total_nodes = m.total_nodes();
  p.steps = meter.steps();
  p.bytes = meter.bytes_charged();
  return p;
}

hlp::exec::Budget memory_cap(std::size_t bytes) {
  hlp::exec::Budget b;
  b.memory_cap_bytes = bytes;
  return b;
}

// Runs `body` on a new thread, whose table stash starts empty.
template <class F>
void on_fresh_thread(F&& body) {
  std::thread t(std::forward<F>(body));
  t.join();
}

// The builds the recycling tests replay, with their cold-thread prints.
struct Reference {
  const char* spec;
  hlp::exec::Budget budget;
  BuildPrint print;
};

std::vector<Reference> cold_references() {
  std::vector<Reference> refs = {
      {"mult:5", {}, {}},
      {"mult:6", {}, {}},
      {"adder:8", {}, {}},
      {"mult:6", hlp::exec::Budget::with_node_cap(2000), {}},
      {"mult:6", memory_cap(64 * 1024), {}},
  };
  for (Reference& r : refs)
    on_fresh_thread([&r] { r.print = metered_build(r.spec, r.budget); });
  return refs;
}

TEST(BddTables, BuildIsIndependentOfTheThreadsEarlierBuilds) {
  const std::vector<Reference> refs = cold_references();
  EXPECT_EQ(refs[0].print.stop, hlp::exec::StopReason::None);
  EXPECT_EQ(refs[3].print.stop, hlp::exec::StopReason::NodeCap);
  EXPECT_EQ(refs[4].print.stop, hlp::exec::StopReason::MemoryCap);
  const BuildPrint& mult5 = refs[0].print;
  on_fresh_thread([&] {
    EXPECT_EQ(metered_build("mult:5"), mult5) << "fresh thread";
    (void)metered_build("mult:7");
    EXPECT_EQ(metered_build("mult:5"), mult5) << "after a larger build";
    (void)metered_build("adder:4");
    EXPECT_EQ(metered_build("mult:5"), mult5) << "after a smaller build";
    (void)metered_build("mult:6", hlp::exec::Budget::with_node_cap(2000));
    EXPECT_EQ(metered_build("mult:5"), mult5) << "after a node-cap trip";
    // Every build, tripped or not, matches its cold-thread print.
    for (int round = 0; round < 2; ++round)
      for (const Reference& r : refs)
        EXPECT_EQ(metered_build(r.spec, r.budget), r.print) << r.spec;
  });
}

TEST(BddTables, AllocationFailureSweepLeavesTheNextBuildUnchanged) {
  const BuildPrint ref = cold_references()[0].print;
  on_fresh_thread([&] {
    hlp::fi::disarm();
    (void)metered_build("mult:5");
    const std::uint64_t points = hlp::fi::alloc_checkpoints();
    ASSERT_GT(points, 100u);
    for (std::uint64_t at = 0; at < points; at += points / 40) {
      hlp::fi::arm_alloc_failure(at);
      const BuildPrint failed = metered_build("mult:5");
      hlp::fi::disarm();
      EXPECT_TRUE(failed.bad_alloc) << at;
      EXPECT_EQ(failed.total_nodes, 2 + at) << at;
      EXPECT_EQ(metered_build("mult:5"), ref) << "after a failure at " << at;
    }
  });
}

TEST(BddTables, MemoryCapTripsAtTheSameCharge) {
  const BuildPrint ref = cold_references()[4].print;
  ASSERT_EQ(ref.stop, hlp::exec::StopReason::MemoryCap);
  EXPECT_GT(ref.bytes, 64u * 1024);
  on_fresh_thread([&] {
    for (const char* before : {"mult:7", "adder:4", "mult:6"}) {
      (void)metered_build(before);
      EXPECT_EQ(metered_build("mult:6", memory_cap(64 * 1024)), ref)
          << "after " << before;
    }
  });
}

TEST(BddTables, ConcurrentBuildsMatchColdThreadPrints) {
  const std::vector<Reference> refs = cold_references();
  std::vector<std::thread> threads;
  std::vector<int> mismatches(8, 0);
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&refs, &mismatches, t] {
      // Each thread walks the references from its own starting point, so
      // every thread's tables carry a different history.
      for (std::size_t k = 0; k < 3 * refs.size(); ++k) {
        const Reference& r = refs[(t + k) % refs.size()];
        if (!(metered_build(r.spec, r.budget) == r.print)) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < mismatches.size(); ++t)
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(BddTables, RetainedStorageIsCappedAndReleasedAboveTheCap) {
  // The unique table and the ITE cache, at most kMaxRetainedBytes each.
  constexpr std::size_t kBound = 2 * Manager::kMaxRetainedBytes;
  on_fresh_thread([&] {
    EXPECT_EQ(Manager::retained_bytes(), 0u);
    (void)metered_build("mult:5");
    const std::size_t after_mult5 = Manager::retained_bytes();
    EXPECT_GT(after_mult5, 0u);
    EXPECT_LE(after_mult5, kBound);
    {
      // A 70,000-deep conjunction: 140,000 nodes and 70,000 cache entries,
      // so both tables outgrow the cap (2 MiB and 4 MiB of storage).
      Manager big;
      NodeRef r = big.var(70000);
      for (std::uint32_t v = 70000; v-- > 0;) r = big.bdd_and(big.var(v), r);
      EXPECT_EQ(big.total_nodes(), 2u + 70001u + 70000u);
      EXPECT_EQ(Manager::retained_bytes(), 0u);  // the tables are in use
    }
    EXPECT_EQ(Manager::retained_bytes(), 0u);  // released, not kept
    (void)metered_build("mult:5");
    EXPECT_EQ(Manager::retained_bytes(), after_mult5);
  });
}

}  // namespace
