#include <gtest/gtest.h>

#include <string>

#include "cdfg/generators.hpp"
#include "core/scheduling_power.hpp"
#include "fsm/benchmarks.hpp"
#include "jobs/kernels.hpp"
#include "lint/lint.hpp"
#include "netlist/generators.hpp"

namespace {

using namespace hlp;
using netlist::GateId;
using netlist::GateKind;
using netlist::Netlist;

// ---- Property: every generator in the library lints clean ----------------

TEST(LintClean, NetlistGenerators) {
  netlist::Module mods[] = {
      netlist::adder_module(4),
      netlist::multiplier_module(3),
      netlist::alu_module(3),
      netlist::parity_module(6),
      netlist::comparator_module(4),
      netlist::max_module(3),
      netlist::random_logic_module(6, 40, 4, 99),
      netlist::c17_module(),
      netlist::mux_tree_module(3),
      netlist::multiply_reduce_module(3),
  };
  for (const auto& m : mods) {
    SCOPED_TRACE(m.name);
    lint::Report r = lint::run_module(m);
    EXPECT_FALSE(r.has_errors()) << r.to_string();
  }
}

TEST(LintClean, FsmGenerators) {
  fsm::Stg stgs[] = {fsm::counter_fsm(3), fsm::sequence_detector_fsm(0b1011, 4),
                     fsm::protocol_fsm(4), fsm::random_fsm(12, 2, 3, 5)};
  for (const auto& stg : stgs) {
    lint::Report r = lint::run_fsm(stg);
    EXPECT_TRUE(r.clean()) << r.to_string();
  }
  for (const auto& [name, stg] : fsm::controller_benchmarks()) {
    SCOPED_TRACE(name);
    lint::Report r = lint::run_fsm(stg);
    EXPECT_FALSE(r.has_errors()) << r.to_string();
  }
}

TEST(LintClean, CdfgGenerators) {
  cdfg::Cdfg graphs[] = {
      cdfg::polynomial_direct(4),  cdfg::polynomial_horner(4),
      cdfg::fir_cdfg(5),           cdfg::random_expr_tree(8, 0.4, 21),
      cdfg::branching_cdfg(3, 4, 7), cdfg::operand_sharing_cdfg(4, 4),
  };
  for (const auto& g : graphs) {
    lint::Report r = lint::run_cdfg(g);
    EXPECT_FALSE(r.has_errors()) << r.to_string();
  }
}

TEST(LintClean, ScheduledCdfgPassesScheduleRules) {
  cdfg::Cdfg g = cdfg::fir_cdfg(5);
  std::map<cdfg::OpKind, int> limits{{cdfg::OpKind::Mul, 1},
                                     {cdfg::OpKind::Add, 1}};
  cdfg::Schedule s = cdfg::list_schedule(g, limits);
  lint::Report r = lint::run_cdfg(g, s, limits);
  EXPECT_FALSE(r.has_errors()) << r.to_string();
}

// The power-aware schedulers must hand back schedules the schedule rules
// accept: every op placed after its operands, and no step over `limits`.
TEST(LintClean, PowerAwareSchedulesPassScheduleRules) {
  const std::map<cdfg::OpKind, int> limits{{cdfg::OpKind::Add, 1},
                                           {cdfg::OpKind::Mul, 1}};
  for (const char* spec : {"fir:8", "fir:32", "poly:6", "horner:6",
                           "expr:20:3", "branching:4:4:5", "opshare:4:4"}) {
    SCOPED_TRACE(spec);
    const cdfg::Cdfg g = jobs::make_cdfg(spec);
    lint::Report ad =
        lint::run_cdfg(g, core::activity_driven_schedule(g, limits), limits);
    EXPECT_FALSE(ad.has("CD-UNSCHED")) << ad.to_string();
    EXPECT_FALSE(ad.has("CD-RESOURCE")) << ad.to_string();
    lint::Report pm = lint::run_cdfg(g, core::monteiro_schedule(g, 2).schedule);
    EXPECT_FALSE(pm.has("CD-UNSCHED")) << pm.to_string();
  }
}

// ---- One deliberately broken fixture per rule ----------------------------

TEST(LintNetlist, CombinationalCycleNamesThePath) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId x = nl.add_binary(GateKind::And, a, a, "x");
  GateId y = nl.add_unary(GateKind::Not, x, "y");
  nl.mark_output(y);
  nl.set_fanin(x, 1, y);  // x -> y -> x
  lint::Report r = lint::run_netlist(nl);
  ASSERT_TRUE(r.has("NL-CYCLE")) << r.to_string();
  const lint::Diagnostic* d = r.find("NL-CYCLE");
  // The diagnostic must name the gates on the cycle, not just say "cycle".
  EXPECT_NE(d->message.find("x"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("y"), std::string::npos) << d->message;
}

TEST(LintNetlist, BadReferenceAndArity) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId bogus[] = {a, GateId{999}};
  nl.add_gate(GateKind::And, bogus, "bad");
  EXPECT_TRUE(lint::run_netlist(nl).has("NL-REF"));

  Netlist nl2;
  GateId b = nl2.add_input("b");
  GateId one[] = {b};
  GateId g = nl2.add_gate(GateKind::And, one, "unary_and");
  nl2.mark_output(g);
  EXPECT_TRUE(lint::run_netlist(nl2).has("NL-ARITY"));
}

TEST(LintNetlist, UnwiredDffD) {
  Netlist nl;
  GateId q = nl.add_dff();
  nl.mark_output(q);
  EXPECT_TRUE(lint::run_netlist(nl).has("NL-DFF-D"));
}

TEST(LintNetlist, FloatingAndDeadGates) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId live = nl.add_unary(GateKind::Buf, a, "live");
  nl.mark_output(live);
  GateId dead = nl.add_unary(GateKind::Not, a, "dead");
  GateId floating = nl.add_unary(GateKind::Buf, dead, "floating");
  (void)floating;
  lint::Report r = lint::run_netlist(nl);
  EXPECT_TRUE(r.has("NL-FLOAT")) << r.to_string();
  EXPECT_TRUE(r.has("NL-DEAD")) << r.to_string();
}

TEST(LintNetlist, MultiplyMarkedOutputAndFanoutCap) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId x = nl.add_unary(GateKind::Not, a, "x");
  nl.mark_output(x, "o1");
  nl.mark_output(x, "o2");
  lint::LintOptions o;
  o.fanout_cap = 2;
  GateId f1 = nl.add_unary(GateKind::Buf, a, "f1");
  GateId f2 = nl.add_unary(GateKind::Buf, a, "f2");
  GateId f3 = nl.add_binary(GateKind::And, a, f1, "f3");
  nl.mark_output(nl.add_binary(GateKind::Or, f2, f3, "o3"));
  lint::Report r = lint::run_netlist(nl, o);
  EXPECT_TRUE(r.has("NL-MULTIOUT")) << r.to_string();
  EXPECT_TRUE(r.has("NL-FANOUT")) << r.to_string();
}

TEST(LintNetlist, ModulePortRules) {
  netlist::Module m;
  GateId a = m.netlist.add_input("a");
  GateId g = m.netlist.add_unary(GateKind::Not, a, "g");
  m.netlist.mark_output(g);
  // Port word claims a non-input gate as an input bit.
  m.input_words.push_back({a, g});
  m.output_words.push_back({g});
  lint::Report r = lint::run_module(m);
  EXPECT_TRUE(r.has("NL-PORT")) << r.to_string();
}

TEST(LintPower, GlitchProneReconvergence) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId chain = b;
  for (int i = 0; i < 5; ++i) chain = nl.add_unary(GateKind::Not, chain);
  GateId x = nl.add_binary(GateKind::Xor, a, chain, "deep_vs_shallow");
  nl.mark_output(x);
  lint::Report r = lint::run_netlist(nl);
  EXPECT_TRUE(r.has("PW-GLITCH")) << r.to_string();
}

TEST(LintPower, ClockGatingCandidate) {
  Netlist nl;
  GateId en = nl.add_input("en");
  GateId d = nl.add_input("d");
  GateId q = nl.add_dff(netlist::kNullGate, false, "q");
  GateId m = nl.add_mux(en, q, d, "hold_mux");
  nl.set_dff_input(q, m);
  nl.mark_output(q);
  lint::Report r = lint::run_netlist(nl);
  EXPECT_TRUE(r.has("PW-GATE")) << r.to_string();
}

TEST(LintPower, HotCapacitanceNode) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId hub = nl.add_binary(GateKind::And, a, b, "hub");
  GateId acc = hub;
  for (int i = 0; i < 20; ++i)
    acc = nl.add_binary(GateKind::Xor, acc, hub);
  nl.mark_output(acc);
  lint::LintOptions o;
  o.hot_load_fraction = 0.2;
  lint::Report r = lint::run_netlist(nl, o);
  ASSERT_TRUE(r.has("PW-HOTCAP")) << r.to_string();
  EXPECT_EQ(r.find("PW-HOTCAP")->severity, lint::Severity::Power);
}

TEST(LintPower, PowerRulesCanBeDisabled) {
  Netlist nl;
  GateId en = nl.add_input("en");
  GateId d = nl.add_input("d");
  GateId q = nl.add_dff(netlist::kNullGate, false, "q");
  nl.set_dff_input(q, nl.add_mux(en, q, d));
  nl.mark_output(q);
  lint::LintOptions o;
  o.power_rules = false;
  EXPECT_FALSE(lint::run_netlist(nl, o).has("PW-GATE"));
  o.power_rules = true;
  o.disabled = {"PW-GATE"};
  EXPECT_FALSE(lint::run_netlist(nl, o).has("PW-GATE"));
}

TEST(LintConst, ProvablyConstantGateIsReportedWithWaste) {
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId zero = nl.add_const(false);
  GateId g = nl.add_binary(GateKind::And, a, zero, "stuck0");
  GateId out = nl.add_binary(GateKind::Or, g, a, "out");
  nl.mark_output(out);
  lint::Report r = lint::run_netlist(nl);
  ASSERT_TRUE(r.has("NL-CONST")) << r.to_string();
  const lint::Diagnostic* d = r.find("NL-CONST");
  EXPECT_EQ(d->loc.object, g);
  EXPECT_EQ(d->severity, lint::Severity::Warning);
  // The stuck gate's live fanin (a) still delivers switched capacitance
  // into it: that is the reclaimable waste.
  EXPECT_GT(d->waste, 0.0) << r.to_string();
}

TEST(LintConst, ConstantRegisterIsReported) {
  Netlist nl;
  GateId q = nl.add_dff(netlist::kNullGate, false, "q");
  GateId zero = nl.add_const(false);
  GateId d = nl.add_binary(GateKind::And, q, zero, "feedback_and");
  nl.set_dff_input(q, d);
  nl.mark_output(q);
  lint::Report r = lint::run_netlist(nl);
  // Both the AND (always 0) and the register (init 0, D provably 0) fold.
  EXPECT_GE(r.count("NL-CONST"), 2u) << r.to_string();
}

TEST(LintPower, TransitionBoundViolation) {
  // An unbalanced XOR chain reusing one early input: gate i merges a
  // depth-i path with a depth-0 path, so its arrival window widens with i
  // and the provable per-cycle transition bound grows past any fixed
  // budget.
  Netlist nl;
  GateId a = nl.add_input("a");
  GateId b = nl.add_input("b");
  GateId chain = b;
  for (int i = 0; i < 14; ++i) chain = nl.add_binary(GateKind::Xor, chain, a);
  nl.mark_output(chain);
  lint::LintOptions o;
  o.transition_bound = 8;
  lint::Report r = lint::run_netlist(nl, o);
  ASSERT_TRUE(r.has("PW-BOUND")) << r.to_string();
  EXPECT_EQ(r.find("PW-BOUND")->severity, lint::Severity::Power);
  EXPECT_GT(r.find("PW-BOUND")->waste, 0.0);
  o.transition_bound = 0;
  EXPECT_FALSE(lint::run_netlist(nl, o).has("PW-BOUND"));
}

TEST(LintPower, PowerTierIsRankedByEstimatedWaste) {
  const netlist::Module m = netlist::multiplier_module(8);
  lint::Report r = lint::run_module(m);
  double prev = -1.0;
  std::size_t power_seen = 0;
  bool in_power_tail = false;
  for (const lint::Diagnostic& d : r.diags) {
    if (d.severity == lint::Severity::Power) {
      if (in_power_tail && prev >= 0.0) {
        EXPECT_LE(d.waste, prev) << "power diagnostics must be ranked "
                                    "largest estimated waste first";
      }
      in_power_tail = true;
      prev = d.waste;
      ++power_seen;
    } else {
      EXPECT_FALSE(in_power_tail)
          << "power diagnostics must come after the functional tiers";
    }
  }
  ASSERT_GT(power_seen, 0u);
}

TEST(LintFsm, RangeTrapUnreachableErgodic) {
  // Transition out of range.
  fsm::Stg bad(1, 1);
  bad.add_state("s0");
  bad.set_transition(0, 0, 7);
  bad.set_transition(0, 1, 0);
  EXPECT_TRUE(lint::run_fsm(bad).has("FS-RANGE"));

  // Never-wired state: default self-loops make it a trap.
  fsm::Stg trap(1, 1);
  trap.add_state("s0");
  trap.add_state("dead_end");
  trap.set_all_transitions(0, 0);
  EXPECT_TRUE(lint::run_fsm(trap).has("FS-TRAP"));

  // Reachable but absorbing pair -> non-ergodic; s2 unreachable.
  fsm::Stg erg(1, 1);
  erg.add_state("start");
  erg.add_state("sink");
  erg.add_state("island");
  erg.set_all_transitions(0, 1);
  erg.set_all_transitions(1, 1);
  erg.set_all_transitions(2, 0);
  lint::Report r = lint::run_fsm(erg);
  EXPECT_TRUE(r.has("FS-ERGODIC")) << r.to_string();
  EXPECT_TRUE(r.has("FS-UNREACH")) << r.to_string();
}

TEST(LintFsm, OutputWiderThanDeclared) {
  fsm::Stg stg(1, 2);
  stg.add_state("s0");
  stg.set_transition(0, 0, 0, 0b111);  // 3 bits into a 2-bit output
  stg.set_transition(0, 1, 0, 0b01);
  EXPECT_TRUE(lint::run_fsm(stg).has("FS-OUT-WIDTH"));
}

TEST(LintCdfg, ArityWidthDeadAndScheduleRules) {
  cdfg::Cdfg g;
  cdfg::OpId a = g.add_input("a", 8);
  cdfg::OpId b = g.add_input("b", 16);
  cdfg::OpId one[] = {a};
  cdfg::OpId lonely = g.add_op(cdfg::OpKind::Add, one, "unary_add", 8);
  cdfg::OpId wmix = g.add_binary(cdfg::OpKind::Add, a, b, "w_mix", 16);
  g.add_binary(cdfg::OpKind::Mul, a, a, "dead_mul", 8);
  g.mark_output(wmix);
  g.mark_output(lonely);
  lint::Report r = lint::run_cdfg(g);
  EXPECT_TRUE(r.has("CD-ARITY")) << r.to_string();
  EXPECT_TRUE(r.has("CD-WIDTH")) << r.to_string();
  EXPECT_TRUE(r.has("CD-DEAD")) << r.to_string();

  // Unscheduled / precedence-violating schedule.
  cdfg::Cdfg h;
  cdfg::OpId x = h.add_input("x");
  cdfg::OpId y = h.add_input("y");
  cdfg::OpId s1 = h.add_binary(cdfg::OpKind::Add, x, y);
  cdfg::OpId s2 = h.add_binary(cdfg::OpKind::Add, s1, y);
  h.mark_output(s2);
  cdfg::Schedule s;
  s.start = {0, 0, 0, 0, 0};  // s2 starts before s1 finishes
  s.length = 1;
  lint::Report rs = lint::run_cdfg(h, s);
  EXPECT_TRUE(rs.has("CD-UNSCHED")) << rs.to_string();

  // Resource conflict: two adds in the same step with a limit of one.
  cdfg::Cdfg k;
  cdfg::OpId p = k.add_input("p");
  cdfg::OpId q = k.add_input("q");
  cdfg::OpId a1 = k.add_binary(cdfg::OpKind::Add, p, q);
  cdfg::OpId a2 = k.add_binary(cdfg::OpKind::Add, q, p);
  k.mark_output(a1);
  k.mark_output(a2);
  cdfg::Schedule cs = cdfg::asap(k);
  std::map<cdfg::OpKind, int> limits{{cdfg::OpKind::Add, 1}};
  lint::Report rr = lint::run_cdfg(k, cs, limits);
  EXPECT_TRUE(rr.has("CD-RESOURCE")) << rr.to_string();
}

TEST(LintRegistry, EveryRuleHasCatalogEntry) {
  const auto& reg = lint::RuleRegistry::global();
  EXPECT_GE(reg.rules().size(), 20u);
  for (const auto& r : reg.rules()) {
    EXPECT_FALSE(r.id.empty());
    EXPECT_FALSE(r.summary.empty());
  }
  EXPECT_NE(reg.find("NL-CYCLE"), nullptr);
  EXPECT_EQ(reg.find("NO-SUCH-RULE"), nullptr);
  EXPECT_EQ(reg.severity("PW-GATE"), lint::Severity::Power);
}

}  // namespace
