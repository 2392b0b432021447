#include "core/precomputation.hpp"

#include <algorithm>
#include <new>
#include <string>

#include "bdd/bdd_to_netlist.hpp"
#include "bdd/netlist_bdd.hpp"
#include "netlist/copy.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace hlp::core {

using netlist::GateId;
using netlist::GateKind;

namespace {

std::vector<std::uint32_t> select_precompute_inputs_impl(
    const netlist::Module& mod, int subset_size, exec::Meter* meter) {
  bdd::Manager mgr;
  mgr.set_meter(meter);
  auto bdds = bdd::build_bdds(mgr, mod.netlist);
  bdd::NodeRef f = bdds.fn[mod.netlist.outputs()[0]];
  bdd::NodeRef nf = mgr.bdd_not(f);
  const auto& all_vars = bdds.input_vars;

  // Boolean-difference influence of each input: P(f|x=0 != f|x=1). Early
  // greedy rounds often see zero coverage for every candidate (no single
  // input decides f), so influence breaks those ties toward the inputs
  // that matter most (e.g. the MSBs of a comparator).
  std::vector<double> influence(all_vars.size(), 0.0);
  for (std::size_t i = 0; i < all_vars.size(); ++i) {
    bdd::NodeRef diff = mgr.bdd_xor(mgr.restrict_var(f, all_vars[i], false),
                                    mgr.restrict_var(f, all_vars[i], true));
    influence[i] = mgr.sat_fraction(diff);
  }

  std::vector<std::uint32_t> subset;
  std::vector<bool> in_subset(all_vars.size(), false);
  for (int k = 0; k < subset_size; ++k) {
    double best_score = -1.0;
    std::size_t best_i = all_vars.size();
    for (std::size_t i = 0; i < all_vars.size(); ++i) {
      if (in_subset[i]) continue;
      // Quantify out everything except subset + candidate i.
      std::vector<std::uint32_t> others;
      for (std::size_t j = 0; j < all_vars.size(); ++j)
        if (!in_subset[j] && j != i) others.push_back(all_vars[j]);
      double cov = mgr.sat_fraction(mgr.forall_set(f, others)) +
                   mgr.sat_fraction(mgr.forall_set(nf, others));
      double score = cov + 1e-3 * influence[i];
      if (score > best_score) {
        best_score = score;
        best_i = i;
      }
    }
    if (best_i == all_vars.size()) break;
    in_subset[best_i] = true;
    subset.push_back(static_cast<std::uint32_t>(best_i));
  }
  std::sort(subset.begin(), subset.end());
  return subset;
}

/// Sampled coverage of a subset: hold a random assignment of the subset
/// bits, draw random completions of the rest, count how often the output is
/// the same across all completions (the predictors would have decided it).
double sampled_coverage(sim::Simulator& s, GateId out, int n_inputs,
                        std::uint64_t subset_mask, stats::Rng& rng,
                        int n_holds, int n_completions) {
  int decided = 0;
  for (int j = 0; j < n_holds; ++j) {
    std::uint64_t held = rng.uniform_bits(n_inputs) & subset_mask;
    bool first = true, ref = false, constant = true;
    for (int k = 0; k < n_completions; ++k) {
      std::uint64_t w = held | (rng.uniform_bits(n_inputs) & ~subset_mask);
      s.set_all_inputs(w);
      s.eval();
      bool v = s.value(out);
      if (first) {
        ref = v;
        first = false;
      } else if (v != ref) {
        constant = false;
        break;
      }
    }
    if (constant) ++decided;
  }
  return static_cast<double>(decided) / static_cast<double>(n_holds);
}

/// Degraded greedy selection: the same loop as the symbolic version, with
/// coverage and influence estimated by simulation instead of quantification.
std::vector<std::uint32_t> select_precompute_inputs_sampled(
    const netlist::Module& mod, int subset_size, std::uint64_t seed) {
  sim::Simulator s(mod.netlist);
  const GateId out = mod.netlist.outputs()[0];
  const int n = mod.total_input_bits();
  stats::Rng rng(seed);

  constexpr int kInfluenceSamples = 64;
  constexpr int kHolds = 48;
  constexpr int kCompletions = 16;

  std::vector<double> influence(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    int flips = 0;
    for (int t = 0; t < kInfluenceSamples; ++t) {
      std::uint64_t w = rng.uniform_bits(n);
      s.set_all_inputs(w);
      s.eval();
      bool a = s.value(out);
      s.set_all_inputs(w ^ (std::uint64_t{1} << i));
      s.eval();
      if (s.value(out) != a) ++flips;
    }
    influence[static_cast<std::size_t>(i)] =
        static_cast<double>(flips) / kInfluenceSamples;
  }

  std::uint64_t subset_mask = 0;
  std::vector<std::uint32_t> subset;
  for (int k = 0; k < subset_size && static_cast<int>(subset.size()) < n;
       ++k) {
    double best_score = -1.0;
    int best_i = -1;
    for (int i = 0; i < n; ++i) {
      if (subset_mask & (std::uint64_t{1} << i)) continue;
      double cov = sampled_coverage(s, out, n,
                                    subset_mask | (std::uint64_t{1} << i),
                                    rng, kHolds, kCompletions);
      double score = cov + 1e-3 * influence[static_cast<std::size_t>(i)];
      if (score > best_score) {
        best_score = score;
        best_i = i;
      }
    }
    if (best_i < 0) break;
    subset_mask |= std::uint64_t{1} << best_i;
    subset.push_back(static_cast<std::uint32_t>(best_i));
  }
  std::sort(subset.begin(), subset.end());
  return subset;
}

}  // namespace

std::vector<std::uint32_t> select_precompute_inputs(const netlist::Module& mod,
                                                    int subset_size) {
  return select_precompute_inputs_impl(mod, subset_size, nullptr);
}

exec::Outcome<std::vector<std::uint32_t>> select_precompute_inputs_budgeted(
    const netlist::Module& mod, int subset_size, const exec::Budget& budget,
    std::uint64_t seed) {
  exec::Outcome<std::vector<std::uint32_t>> out;
  exec::Meter meter(budget);
  try {
    out.value = select_precompute_inputs_impl(mod, subset_size, &meter);
    out.diag = meter.diag();
    return out;
  } catch (const exec::BudgetExceeded&) {
    out.diag = meter.diag();
  } catch (const std::bad_alloc&) {
    out.diag = meter.diag();
    out.diag.stop = exec::StopReason::AllocFailure;
  }
  out.value = select_precompute_inputs_sampled(mod, subset_size, seed);
  out.diag.degraded = true;
  out.diag.degraded_from = "BDD quantified coverage";
  out.diag.degraded_to = "sampled coverage";
  out.diag.note = "selected " + std::to_string(out.value.size()) +
                  " inputs by simulation after the symbolic search tripped";
  return out;
}

PrecomputedCircuit build_precomputed(const netlist::Module& mod,
                                     std::span<const std::uint32_t> subset,
                                     bool precompute) {
  PrecomputedCircuit pc;
  netlist::Netlist& nl = pc.netlist;
  pc.subset.assign(subset.begin(), subset.end());
  const int n = mod.total_input_bits();

  // Primary inputs in the same order as the source module.
  for (int i = 0; i < n; ++i)
    pc.inputs.push_back(nl.add_input("x[" + std::to_string(i) + "]"));

  GateId load_enable = netlist::kNullGate;
  GateId g1_reg = netlist::kNullGate, g0_reg = netlist::kNullGate;
  if (precompute) {
    // Predictors from the current inputs, via BDD quantification.
    bdd::Manager mgr;
    auto bdds = bdd::build_bdds(mgr, mod.netlist);
    bdd::NodeRef f = bdds.fn[mod.netlist.outputs()[0]];
    std::vector<std::uint32_t> others;
    for (std::size_t j = 0; j < bdds.input_vars.size(); ++j)
      if (std::find(subset.begin(), subset.end(),
                    static_cast<std::uint32_t>(j)) == subset.end())
        others.push_back(bdds.input_vars[j]);
    bdd::NodeRef g1 = mgr.forall_set(f, others);
    bdd::NodeRef g0 = mgr.forall_set(mgr.bdd_not(f), others);
    pc.coverage = mgr.sat_fraction(mgr.bdd_or(g1, g0));

    std::unordered_map<std::uint32_t, GateId> var_nets;
    for (std::size_t j = 0; j < bdds.input_vars.size(); ++j)
      var_nets[bdds.input_vars[j]] = pc.inputs[j];
    std::size_t before = nl.gate_count();
    GateId g1_net = bdd::materialize(mgr, g1, nl, var_nets);
    GateId g0_net = bdd::materialize(mgr, g0, nl, var_nets);
    pc.predictor_gates = nl.gate_count() - before;

    GateId fired = nl.add_binary(GateKind::Or, g1_net, g0_net, "fired");
    load_enable = nl.add_unary(GateKind::Not, fired, "LE");
    g1_reg = nl.add_dff(g1_net, false, "G1");
    g0_reg = nl.add_dff(g0_net, false, "G0");
    nl.mark_output(fired, "fired");
  }

  // Input register bank, recirculating when LE = 0.
  netlist::Word regs;
  for (int i = 0; i < n; ++i) {
    GateId q = nl.add_dff(netlist::kNullGate, false,
                          "R[" + std::to_string(i) + "]");
    GateId d = precompute
                   ? nl.add_mux(load_enable, q,
                                pc.inputs[static_cast<std::size_t>(i)])
                   : pc.inputs[static_cast<std::size_t>(i)];
    nl.set_dff_input(q, d);
    regs.push_back(q);
  }

  // Block A (a structural copy of the module) on the registered inputs.
  auto xlat = netlist::copy_combinational(mod.netlist, nl, regs);
  GateId f_out = xlat[mod.netlist.outputs()[0]];

  GateId y;
  if (precompute) {
    GateId fired_reg =
        nl.add_binary(GateKind::Or, g1_reg, g0_reg, "fired_q");
    y = nl.add_mux(fired_reg, f_out, g1_reg, "y");
  } else {
    y = nl.add_unary(GateKind::Buf, f_out, "y");
  }
  nl.mark_output(y, "y");
  return pc;
}

MultiPrecomputedCircuit build_precomputed_multi(
    const netlist::Module& mod, std::span<const std::uint32_t> subset,
    bool precompute) {
  MultiPrecomputedCircuit pc;
  netlist::Netlist& nl = pc.netlist;
  pc.subset.assign(subset.begin(), subset.end());
  const int n = mod.total_input_bits();
  pc.n_outputs = mod.netlist.outputs().size();

  for (int i = 0; i < n; ++i)
    pc.inputs.push_back(nl.add_input("x[" + std::to_string(i) + "]"));

  GateId load_enable = netlist::kNullGate;
  GateId all_fired_reg = netlist::kNullGate;
  std::vector<GateId> g1_regs;
  if (precompute) {
    bdd::Manager mgr;
    auto bdds = bdd::build_bdds(mgr, mod.netlist);
    std::vector<std::uint32_t> others;
    for (std::size_t j = 0; j < bdds.input_vars.size(); ++j)
      if (std::find(subset.begin(), subset.end(),
                    static_cast<std::uint32_t>(j)) == subset.end())
        others.push_back(bdds.input_vars[j]);

    std::unordered_map<std::uint32_t, GateId> var_nets;
    for (std::size_t j = 0; j < bdds.input_vars.size(); ++j)
      var_nets[bdds.input_vars[j]] = pc.inputs[j];

    std::size_t before = nl.gate_count();
    bdd::NodeRef all_fired_fn = bdd::kTrue;
    std::vector<GateId> fired_nets;
    for (auto out_gate : mod.netlist.outputs()) {
      bdd::NodeRef f = bdds.fn[out_gate];
      bdd::NodeRef g1 = mgr.forall_set(f, others);
      bdd::NodeRef g0 = mgr.forall_set(mgr.bdd_not(f), others);
      all_fired_fn = mgr.bdd_and(all_fired_fn, mgr.bdd_or(g1, g0));
      GateId g1_net = bdd::materialize(mgr, g1, nl, var_nets);
      GateId g0_net = bdd::materialize(mgr, g0, nl, var_nets);
      fired_nets.push_back(
          nl.add_binary(GateKind::Or, g1_net, g0_net));
      g1_regs.push_back(nl.add_dff(g1_net, false));
    }
    pc.coverage = mgr.sat_fraction(all_fired_fn);
    GateId all_fired = fired_nets.size() == 1
                           ? fired_nets[0]
                           : nl.add_gate(GateKind::And, fired_nets);
    pc.predictor_gates = nl.gate_count() - before;
    load_enable = nl.add_unary(GateKind::Not, all_fired, "LE");
    all_fired_reg = nl.add_dff(all_fired, false, "firedq");
    nl.mark_output(all_fired, "fired");
  }

  netlist::Word regs;
  for (int i = 0; i < n; ++i) {
    GateId q = nl.add_dff(netlist::kNullGate, false);
    GateId d = precompute
                   ? nl.add_mux(load_enable, q,
                                pc.inputs[static_cast<std::size_t>(i)])
                   : pc.inputs[static_cast<std::size_t>(i)];
    nl.set_dff_input(q, d);
    regs.push_back(q);
  }

  auto xlat = netlist::copy_combinational(mod.netlist, nl, regs);
  for (std::size_t o = 0; o < mod.netlist.outputs().size(); ++o) {
    GateId f_out = xlat[mod.netlist.outputs()[o]];
    GateId y = precompute
                   ? nl.add_mux(all_fired_reg, f_out, g1_regs[o])
                   : nl.add_unary(GateKind::Buf, f_out);
    nl.mark_output(y, "y[" + std::to_string(o) + "]");
  }
  return pc;
}

namespace {

/// Power and functional check of a gated netlist whose primary outputs are
/// an optional `fired` flag followed by `n_y` outputs; those must equal
/// `ref_out` (the plain block's output words) one cycle late. This is a
/// cycle loop rather than a `sim::sweep_stream`: `fired` next to a 64-output
/// reference makes 65 lines, more than one stream word holds.
PrecomputationEval evaluate_gated(const netlist::Netlist& nl, std::size_t n_y,
                                  std::span<const std::uint64_t> ref_out,
                                  const stats::VectorStream& input,
                                  const sim::PowerParams& params) {
  PrecomputationEval ev;
  const bool has_fired = nl.outputs().size() > n_y;
  const std::size_t y_base = has_fired ? 1 : 0;
  std::size_t fired_cycles = 0;
  sim::Simulator s(nl);
  sim::ActivityCollector col(nl);
  for (std::size_t t = 0; t < input.words.size(); ++t) {
    s.set_all_inputs(input.words[t]);
    s.eval();
    col.record(s);
    if (has_fired && s.value(nl.outputs()[0])) ++fired_cycles;
    if (t >= 1) {
      std::uint64_t y = 0;
      for (std::size_t o = 0; o < n_y; ++o)
        if (s.value(nl.outputs()[y_base + o])) y |= std::uint64_t{1} << o;
      if (y != ref_out[t - 1]) ev.functionally_correct = false;
    }
    s.tick();
  }
  ev.power = sim::compute_power(nl, col.activities(), params).total_power;
  if (!input.words.empty())
    ev.coverage_observed = static_cast<double>(fired_cycles) /
                           static_cast<double>(input.words.size());
  return ev;
}

}  // namespace

PrecomputationEval evaluate_precomputed_multi(
    const MultiPrecomputedCircuit& pc, const netlist::Module& reference,
    const stats::VectorStream& input, const sim::PowerParams& params,
    const sim::SimOptions& opts) {
  const stats::VectorStream ref =
      sim::simulate_outputs(reference.netlist, input, opts);
  return evaluate_gated(pc.netlist, pc.n_outputs, ref.words, input, params);
}

PrecomputationEval evaluate_precomputed(const PrecomputedCircuit& pc,
                                        const netlist::Module& reference,
                                        const stats::VectorStream& input,
                                        const sim::PowerParams& params,
                                        const sim::SimOptions& opts) {
  // The circuit computes output 0 of the reference, bit 0 of its words.
  stats::VectorStream ref =
      sim::simulate_outputs(reference.netlist, input, opts);
  for (std::uint64_t& w : ref.words) w &= 1u;
  return evaluate_gated(pc.netlist, 1, ref.words, input, params);
}

}  // namespace hlp::core
