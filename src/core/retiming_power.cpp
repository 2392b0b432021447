#include "core/retiming_power.hpp"

#include <algorithm>

#include "netlist/copy.hpp"
#include "netlist/index.hpp"
#include "sim/simulator.hpp"

namespace hlp::core {

using netlist::GateId;
using netlist::Netlist;

RetimedCircuit place_registers_at_cut(const netlist::Module& mod,
                                      int cut_level) {
  RetimedCircuit rc;
  rc.cut_level = cut_level;
  Netlist& nl = rc.netlist;
  const Netlist& src = mod.netlist;
  const netlist::NetlistIndex ix = netlist::build_acyclic_index(src);
  const std::vector<int>& levels = ix.level;

  std::vector<GateId> new_inputs;
  for (std::size_t i = 0; i < src.inputs().size(); ++i)
    new_inputs.push_back(nl.add_input("x[" + std::to_string(i) + "]"));
  auto xlat = netlist::copy_combinational(src, nl, new_inputs);

  // Register each boundary net for its above-cut consumers.
  for (GateId u = 0; u < src.gate_count(); ++u) {
    if (levels[u] > cut_level) continue;
    bool feeds_above = false;
    for (GateId v : ix.fanouts(u))
      if (levels[v] > cut_level) feeds_above = true;
    bool is_output_here =
        std::find(src.outputs().begin(), src.outputs().end(), u) !=
        src.outputs().end();
    if (!feeds_above && !is_output_here) continue;
    GateId q = nl.add_dff(xlat[u], false);
    ++rc.registers;
    for (GateId v : ix.fanouts(u)) {
      if (levels[v] <= cut_level) continue;
      for (GateId& fi : nl.gate_mut(xlat[v]).fanins)
        if (fi == xlat[u]) fi = q;
    }
    if (is_output_here) xlat[u] = q;  // output sampled at the register
  }
  for (GateId o : src.outputs()) nl.mark_output(xlat[o]);
  return rc;
}

RetimingEval evaluate_retimed(const RetimedCircuit& rc,
                              const netlist::Module& reference,
                              const stats::VectorStream& input,
                              const sim::PowerParams& params) {
  RetimingEval ev;
  ev.registers = rc.registers;

  // Glitch-aware power.
  auto gl = sim::simulate_glitches(rc.netlist, input);
  auto rep_total = sim::compute_power(rc.netlist, gl.total_activity, params);
  auto rep_fn =
      sim::compute_power(rc.netlist, gl.functional_activity, params);
  ev.power_total = rep_total.total_power + rep_total.clock_power;
  ev.power_functional = rep_fn.total_power + rep_fn.clock_power;

  // Functional check: settled outputs equal the reference delayed one cycle.
  const auto ref = sim::simulate_outputs(reference.netlist, input);
  const auto out = sim::simulate_outputs(rc.netlist, input);
  for (std::size_t t = 1; t < out.words.size(); ++t)
    if (out.words[t] != ref.words[t - 1]) ev.functionally_correct = false;
  return ev;
}

int select_cut_monteiro(const netlist::Module& mod,
                        const stats::VectorStream& input,
                        const sim::PowerParams& params) {
  const Netlist& src = mod.netlist;
  auto gl = sim::simulate_glitches(src, input);
  const netlist::NetlistIndex ix =
      netlist::build_acyclic_index(src, params.cap);
  const std::vector<int>& levels = ix.level;
  const std::vector<double>& loads = ix.load;
  const int depth = ix.depth;

  double best_score = -1e300;
  int best_level = 0;
  for (int L = 0; L < depth; ++L) {
    double benefit = 0.0;
    std::size_t regs = 0;
    for (GateId u = 0; u < src.gate_count(); ++u) {
      if (levels[u] > L) continue;
      bool feeds_above = false;
      for (GateId v : ix.fanouts(u))
        if (levels[v] > L) feeds_above = true;
      if (!feeds_above) continue;
      ++regs;
      // Glitches on u currently re-propagate through everything above the
      // cut; a register filters them. Weight by the remaining depth as a
      // proxy for the affected capacitance.
      double glitch = gl.total_activity[u] - gl.functional_activity[u];
      benefit += glitch * loads[u] * static_cast<double>(depth - L);
    }
    double reg_cost =
        static_cast<double>(regs) *
        (2.0 * params.cap.dff_clock_cap + params.cap.dff_pin_cap);
    double score = benefit - reg_cost;
    if (score > best_score) {
      best_score = score;
      best_level = L;
    }
  }
  return best_level;
}

}  // namespace hlp::core
