#include "sim/glitch_sim.hpp"

#include <algorithm>
#include <string>

#include "exec/fi.hpp"
#include "netlist/index.hpp"

namespace hlp::sim {

using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;

namespace {

GlitchResult simulate_glitches_impl(const netlist::Netlist& nl,
                                    const stats::VectorStream& in_stream,
                                    exec::Meter* meter) {
  GlitchResult res;
  const std::size_t n = nl.gate_count();
  fi::alloc_checkpoint();
  res.total_activity.assign(n, 0.0);
  res.functional_activity.assign(n, 0.0);
  if (in_stream.words.size() < 2) return res;

  // Level of each gate = unit-delay arrival time of its output.
  const netlist::NetlistIndex ix = netlist::build_acyclic_index(nl);
  const std::vector<GateId>& topo = ix.topo;
  const std::vector<int>& level = ix.level;
  const int max_level = ix.depth;

  std::vector<std::uint8_t> value(n, 0);
  for (GateId g = 0; g < n; ++g)
    if (nl.gate(g).kind == GateKind::Const1) value[g] = 1;
  for (GateId d : nl.dffs()) value[d] = nl.dff_init(d) ? 1 : 0;
  std::vector<std::uint64_t> total(n, 0), functional(n, 0);
  std::vector<std::uint8_t> dirty(n, 0);
  std::vector<std::uint8_t> fanin_buf;

  auto settle_initial = [&]() {
    for (GateId id : topo) {
      const Gate& g = nl.gate(id);
      if (!netlist::is_logic(g.kind)) continue;
      fanin_buf.clear();
      for (GateId f : g.fanins) fanin_buf.push_back(value[f]);
      value[id] = netlist::eval_gate(g.kind, fanin_buf) ? 1 : 0;
    }
  };

  // Settle cycle 0 without counting (establishes the reference state).
  auto apply_inputs = [&](std::uint64_t w) {
    auto ins = nl.inputs();
    for (std::size_t i = 0; i < ins.size(); ++i)
      value[ins[i]] = (w >> i) & 1u;
  };
  apply_inputs(in_stream.words[0]);
  settle_initial();

  // Per-cycle unit-delay propagation. Gates are grouped by level; a gate at
  // level L re-evaluates at time L if any fanin changed at an earlier time.
  std::vector<std::vector<GateId>> by_level(
      static_cast<std::size_t>(max_level) + 1);
  for (GateId id : topo)
    if (netlist::is_logic(nl.gate(id).kind))
      by_level[static_cast<std::size_t>(level[id])].push_back(id);

  std::vector<std::uint8_t> settled(n, 0);
  std::size_t cycles_done = 1;  // cycle 0 established the reference state
  for (std::size_t cyc = 1; cyc < in_stream.words.size(); ++cyc) {
    // One step per cycle; activities over the completed prefix stay exact.
    if (meter && meter->over_budget(1)) break;
    cycles_done = cyc + 1;
    settled = value;  // values at the end of the previous cycle

    // Clock edge: DFFs sample D from settled values; then inputs change.
    std::vector<std::uint8_t> next_state;
    next_state.reserve(nl.dffs().size());
    for (GateId d : nl.dffs()) {
      const Gate& g = nl.gate(d);
      next_state.push_back(g.fanins.empty() ? value[d]
                                            : settled[g.fanins[0]]);
    }
    std::fill(dirty.begin(), dirty.end(), 0);
    std::size_t si = 0;
    for (GateId d : nl.dffs()) {
      std::uint8_t nv = next_state[si++];
      if (nv != value[d]) {
        value[d] = nv;
        ++total[d];
        dirty[d] = 1;
      }
    }
    auto ins = nl.inputs();
    for (std::size_t i = 0; i < ins.size(); ++i) {
      std::uint8_t nv = (in_stream.words[cyc] >> i) & 1u;
      if (nv != value[ins[i]]) {
        value[ins[i]] = nv;
        ++total[ins[i]];
        dirty[ins[i]] = 1;
      }
    }

    // Wave propagation level by level. A gate may switch multiple times in a
    // real event-driven simulation; in the levelized unit-delay model each
    // gate's output settles at its level, but transient mismatches between
    // fanin arrival times show up as extra evaluations when we simulate
    // time steps explicitly. To capture glitches we simulate time steps:
    // at time t, a gate at level <= t re-evaluates using current values if
    // any fanin changed at time t-1.
    std::vector<std::uint8_t> changed_prev = dirty;
    for (int t = 1; t <= max_level; ++t) {
      std::vector<std::uint8_t> changed_now(n, 0);
      bool any = false;
      for (GateId id : topo) {
        const Gate& g = nl.gate(id);
        if (!netlist::is_logic(g.kind)) continue;
        bool touch = false;
        for (GateId f : g.fanins)
          if (changed_prev[f]) {
            touch = true;
            break;
          }
        if (!touch) continue;
        fanin_buf.clear();
        for (GateId f : g.fanins) fanin_buf.push_back(value[f]);
        std::uint8_t nv = netlist::eval_gate(g.kind, fanin_buf) ? 1 : 0;
        if (nv != value[id]) {
          value[id] = nv;
          ++total[id];
          changed_now[id] = 1;
          any = true;
        }
      }
      changed_prev.swap(changed_now);
      if (!any) break;
    }

    // Functional (zero-delay) transitions: settled-to-settled differences.
    for (GateId id = 0; id < n; ++id)
      if (value[id] != settled[id]) ++functional[id];
  }

  res.cycles = cycles_done;
  if (cycles_done < 2) return res;  // tripped before any transition cycle
  double denom = static_cast<double>(cycles_done - 1);
  for (std::size_t g = 0; g < n; ++g) {
    res.total_activity[g] = static_cast<double>(total[g]) / denom;
    res.functional_activity[g] = static_cast<double>(functional[g]) / denom;
  }
  return res;
}

}  // namespace

GlitchResult simulate_glitches(const netlist::Netlist& nl,
                               const stats::VectorStream& in_stream) {
  return simulate_glitches_impl(nl, in_stream, nullptr);
}

exec::Outcome<GlitchResult> simulate_glitches_budgeted(
    const netlist::Netlist& nl, const stats::VectorStream& in_stream,
    const exec::Budget& budget) {
  exec::Meter meter(budget);
  exec::Outcome<GlitchResult> out;
  out.value = simulate_glitches_impl(nl, in_stream, &meter);
  out.diag = meter.diag();
  if (out.diag.stop != exec::StopReason::None)
    out.diag.note = "simulated " + std::to_string(out.value.cycles) + " of " +
                    std::to_string(in_stream.words.size()) +
                    " cycles; activities are rates over that prefix";
  return out;
}

}  // namespace hlp::sim
