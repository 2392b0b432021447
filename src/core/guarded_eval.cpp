#include "core/guarded_eval.hpp"

#include <algorithm>
#include <map>
#include <new>
#include <string>
#include <unordered_set>

#include "bdd/netlist_bdd.hpp"
#include "netlist/copy.hpp"
#include "netlist/index.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace hlp::core {

using netlist::GateId;
using netlist::GateKind;
using netlist::Netlist;

namespace {

/// Gates from which every path to a primary output passes through the
/// d<side> port of one of the muxes in `mux_group` (a word-level mux bank
/// sharing one select). Fixed point: a gate is in the cone when each of its
/// fanouts is in the cone or is a group mux reading it only on that port.
std::vector<GateId> exclusive_cone(const Netlist& nl,
                                   const netlist::NetlistIndex& ix,
                                   const std::vector<GateId>& mux_group,
                                   int side) {
  std::unordered_set<GateId> group(mux_group.begin(), mux_group.end());
  auto reads_only_on_port = [&](GateId mux, GateId g) {
    const auto& f = nl.gate(mux).fanins;  // {sel, d0, d1}
    if (f[0] == g) return false;
    if (f[static_cast<std::size_t>(1 + (1 - side))] == g) return false;
    return f[static_cast<std::size_t>(1 + side)] == g;
  };
  std::unordered_set<GateId> primary_outputs(nl.outputs().begin(),
                                             nl.outputs().end());
  // Note: gates with no fanouts (dead logic, e.g. truncated product bits)
  // are trivially unobservable and join the cone; in the circuits we build
  // such gates only occur inside the guarded block itself.
  std::unordered_set<GateId> cone;
  auto eligible = [&](GateId g) {
    if (!netlist::is_logic(nl.gate(g).kind)) return false;
    if (primary_outputs.count(g)) return false;  // always observable
    if (ix.fanouts(g).empty()) return true;  // dangling: unobservable
    for (GateId s : ix.fanouts(g)) {
      if (cone.count(s)) continue;
      if (group.count(s) && reads_only_on_port(s, g)) continue;
      return false;
    }
    return true;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (GateId g = 0; g < nl.gate_count(); ++g) {
      if (cone.count(g)) continue;
      if (eligible(g)) {
        cone.insert(g);
        changed = true;
      }
    }
  }
  std::vector<GateId> out(cone.begin(), cone.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// A structurally enumerated guard opportunity, before ODC verification:
/// the full mux bank sharing one select, the blocked side, and its cone.
struct RawGuard {
  GateId sel = netlist::kNullGate;
  std::vector<GateId> muxes;
  int side = 0;
  std::vector<GateId> cone;
};

std::vector<RawGuard> enumerate_guard_cones(const Netlist& nl,
                                            const netlist::NetlistIndex& ix) {
  // Group muxes by select signal: a word-level mux bank is one opportunity.
  std::map<GateId, std::vector<GateId>> groups;
  for (GateId m = 0; m < nl.gate_count(); ++m)
    if (nl.gate(m).kind == GateKind::Mux)
      groups[nl.gate(m).fanins[0]].push_back(m);

  std::vector<RawGuard> raw;
  for (const auto& [sel, muxes] : groups)
    for (int side = 0; side < 2; ++side) {
      auto cone = exclusive_cone(nl, ix, muxes, side);
      if (cone.size() < 2) continue;  // not worth latching
      raw.push_back({sel, muxes, side, std::move(cone)});
    }
  return raw;
}

GuardCandidate make_candidate(const Netlist& nl, const RawGuard& rg,
                              const std::vector<int>& levels) {
  GuardCandidate c;
  c.mux = rg.muxes.front();
  c.guard = rg.sel;
  // The d0 side (side 0) is unobserved when sel = 1.
  c.block_when_guard_high = (rg.side == 0);
  c.cone_root =
      nl.gate(rg.muxes.front()).fanins[static_cast<std::size_t>(1 + rg.side)];
  c.cone = rg.cone;
  // Pure guarded evaluation timing: the guard must settle before any
  // boundary input of the cone can switch (unit-delay levels).
  std::unordered_set<GateId> inside(rg.cone.begin(), rg.cone.end());
  int t_e = 1 << 30;
  for (GateId cg : rg.cone)
    for (GateId f : nl.gate(cg).fanins)
      if (!inside.count(f)) t_e = std::min(t_e, levels[f] + 1);
  c.pure = levels[rg.sel] < t_e;
  return c;
}

/// ODC verification via BDDs: under the blocking select value the mux bank
/// outputs equal the other branch for every input assignment — i.e. the
/// cone is unobservable. Checked symbolically per mux.
bool verify_odc_bdd(bdd::Manager& mgr, const bdd::NetlistBdds& bdds,
                    const Netlist& nl, const RawGuard& rg) {
  bdd::NodeRef sel_fn = bdds.fn[rg.sel];
  bdd::NodeRef cond = rg.side == 0 ? sel_fn : mgr.bdd_not(sel_fn);
  if (cond == bdd::kFalse) return false;
  for (GateId m : rg.muxes) {
    const auto& mf = nl.gate(m).fanins;
    bdd::NodeRef other =
        bdds.fn[mf[static_cast<std::size_t>(1 + (1 - rg.side))]];
    // cond -> (mux output == other branch).
    bdd::NodeRef eq = mgr.bdd_xnor(bdds.fn[m], other);
    if (!mgr.implies(cond, eq)) return false;
  }
  return true;
}

/// Degraded ODC verification: random-vector search for a counterexample.
/// Accepts only if the blocking select value was observed at least once and
/// no sampled vector violates the implication — weaker than the proof, but
/// sound against everything the sample saw.
bool verify_odc_sampled(sim::Simulator& s, const Netlist& nl,
                        const RawGuard& rg, int n_inputs, stats::Rng& rng,
                        int n_vectors) {
  bool cond_seen = false;
  for (int t = 0; t < n_vectors; ++t) {
    s.set_all_inputs(rng.uniform_bits(n_inputs));
    s.eval();
    bool blocking = s.value(rg.sel) == (rg.side == 0);
    if (!blocking) continue;
    cond_seen = true;
    for (GateId m : rg.muxes) {
      const auto& mf = nl.gate(m).fanins;
      GateId other = mf[static_cast<std::size_t>(1 + (1 - rg.side))];
      if (s.value(m) != s.value(other)) return false;
    }
  }
  return cond_seen;
}

std::vector<GuardCandidate> filter_disjoint(std::vector<GuardCandidate> out) {
  // Keep a disjoint subset, largest cones first.
  std::sort(out.begin(), out.end(),
            [](const GuardCandidate& a, const GuardCandidate& b) {
              return a.cone.size() > b.cone.size();
            });
  std::unordered_set<GateId> taken;
  std::vector<GuardCandidate> disjoint;
  for (auto& c : out) {
    bool overlap = false;
    for (GateId g : c.cone)
      if (taken.count(g)) {
        overlap = true;
        break;
      }
    if (overlap || taken.count(c.guard)) continue;
    for (GateId g : c.cone) taken.insert(g);
    disjoint.push_back(std::move(c));
  }
  return disjoint;
}

std::vector<GuardCandidate> find_guards_impl(const netlist::Module& mod,
                                             exec::Meter* meter) {
  const Netlist& nl = mod.netlist;
  bdd::Manager mgr;
  mgr.set_meter(meter);
  auto bdds = bdd::build_bdds(mgr, nl);
  const netlist::NetlistIndex ix = netlist::build_acyclic_index(nl);
  std::vector<GuardCandidate> out;
  for (const RawGuard& rg : enumerate_guard_cones(nl, ix)) {
    if (!verify_odc_bdd(mgr, bdds, nl, rg)) continue;
    GuardCandidate c = make_candidate(nl, rg, ix.level);
    c.odc_verified = true;
    out.push_back(std::move(c));
  }
  return filter_disjoint(std::move(out));
}

}  // namespace

std::vector<GuardCandidate> find_guards(const netlist::Module& mod) {
  return find_guards_impl(mod, nullptr);
}

exec::Outcome<std::vector<GuardCandidate>> find_guards_budgeted(
    const netlist::Module& mod, const exec::Budget& budget,
    std::uint64_t seed) {
  exec::Outcome<std::vector<GuardCandidate>> out;
  exec::Meter meter(budget);
  try {
    out.value = find_guards_impl(mod, &meter);
    out.diag = meter.diag();
    return out;
  } catch (const exec::BudgetExceeded&) {
    out.diag = meter.diag();
  } catch (const std::bad_alloc&) {
    out.diag = meter.diag();
    out.diag.stop = exec::StopReason::AllocFailure;
  }

  const Netlist& nl = mod.netlist;
  const netlist::NetlistIndex ix = netlist::build_acyclic_index(nl);
  sim::Simulator s(nl);
  stats::Rng rng(seed);
  constexpr int kVectors = 256;
  std::vector<GuardCandidate> found;
  for (const RawGuard& rg : enumerate_guard_cones(nl, ix)) {
    if (!verify_odc_sampled(s, nl, rg, mod.total_input_bits(), rng, kVectors))
      continue;
    GuardCandidate c = make_candidate(nl, rg, ix.level);
    c.odc_verified = true;
    found.push_back(std::move(c));
  }
  out.value = filter_disjoint(std::move(found));
  out.diag.degraded = true;
  out.diag.degraded_from = "BDD ODC implication proof";
  out.diag.degraded_to = "random-vector ODC verification";
  out.diag.note = "accepted " + std::to_string(out.value.size()) +
                  " guards on " + std::to_string(kVectors) +
                  " sampled vectors after the symbolic check tripped";
  return out;
}

GuardedCircuit apply_guards(const netlist::Module& mod,
                            std::span<const GuardCandidate> guards) {
  GuardedCircuit gc;
  Netlist& nl = gc.netlist;
  // Copy the module 1:1 (combinational), keeping a translation table.
  std::vector<GateId> new_inputs;
  for (int i = 0; i < mod.total_input_bits(); ++i)
    new_inputs.push_back(nl.add_input("x[" + std::to_string(i) + "]"));
  auto xlat = netlist::copy_combinational(mod.netlist, nl, new_inputs);
  for (std::size_t i = 0; i < mod.netlist.outputs().size(); ++i)
    nl.mark_output(xlat[mod.netlist.outputs()[i]]);

  for (const auto& c : guards) {
    std::unordered_set<GateId> inside;  // in source ids
    for (GateId g : c.cone) inside.insert(g);
    // Transparent-when-observed enable: latches pass while the cone is
    // observed, hold while it is blocked.
    GateId sel_new = xlat[c.guard];
    GateId enable = c.block_when_guard_high
                        ? nl.add_unary(GateKind::Not, sel_new)
                        : sel_new;
    // Gate every boundary edge (f outside -> g inside).
    std::map<GateId, GateId> gated_of;  // source boundary net -> gated net
    for (GateId src_g : c.cone) {
      for (GateId src_f : mod.netlist.gate(src_g).fanins) {
        if (inside.count(src_f)) continue;
        GateId gated;
        auto it = gated_of.find(src_f);
        if (it != gated_of.end()) {
          gated = it->second;
        } else {
          GateId held = nl.add_dff(netlist::kNullGate, false);
          gated = nl.add_mux(enable, held, xlat[src_f]);
          nl.set_dff_input(held, gated);
          gated_of.emplace(src_f, gated);
          ++gc.latches;
        }
        // Rewire the copied gate's fanin.
        for (GateId& fi : nl.gate_mut(xlat[src_g]).fanins)
          if (fi == xlat[src_f]) fi = gated;
      }
    }
  }
  return gc;
}

GuardedEvalResult evaluate_guarded(const netlist::Module& mod,
                                   const GuardedCircuit& gc,
                                   const stats::VectorStream& input,
                                   const sim::PowerParams& params,
                                   const sim::SimOptions& opts) {
  GuardedEvalResult res;
  // The reference is combinational and sweeps packed; the guarded circuit
  // holds state in its latches and sweeps cycle by cycle.
  stats::VectorStream ref_out, out;
  auto ref_acts = sim::simulate_activities(mod.netlist, input, &ref_out, opts);
  auto acts = sim::simulate_activities(gc.netlist, input, &out, opts);
  res.functionally_correct = out.words == ref_out.words;
  res.base_power =
      sim::compute_power(mod.netlist, ref_acts, params).total_power;
  // Transparent latches are level-sensitive: they add pin and mux loads
  // (already in the netlist) but no clock-tree load, so clock power is not
  // charged here.
  auto rep = sim::compute_power(gc.netlist, acts, params);
  res.guarded_power = rep.total_power;
  return res;
}

}  // namespace hlp::core
