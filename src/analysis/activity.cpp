#include "analysis/activity.hpp"

#include <cmath>

#include "bdd/bdd.hpp"
#include "bdd/netlist_bdd.hpp"

namespace hlp::analysis {

namespace {

using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;
using netlist::Netlist;

double clamp01(double x) { return x < 0.0 ? 0.0 : (x > 1.0 ? 1.0 : x); }

/// Output joint of a 2-input gate under spatial independence of its fanins:
/// exact 16-term enumeration of both time points.
template <class F>
PairDist combine2(const PairDist& a, const PairDist& b, F f) {
  const double pa[2][2] = {{a.p00, a.p01}, {a.p10, a.p11}};
  const double pb[2][2] = {{b.p00, b.p01}, {b.p10, b.p11}};
  double out[2][2] = {{0, 0}, {0, 0}};
  for (int ap = 0; ap < 2; ++ap)
    for (int ac = 0; ac < 2; ++ac)
      for (int bp = 0; bp < 2; ++bp)
        for (int bc = 0; bc < 2; ++bc)
          out[f(ap, bp)][f(ac, bc)] += pa[ap][ac] * pb[bp][bc];
  return {out[0][0], out[0][1], out[1][0], out[1][1]};
}

PairDist invert(const PairDist& a) { return {a.p11, a.p10, a.p01, a.p00}; }

/// Mux needs direct 3-input enumeration: folding it as (s&d1)|(~s&d0)
/// would use the select twice and double-count its distribution.
PairDist mux3(const PairDist& s, const PairDist& d0, const PairDist& d1) {
  const double ps[2][2] = {{s.p00, s.p01}, {s.p10, s.p11}};
  const double pa[2][2] = {{d0.p00, d0.p01}, {d0.p10, d0.p11}};
  const double pb[2][2] = {{d1.p00, d1.p01}, {d1.p10, d1.p11}};
  double out[2][2] = {{0, 0}, {0, 0}};
  for (int sp = 0; sp < 2; ++sp)
    for (int sc = 0; sc < 2; ++sc)
      for (int ap = 0; ap < 2; ++ap)
        for (int ac = 0; ac < 2; ++ac)
          for (int bp = 0; bp < 2; ++bp)
            for (int bc = 0; bc < 2; ++bc)
              out[sp != 0 ? bp : ap][sc != 0 ? bc : ac] +=
                  ps[sp][sc] * pa[ap][ac] * pb[bp][bc];
  return {out[0][0], out[0][1], out[1][0], out[1][1]};
}

struct ActivityDomain {
  using Value = PairDist;

  PairDist input;  ///< every primary input's joint
  /// When set, transfer(g) returns pinned[g] for masked gates — used to
  /// hold BDD-exact joints fixed while the decorrelated values downstream
  /// of them re-propagate.
  const std::vector<PairDist>* pinned = nullptr;
  const std::vector<std::uint8_t>* pin_mask = nullptr;
  double tol = 1e-12;

  PairDist fanin(const std::vector<PairDist>& values, GateId f) const {
    if (f == netlist::kNullGate || f >= values.size())
      return PairDist::constant(false);
    return values[f];
  }

  Value initial(const Netlist& nl, GateId g) const {
    if (pin_mask && (*pin_mask)[g]) return (*pinned)[g];
    const Gate& gate = nl.gate(g);
    switch (gate.kind) {
      case GateKind::Input:
        return input;
      case GateKind::Const0:
        return PairDist::constant(false);
      case GateKind::Const1:
        return PairDist::constant(true);
      case GateKind::Dff:
        return PairDist::constant(nl.dff_init(g));
      default:
        return PairDist::constant(false);  // overwritten by first transfer
    }
  }

  Value transfer(const Netlist& nl, GateId g,
                 const std::vector<PairDist>& values) const {
    if (pin_mask && (*pin_mask)[g]) return (*pinned)[g];
    const Gate& gate = nl.gate(g);
    switch (gate.kind) {
      case GateKind::Input:
      case GateKind::Const0:
      case GateKind::Const1:
        return values[g];  // sources hold their model
      case GateKind::Dff: {
        // Consumer view: prev = the init value (pre-update state), cur = the
        // registered D marginal; the components decorrelate across the state
        // update boundary.
        const double pi = nl.dff_init(g) ? 1.0 : 0.0;
        const double pd = gate.fanins.empty()
                              ? pi
                              : fanin(values, gate.fanins[0]).p();
        return {(1 - pi) * (1 - pd), (1 - pi) * pd, pi * (1 - pd), pi * pd};
      }
      case GateKind::Buf:
        return gate.fanins.empty() ? values[g] : fanin(values, gate.fanins[0]);
      case GateKind::Not:
        return gate.fanins.empty() ? values[g]
                                   : invert(fanin(values, gate.fanins[0]));
      case GateKind::And:
      case GateKind::Nand:
      case GateKind::Or:
      case GateKind::Nor:
      case GateKind::Xor:
      case GateKind::Xnor: {
        const bool is_or =
            gate.kind == GateKind::Or || gate.kind == GateKind::Nor;
        const bool is_xor =
            gate.kind == GateKind::Xor || gate.kind == GateKind::Xnor;
        const bool neg = gate.kind == GateKind::Nand ||
                         gate.kind == GateKind::Nor ||
                         gate.kind == GateKind::Xnor;
        PairDist acc = PairDist::constant(!is_or && !is_xor);
        bool first = true;
        for (GateId f : gate.fanins) {
          PairDist v = fanin(values, f);
          if (first) {
            acc = v;
            first = false;
          } else if (is_xor) {
            acc = combine2(acc, v, [](int a, int b) { return a ^ b; });
          } else if (is_or) {
            acc = combine2(acc, v, [](int a, int b) { return a | b; });
          } else {
            acc = combine2(acc, v, [](int a, int b) { return a & b; });
          }
        }
        return neg ? invert(acc) : acc;
      }
      case GateKind::Mux: {
        if (gate.fanins.size() < 3) return values[g];
        return mux3(fanin(values, gate.fanins[0]),
                    fanin(values, gate.fanins[1]),
                    fanin(values, gate.fanins[2]));
      }
    }
    return values[g];
  }

  bool changed(const PairDist& a, const PairDist& b) const {
    return std::fabs(a.p00 - b.p00) > tol || std::fabs(a.p01 - b.p01) > tol ||
           std::fabs(a.p10 - b.p10) > tol || std::fabs(a.p11 - b.p11) > tol;
  }
};

/// The refinement builds only gates bdd::gate_bdd can read: every fanin
/// present and already built, and as many fanins as the kind needs.
bool buildable(const Gate& gate, const std::vector<std::uint8_t>& built) {
  for (GateId f : gate.fanins)
    if (f == netlist::kNullGate || f >= built.size() || built[f] == 0)
      return false;
  switch (gate.kind) {
    case GateKind::Input:
    case GateKind::Const0:
    case GateKind::Const1:
      return true;
    case GateKind::Dff:
      return false;  // sequential; never reached (taint)
    case GateKind::Mux:
      return gate.fanins.size() >= 3;
    default:
      return !gate.fanins.empty();
  }
}

}  // namespace

PairDist InputModel::dist() const { return PairDist::independent(clamp01(p)); }

std::vector<std::uint8_t> sequential_taint(const netlist::Netlist& nl,
                                           const netlist::NetlistIndex& ix) {
  const std::size_t n = nl.gate_count();
  std::vector<std::uint8_t> seq(n, 0);
  for (GateId g = 0; g < n; ++g)
    if (nl.gate(g).kind == GateKind::Dff) seq[g] = 1;
  for (GateId g : ix.topo) {
    const Gate& gate = nl.gate(g);
    if (!netlist::is_logic(gate.kind)) continue;
    for (GateId f : gate.fanins)
      if (f != netlist::kNullGate && f < n && seq[f] != 0) {
        seq[g] = 1;
        break;
      }
  }
  // Gates on combinational cycles never enter the topo order; taint them so
  // no caller treats their pair statistics as independent.
  for (GateId g = 0; g < n; ++g)
    if (ix.topo_rank[g] == netlist::NetlistIndex::kNoRank) seq[g] = 1;
  return seq;
}

ActivityResult run_activity(const netlist::Netlist& nl,
                            const netlist::NetlistIndex& ix,
                            const ActivityOptions& opts, exec::Meter* meter) {
  const std::size_t n = nl.gate_count();
  ActivityResult res;

  ActivityDomain dom{opts.inputs.dist()};
  res.stats = run_fixpoint(nl, ix, dom, res.dist, opts.fixpoint, meter);
  res.sequential = sequential_taint(nl, ix);
  res.refined.assign(n, 0);
  if (opts.refine_node_budget == 0 || res.stats.stop != exec::StopReason::None)
    return res;

  // --- Exact mode: single-time BDDs over a topological prefix ------------
  // Deterministic: topo prefix, fixed node budget, no wall-clock influence
  // on which gates get refined. A 4x backstop meter guards against a single
  // ITE blowing far past the budget between checks.
  bdd::Manager mgr;
  exec::Budget backstop_budget;
  backstop_budget.node_cap = 4 * opts.refine_node_budget + 1024;
  exec::Meter backstop(backstop_budget);
  mgr.set_meter(&backstop);
  // The symbolic kernel's structural order: variable k is input order[k].
  const std::vector<std::size_t> order = bdd::fanin_dfs_order(nl);
  std::vector<std::uint32_t> var_of(n, 0);
  for (std::size_t k = 0; k < order.size(); ++k)
    var_of[nl.inputs()[order[k]]] = static_cast<std::uint32_t>(k);
  const double p = clamp01(opts.inputs.p);
  std::vector<bdd::NodeRef> fn(n, bdd::kFalse);
  std::vector<std::uint8_t> built(n, 0);

  for (GateId g : ix.topo) {
    if (res.sequential[g] != 0) continue;
    if (meter && meter->over_budget(1)) {
      res.refine_budget_hit = true;
      break;
    }
    const Gate& gate = nl.gate(g);
    if (!buildable(gate, built)) continue;
    try {
      fn[g] = gate.kind == GateKind::Input ? mgr.var(var_of[g])
                                           : bdd::gate_bdd(mgr, gate, fn);
      built[g] = 1;
      if (netlist::is_logic(gate.kind)) {
        res.dist[g] = PairDist::independent(mgr.sat_probability(fn[g], p));
        res.refined[g] = 1;
        ++res.refined_gates;
      }
    } catch (const exec::BudgetExceeded&) {
      res.refine_budget_hit = true;
      break;
    }
    if (mgr.total_nodes() > opts.refine_node_budget) {
      res.refine_budget_hit = true;
      break;
    }
  }
  res.bdd_nodes = mgr.total_nodes();

  // Re-propagate so decorrelated gates downstream of refined ones see the
  // corrected joints; refined gates stay pinned to their exact values.
  if (res.refined_gates > 0) {
    std::vector<PairDist> pins = res.dist;
    ActivityDomain dom2 = dom;
    dom2.pinned = &pins;
    dom2.pin_mask = &res.refined;
    res.repropagate_stats =
        run_fixpoint(nl, ix, dom2, res.dist, opts.fixpoint, meter);
  }
  return res;
}

}  // namespace hlp::analysis
