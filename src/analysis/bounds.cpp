#include "analysis/bounds.hpp"

#include <algorithm>
#include <cmath>

namespace hlp::analysis {

namespace {

using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;
using netlist::Netlist;

constexpr double kSeqSlack = 1e-9;  ///< absorbs asymptotic-stop error of the
                                    ///< tolerance-terminated hull iteration

double clamp01(double x) { return x < 0.0 ? 0.0 : (x > 1.0 ? 1.0 : x); }

struct PInt {
  double lo, hi;
};

PInt pnot(PInt a) { return {1.0 - a.hi, 1.0 - a.lo}; }

/// Fréchet bounds: valid for ANY joint distribution of the operands, which
/// is the whole point — no independence assumption survives reconvergent
/// fanout, but these do.
PInt pand(PInt a, PInt b) {
  return {std::max(0.0, a.lo + b.lo - 1.0), std::min(a.hi, b.hi)};
}
PInt por(PInt a, PInt b) {
  return {std::max(a.lo, b.lo), std::min(1.0, a.hi + b.hi)};
}
PInt pxor(PInt a, PInt b) {
  // Pointwise P(a^b) ∈ [|pa-pb|, min(pa+pb, 2-pa-pb)]; take the hull over
  // the operand intervals.
  const double lo = std::max({a.lo - b.hi, b.lo - a.hi, 0.0});
  const double slo = a.lo + b.lo;
  const double shi = a.hi + b.hi;
  const double hi = (slo <= 1.0 && 1.0 <= shi)
                        ? 1.0
                        : std::max(std::min(slo, 2.0 - slo),
                                   std::min(shi, 2.0 - shi));
  return {clamp01(lo), clamp01(hi)};
}

/// Image of t = 2p(1-p) over a probability interval — exact toggle interval
/// for a net whose two evaluations are independent draws.
void indep_toggle(double p_lo, double p_hi, double& t_lo, double& t_hi) {
  const double f_lo = 2.0 * p_lo * (1.0 - p_lo);
  const double f_hi = 2.0 * p_hi * (1.0 - p_hi);
  t_lo = std::min(f_lo, f_hi);
  t_hi = (p_lo <= 0.5 && 0.5 <= p_hi) ? 0.5 : std::max(f_lo, f_hi);
}

struct BoundsDomain {
  using Value = BoundsValue;

  double input_p;  ///< every primary input's signal probability
  const ActivityResult* exact = nullptr;
  /// Soundness fallback when the hull iteration hits max_passes: register
  /// outputs drop to top so one more (now converging) run re-derives the
  /// combinational part from guaranteed-valid sources.
  bool pin_top_sequential = false;
  double tol = 1e-12;

  static BoundsValue top() { return {0.0, 1.0, 0.0, 1.0, false}; }

  BoundsValue fanin(const std::vector<BoundsValue>& values, GateId f) const {
    if (f == netlist::kNullGate || f >= values.size()) return top();
    return values[f];
  }

  BoundsValue make_indep(double p_lo, double p_hi) const {
    BoundsValue v{p_lo, p_hi, 0.0, 0.0, true};
    indep_toggle(p_lo, p_hi, v.t_lo, v.t_hi);
    return v;
  }

  Value initial(const Netlist& nl, GateId g) const {
    const Gate& gate = nl.gate(g);
    switch (gate.kind) {
      case GateKind::Input:
        return make_indep(input_p, input_p);
      case GateKind::Const0:
        return {0.0, 0.0, 0.0, 0.0, true};
      case GateKind::Const1:
        return {1.0, 1.0, 0.0, 0.0, true};
      case GateKind::Dff: {
        const double pi = nl.dff_init(g) ? 1.0 : 0.0;
        return {pi, pi, 0.0, 0.0, false};  // grows toward lfp via hull
      }
      default:
        return top();  // overwritten by first transfer
    }
  }

  Value transfer(const Netlist& nl, GateId g,
                 const std::vector<BoundsValue>& values) const {
    const Gate& gate = nl.gate(g);
    if (exact != nullptr && g < exact->refined.size() &&
        exact->refined[g] != 0) {
      // BDD-exact joint: the enclosure collapses to the exact point (both
      // marginals of the pair coincide — same function over identically
      // distributed draws).
      const PairDist& d = exact->dist[g];
      return {d.p(), d.p(), d.t(), d.t(), true};
    }
    switch (gate.kind) {
      case GateKind::Input:
      case GateKind::Const0:
      case GateKind::Const1:
        return values[g];
      case GateKind::Dff: {
        if (pin_top_sequential) return top();
        const double pi = nl.dff_init(g) ? 1.0 : 0.0;
        if (gate.fanins.empty() || gate.fanins[0] == netlist::kNullGate)
          return {pi, pi, 0.0, 0.0, false};
        const BoundsValue d = fanin(values, gate.fanins[0]);
        // p: hull over every per-cycle marginal the consumers can see
        // (init at the first evaluation, a registered D marginal after).
        // t (consumer-facing): P(state != init) derived from D's marginal.
        BoundsValue v;
        v.p_lo = std::min(pi, d.p_lo);
        v.p_hi = std::max(pi, d.p_hi);
        if (pi > 0.5) {
          v.t_lo = 1.0 - d.p_hi;
          v.t_hi = 1.0 - d.p_lo;
        } else {
          v.t_lo = d.p_lo;
          v.t_hi = d.p_hi;
        }
        v.indep = false;
        return v;
      }
      case GateKind::Buf:
        return gate.fanins.empty() ? values[g] : fanin(values, gate.fanins[0]);
      case GateKind::Not: {
        if (gate.fanins.empty()) return values[g];
        BoundsValue v = fanin(values, gate.fanins[0]);
        const PInt p = pnot({v.p_lo, v.p_hi});
        v.p_lo = p.lo;
        v.p_hi = p.hi;
        return v;  // toggle and independence are inversion-invariant
      }
      default:
        break;
    }
    // n-ary logic: fold probability intervals through Fréchet combiners,
    // then derive the toggle interval.
    PInt p{0.0, 1.0};
    bool indep = true;
    double t_sum = 0.0;
    bool first = true;
    const bool is_or = gate.kind == GateKind::Or || gate.kind == GateKind::Nor;
    const bool is_xor =
        gate.kind == GateKind::Xor || gate.kind == GateKind::Xnor;
    const bool neg = gate.kind == GateKind::Nand ||
                     gate.kind == GateKind::Nor ||
                     gate.kind == GateKind::Xnor;
    if (gate.kind == GateKind::Mux) {
      if (gate.fanins.size() < 3) return top();
      const BoundsValue s = fanin(values, gate.fanins[0]);
      const BoundsValue d0 = fanin(values, gate.fanins[1]);
      const BoundsValue d1 = fanin(values, gate.fanins[2]);
      // (s & d1) | (~s & d0); Fréchet tolerates the shared select.
      p = por(pand({s.p_lo, s.p_hi}, {d1.p_lo, d1.p_hi}),
              pand(pnot({s.p_lo, s.p_hi}), {d0.p_lo, d0.p_hi}));
      indep = s.indep && d0.indep && d1.indep;
      t_sum = s.t_hi + d0.t_hi + d1.t_hi;
    } else {
      for (GateId f : gate.fanins) {
        const BoundsValue v = fanin(values, f);
        const PInt pf{v.p_lo, v.p_hi};
        if (first) {
          p = pf;
          first = false;
        } else if (is_xor) {
          p = pxor(p, pf);
        } else if (is_or) {
          p = por(p, pf);
        } else {
          p = pand(p, pf);
        }
        indep = indep && v.indep;
        t_sum += v.t_hi;
      }
      if (first) return values[g];  // no fanins: hold
      if (neg) p = pnot(p);
    }
    BoundsValue out;
    out.p_lo = clamp01(p.lo);
    out.p_hi = clamp01(p.hi);
    out.indep = indep;
    if (indep) {
      indep_toggle(out.p_lo, out.p_hi, out.t_lo, out.t_hi);
    } else {
      out.t_lo = 0.0;
      out.t_hi = std::min(1.0, t_sum);
    }
    return out;
  }

  bool changed(const BoundsValue& a, const BoundsValue& b) const {
    return std::fabs(a.p_lo - b.p_lo) > tol || std::fabs(a.p_hi - b.p_hi) > tol ||
           std::fabs(a.t_lo - b.t_lo) > tol || std::fabs(a.t_hi - b.t_hi) > tol ||
           a.indep != b.indep;
  }
};

}  // namespace

BoundsResult run_bounds(const netlist::Netlist& nl,
                        const netlist::NetlistIndex& ix,
                        const BoundsOptions& opts, exec::Meter* meter) {
  const std::size_t n = nl.gate_count();
  BoundsResult res;

  BoundsDomain dom{clamp01(opts.inputs.p), opts.exact};
  res.stats = run_fixpoint(nl, ix, dom, res.value, opts.fixpoint, meter);

  const std::vector<std::uint8_t> seq = sequential_taint(nl, ix);
  if (!res.stats.converged) {
    // The growing hull iteration was cut off, so sequential enclosures may
    // be too narrow. Drop register outputs to top and re-run: the comb part
    // now converges in one pass from unconditionally sound sources.
    BoundsDomain wide = dom;
    wide.pin_top_sequential = true;
    res.stats = run_fixpoint(nl, ix, wide, res.value, opts.fixpoint, meter);
  }
  for (std::size_t g = 0; g < n; ++g) {
    if (seq[g] == 0) continue;
    BoundsValue& v = res.value[g];
    v.p_lo = clamp01(v.p_lo - kSeqSlack);
    v.p_hi = clamp01(v.p_hi + kSeqSlack);
    v.t_lo = clamp01(v.t_lo - kSeqSlack);
    v.t_hi = clamp01(v.t_hi + kSeqSlack);
  }
  return res;
}

}  // namespace hlp::analysis
