#pragma once

#include <cstdint>
#include <vector>

#include "analysis/fixpoint.hpp"
#include "exec/exec.hpp"
#include "netlist/index.hpp"
#include "netlist/netlist.hpp"

namespace hlp::analysis {

/// --- Signal probability + transition density (point estimates) -------------
///
/// Each net carries the joint distribution of its value at two consecutive
/// observation points — the lag-one temporal correlation model from the
/// paper: a signal is not just P(v=1) but the 2x2 joint
/// P(prev=a, cur=b), from which both the signal probability
/// p = P(cur=1) and the transition density t = P(prev != cur) fall out.
struct PairDist {
  double p00 = 1.0, p01 = 0.0, p10 = 0.0, p11 = 0.0;

  double p() const { return p01 + p11; }       ///< P(cur = 1)
  double p_prev() const { return p10 + p11; }  ///< P(prev = 1)
  double t() const { return p01 + p10; }       ///< toggle probability

  /// Joint of two independent draws of a signal that is 1 with
  /// probability p.
  static PairDist independent(double p) {
    return {(1 - p) * (1 - p), (1 - p) * p, p * (1 - p), p * p};
  }
  static PairDist constant(bool v) {
    return v ? PairDist{0, 0, 0, 1} : PairDist{1, 0, 0, 0};
  }
};

/// Primary-input statistics, matching the packed Monte Carlo and symbolic
/// estimators: each evaluation pair draws two *independent* input vectors
/// with every input 1 with probability p, so prev and cur are independent
/// and t = 2p(1-p).
struct InputModel {
  double p = 0.5;

  PairDist dist() const;
};

struct ActivityOptions {
  InputModel inputs;
  FixpointOptions fixpoint;
  /// Exact-mode budget: total BDD nodes the refinement pass may allocate
  /// before it stops (0 disables exact mode). Deliberately a fixed
  /// analysis-level knob, NOT derived from any request budget, so a given
  /// (netlist, options) pair always produces the same values — the serve
  /// cache depends on that.
  std::size_t refine_node_budget = 20000;
};

struct ActivityResult {
  std::vector<PairDist> dist;  ///< per gate; DFF entries are the
                               ///< consumer-facing view (prev = init value,
                               ///< cur = D's marginal); the DFF's *own*
                               ///< toggle is its D fanin's t()
  /// Gate's cone reaches a DFF: its two evaluations are correlated through
  /// the state update, so the independence of the two draws does not apply.
  std::vector<std::uint8_t> sequential;
  /// Exact (BDD-computed) joint replaced the decorrelated estimate.
  std::vector<std::uint8_t> refined;
  std::size_t refined_gates = 0;
  std::size_t bdd_nodes = 0;        ///< nodes the refinement actually built
  bool refine_budget_hit = false;   ///< stopped early at refine_node_budget
  FixpointStats stats;              ///< decorrelated propagation
  FixpointStats repropagate_stats;  ///< post-refinement re-propagation
};

/// Propagate pair distributions to fixpoint (fast decorrelated mode:
/// fanins treated as spatially independent, exact otherwise), then — under
/// `refine_node_budget` — build single-time BDDs (bdd::gate_bdd, inputs in
/// bdd::fanin_dfs_order) for a topological prefix of DFF-free gates and
/// replace their joints with exact ones, which repairs reconvergent-fanout
/// correlation error. A DFF-free gate's prev and cur values are the same
/// function of two independent input draws, so its exact joint is
/// PairDist::independent of its weighted sat-probability. Results for
/// refined gates are exact under the input model; unrefined tree-shaped
/// (non-reconvergent) gates are exact already by independence.
ActivityResult run_activity(const netlist::Netlist& nl,
                            const netlist::NetlistIndex& ix,
                            const ActivityOptions& opts = {},
                            exec::Meter* meter = nullptr);

/// Cone-reaches-a-DFF taint, one topo pass (exposed for the bounds
/// analysis, which needs the same flag).
std::vector<std::uint8_t> sequential_taint(const netlist::Netlist& nl,
                                           const netlist::NetlistIndex& ix);

}  // namespace hlp::analysis
