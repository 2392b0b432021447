#pragma once

#include <cstdint>
#include <vector>

#include "analysis/activity.hpp"
#include "analysis/fixpoint.hpp"
#include "exec/exec.hpp"
#include "netlist/index.hpp"
#include "netlist/netlist.hpp"

namespace hlp::analysis {

/// --- Guaranteed probability / toggle intervals ------------------------------
///
/// Interval abstraction that makes NO spatial-independence assumption:
/// signal probabilities combine through Fréchet bounds (valid under any
/// correlation between fanins), so [p_lo, p_hi] is a guaranteed enclosure
/// of the true signal probability, and [t_lo, t_hi] of the true toggle
/// probability, under the declared input model. These are what turn the
/// static estimator's output into *provable* upper/lower power bounds.
///
/// Toggle intervals come from two mechanisms:
///  - `indep` gates (combinational cone free of DFFs under the pair input
///    model): the two evaluations are independent draws, so
///    t = 2p(1-p) exactly, and the toggle interval is the image of the
///    probability interval under that map.
///  - everything else: 0 <= t <= min(1, sum of fanin toggles) — an output
///    can only change when some input changed (zero-delay union bound).
struct BoundsValue {
  double p_lo = 0.0, p_hi = 1.0;
  double t_lo = 0.0, t_hi = 1.0;
  /// The two evaluations are independent draws for this net.
  bool indep = false;
};

struct BoundsResult {
  std::vector<BoundsValue> value;
  FixpointStats stats;
};

struct BoundsOptions {
  InputModel inputs;
  FixpointOptions fixpoint;
  /// Collapse p-intervals of gates whose exact joint was computed by the
  /// activity analysis's BDD mode (pass its result); exactness shrinks the
  /// enclosure to a point without weakening the guarantee.
  const ActivityResult* exact = nullptr;
};

BoundsResult run_bounds(const netlist::Netlist& nl,
                        const netlist::NetlistIndex& ix,
                        const BoundsOptions& opts = {},
                        exec::Meter* meter = nullptr);

}  // namespace hlp::analysis
