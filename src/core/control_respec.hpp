#pragma once

#include <cstdint>

#include "sim/engine.hpp"
#include "sim/power.hpp"

namespace hlp::core {

/// Section III-I, "other approaches": controller respecification
/// (Raghunathan et al. [107],[108]). In control-flow-intensive designs the
/// steering network dominates power, and in cycles where a shared bus's
/// value is unused the controller's select lines are don't-cares. A naive
/// controller drives a fixed default select in those cycles (reconfiguring
/// the mux tree for nothing); respecifying the don't-cares to *hold* the
/// previous selection keeps the mux network and bus quiet.

struct RespecResult {
  double power_default = 0.0;  ///< idle cycles select source 0
  double power_respec = 0.0;   ///< idle cycles hold the previous select
  double idle_fraction = 0.0;
  std::size_t mux_gates = 0;
  double saving() const {
    return power_default > 0.0 ? 1.0 - power_respec / power_default : 0.0;
  }
};

/// Build a `sources`-way shared bus of `width` bits (mux tree), drive it
/// with random-walk source data and a random schedule in which each cycle
/// is idle with probability `idle_prob`, and compare the two controller
/// policies. Functional equality on non-idle cycles is asserted internally.
/// The mux tree is combinational, so both policy sweeps run packed (64·W
/// cycles per step) when the bus fits in 64 input bits; wider buses fall
/// back to the scalar word-sliced sweep.
RespecResult evaluate_control_respec(int width, int sources,
                                     std::size_t cycles, double idle_prob,
                                     std::uint64_t seed,
                                     const sim::PowerParams& params = {},
                                     const sim::SimOptions& opts = {});

}  // namespace hlp::core
