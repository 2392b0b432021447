#pragma once

#include <cstddef>

#include "fsm/synth.hpp"
#include "sim/power.hpp"
#include "stats/rng.hpp"

namespace hlp::core {

/// Section III-I, gated clocks (Benini et al. [101]–[103], Fig. 7).
///
/// The activation function F_a stops the local clock whenever the machine
/// would make no state transition (self-loop). F_a is synthesized as a
/// two-level cover of the self-looping (state, input) pairs and added to
/// the FSM netlist; the gating latch is modeled as one extra load on F_a.

struct ClockGatingResult {
  double base_power = 0.0;      ///< free-running clock
  double gated_power = 0.0;     ///< with clock gating (incl. F_a logic)
  double idle_fraction = 0.0;   ///< cycles with the clock stopped
  std::size_t fa_gates = 0;     ///< size of the activation logic
  double saving() const {
    return base_power > 0.0 ? 1.0 - gated_power / base_power : 0.0;
  }
};

/// Simulate `cycles` random input symbols (distribution `input_probs`,
/// uniform if empty) through the synthesized FSM with and without clock
/// gating and compare powers.
///
/// Power accounting under gating: clock-tree and register-internal power
/// scale by the fraction of enabled cycles; the F_a cover and the gating
/// latch add their own switching. Combinational logic power is unchanged
/// (gating fires only on self-loops, so gate values are identical).
/// Activities come from one `sim::simulate_activities` of the gated
/// netlist; the idle cycles are the symbol walk's self-loops, which is
/// exactly where F_a holds.
ClockGatingResult evaluate_clock_gating(const fsm::Stg& stg,
                                        const fsm::SynthesizedFsm& fsmnl,
                                        std::size_t cycles, stats::Rng& rng,
                                        std::span<const double> input_probs = {},
                                        const sim::PowerParams& params = {});

}  // namespace hlp::core
