#pragma once

#include <string>
#include <vector>

#include "fsm/encoding.hpp"
#include "fsm/synth.hpp"
#include "sim/power.hpp"
#include "stats/rng.hpp"

namespace hlp::core {

/// Section III-H: end-to-end comparison harness for low-power state
/// encoding — encode, synthesize to gates, simulate, measure.

struct EncodingReport {
  std::string style;
  int state_bits = 0;
  std::size_t gates = 0;
  /// Analytical expected state-bit switching per cycle (Markov-weighted
  /// Hamming distance).
  double expected_switching = 0.0;
  /// Tyagi lower bound applies to any encoding of this machine.
  double simulated_power = 0.0;
  double simulated_state_switching = 0.0;  ///< measured bits/cycle
};

/// Evaluate one encoding style on an STG: one `sim::sweep_stream` of the
/// synthesized FSM over a random symbol stream gives both the gate-level
/// power and the state-register toggles.
EncodingReport evaluate_encoding(const fsm::Stg& stg,
                                 fsm::EncodingStyle style,
                                 const fsm::MarkovAnalysis& ma,
                                 std::size_t cycles, std::uint64_t seed,
                                 std::span<const double> input_probs = {},
                                 const sim::PowerParams& params = {});

/// All styles side by side.
std::vector<EncodingReport> compare_encodings(
    const fsm::Stg& stg, std::size_t cycles, std::uint64_t seed,
    std::span<const double> input_probs = {},
    const sim::PowerParams& params = {});

const char* encoding_style_name(fsm::EncodingStyle s);

}  // namespace hlp::core
