#pragma once

#include <cstdint>
#include <vector>

#include "fsm/markov.hpp"
#include "fsm/stg.hpp"

namespace hlp::fsm {

/// Section III-H decomposition: split one FSM into interacting submachines
/// so that "only one is active at any point in time" and the inactive one
/// can be shut down (Benini et al. [87]); partitions are chosen to
/// "minimize the activity along the lines connecting the submachines".

/// Two-way state partition: block id (0/1) per state.
using Partition = std::vector<int>;

/// Greedy + local-swap partition minimizing the steady-state probability of
/// crossing edges, with a balance constraint (each block holds at least
/// `min_fraction` of the states).
Partition partition_min_crossing(const Stg& stg, const MarkovAnalysis& ma,
                                 double min_fraction = 0.25);

/// Steady-state probability that a cycle's transition crosses blocks.
double crossing_probability(const Stg& stg, const MarkovAnalysis& ma,
                            const Partition& part);

/// One submachine: the block's states plus a WAIT state, over the original
/// input alphabet (crossing edges are redirected to WAIT, which self-loops).
/// Re-entry after a wait uses a direct state-load interface added to the
/// synthesized netlist — a `go` strobe plus the target state code on `tgt`
/// lines muxed into the state registers (the interconnection lines of
/// [86]/[87], kept out of the two-level plane).
struct SubMachine {
  Stg stg{1, 1};                 ///< block states first, WAIT state last
  std::vector<StateId> members;  ///< original ids, in sub-state order
  StateId wait;                  ///< sub-state id of WAIT
};

/// Build the two submachines for a partition.
std::vector<SubMachine> build_submachines(const Stg& stg,
                                          const Partition& part);

/// Power comparison: monolithic synthesized FSM vs. the decomposed pair
/// with selective clocking (a submachine's clock and inputs freeze while it
/// waits). Communication cost is modeled as extra load on the go/target
/// lines at each crossing.
struct DecompositionEval {
  double mono_power = 0.0;
  double decomposed_power = 0.0;
  double crossing_rate = 0.0;      ///< crossings per cycle (measured)
  double active_fraction[2] = {0.0, 0.0};
  std::size_t mono_gates = 0;
  std::size_t sub_gates[2] = {0, 0};
  bool functionally_correct = true;  ///< submachine tracking verified
  double saving() const {
    return mono_power > 0.0 ? 1.0 - decomposed_power / mono_power : 0.0;
  }
};

/// The monolithic machine runs through `sim::simulate_activities`; each
/// submachine keeps its own cycle loop on `sim::Simulator`, because a
/// gated cycle skips its eval and freezes the inputs.
DecompositionEval evaluate_decomposition(
    const Stg& stg, const Partition& part, std::size_t cycles,
    std::uint64_t seed, std::span<const double> input_probs = {});

}  // namespace hlp::fsm
