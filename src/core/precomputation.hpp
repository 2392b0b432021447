#pragma once

#include <cstdint>
#include <vector>

#include "exec/exec.hpp"
#include "netlist/generators.hpp"
#include "sim/engine.hpp"
#include "sim/power.hpp"
#include "stats/entropy.hpp"

namespace hlp::core {

/// Section III-I, precomputation (Alidina/Monteiro et al. [99], Fig. 6).
///
/// For a single-output combinational block f, predictor functions over a
/// subset S of the inputs are derived by universal quantification:
///   g1 = forall_{x not in S} f     (g1 = 1 => f = 1)
///   g0 = forall_{x not in S} !f    (g0 = 1 => f = 0)
/// When g1 + g0 = 1 at cycle t, the input register of block A keeps its
/// value at t+1 (no switching inside A) and the output is taken from the
/// registered predictor.

struct PrecomputedCircuit {
  netlist::Netlist netlist;
  netlist::Word inputs;              ///< primary inputs (same order as mod)
  std::vector<std::uint32_t> subset; ///< input indices driving g1/g0
  double coverage = 0.0;             ///< P(g1 + g0 = 1) under uniform inputs
  std::size_t predictor_gates = 0;
};

/// Greedy subset selection maximizing coverage (probability the predictors
/// decide the output), evaluated symbolically.
std::vector<std::uint32_t> select_precompute_inputs(const netlist::Module& mod,
                                                    int subset_size);

/// Budgeted subset selection with graceful degradation. The symbolic greedy
/// search runs with `budget` metered on its BDD manager; if quantification
/// blows the node cap / deadline (or allocation fails), selection degrades
/// to the same greedy loop scored by *sampled* coverage: hold a random
/// assignment of the candidate subset, draw random completions of the other
/// inputs, and count how often the output stays constant. Deterministic in
/// `seed`. The degradation (if any) is recorded in the outcome's diag.
exec::Outcome<std::vector<std::uint32_t>> select_precompute_inputs_budgeted(
    const netlist::Module& mod, int subset_size, const exec::Budget& budget,
    std::uint64_t seed = 0x5eedbeefu);

/// Build the Fig. 6 architecture around output 0 of `mod`.
/// The baseline comparison circuit is the same block behind an input
/// register without gating (build with `precompute = false`).
PrecomputedCircuit build_precomputed(const netlist::Module& mod,
                                     std::span<const std::uint32_t> subset,
                                     bool precompute = true);

/// Power of a (pre)computed circuit on a stream, and functional check: the
/// sequence of sampled outputs must match the plain block's outputs delayed
/// by one cycle.
struct PrecomputationEval {
  double power = 0.0;
  double coverage_observed = 0.0;
  bool functionally_correct = true;
};
/// The combinational reference runs through sim::sweep_stream (packed); the
/// registered gated circuit runs its own cycle loop, because `fired` next to
/// a 64-output reference is wider than one stream word.
PrecomputationEval evaluate_precomputed(const PrecomputedCircuit& pc,
                                        const netlist::Module& reference,
                                        const stats::VectorStream& input,
                                        const sim::PowerParams& params = {},
                                        const sim::SimOptions& opts = {});

/// Multi-output generalization ([16],[100]): one g1/g0 predictor pair per
/// output; the input register holds only when *every* output is decided by
/// the subset (coverage = P(AND over outputs of g1_o + g0_o)), which is why
/// multi-output precomputation pays off less often than single-output.
struct MultiPrecomputedCircuit {
  netlist::Netlist netlist;
  netlist::Word inputs;
  std::vector<std::uint32_t> subset;
  double coverage = 0.0;
  std::size_t predictor_gates = 0;
  std::size_t n_outputs = 0;
};

MultiPrecomputedCircuit build_precomputed_multi(
    const netlist::Module& mod, std::span<const std::uint32_t> subset,
    bool precompute = true);

PrecomputationEval evaluate_precomputed_multi(
    const MultiPrecomputedCircuit& pc, const netlist::Module& reference,
    const stats::VectorStream& input, const sim::PowerParams& params = {},
    const sim::SimOptions& opts = {});

}  // namespace hlp::core
