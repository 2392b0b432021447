#pragma once

#include <span>
#include <vector>

#include "exec/exec.hpp"
#include "fsm/stg.hpp"
#include "stats/entropy.hpp"
#include "stats/rng.hpp"

namespace hlp::fsm {

/// Markov-chain analysis of an STG under an i.i.d. input-symbol distribution
/// (Hachtel et al. [96] compute the same quantities symbolically; explicit
/// power iteration suffices at benchmark scale).
struct MarkovAnalysis {
  /// Steady-state probability per state.
  std::vector<double> state_prob;
  /// Conditional transition matrix P[s][t] = P(next = t | cur = s).
  std::vector<std::vector<double>> cond;

  /// Steady-state edge probability p_ij = pi_i * P(i -> j) (the p_{i,j} of
  /// Tyagi's bound, Section II-B1).
  double edge_prob(StateId i, StateId j) const {
    return state_prob[i] * cond[i][j];
  }
  /// Number of edges (i,j) with nonzero steady-state probability — the "t"
  /// in Tyagi's sparseness condition.
  std::size_t nonzero_edges() const;
  /// Entropy (bits) of the joint edge distribution p_ij — Tyagi's h(p_ij).
  double edge_entropy() const;

  /// Power-iteration sweeps actually executed.
  int iterations = 0;
  /// Final L1 residual ||pi_k - pi_{k-1}||_1 (0 when 0 or 1 sweeps ran).
  double residual = 0.0;
  /// True iff the residual fell below the convergence tolerance. False
  /// means the chain had not mixed when iteration stopped (non-mixing
  /// chain, iteration cap, or budget trip) and `state_prob` is the best
  /// available iterate, not the steady state.
  bool converged = false;
};

/// `input_probs` has one probability per input symbol (must sum to ~1);
/// empty means uniform. Throws std::invalid_argument when `input_probs` is
/// non-empty and its size differs from the STG's symbol count, when an
/// entry is negative, or when the sum is not within 1e-6 of 1.
///
/// Power iteration runs until the L1 residual drops below 1e-12 or
/// `max_iters` sweeps elapse; convergence state is reported in the result
/// (`iterations`/`residual`/`converged`) instead of being silently assumed.
/// A non-ergodic chain's steady state puts zero mass on every transient
/// state; a caller that must reject one runs `lint::run_fsm` first and
/// checks FS-ERGODIC.
MarkovAnalysis analyze_markov(const Stg& stg,
                              std::span<const double> input_probs = {},
                              int max_iters = 2000);

/// Budgeted power iteration: one meter step per sweep. On a budget trip the
/// outcome carries the best iterate so far with `converged == false` and
/// the stop reason in the diag — an honest partial result, never a hang.
exec::Outcome<MarkovAnalysis> analyze_markov_budgeted(
    const Stg& stg, const exec::Budget& budget,
    std::span<const double> input_probs = {}, int max_iters = 2000,
    double tol = 1e-12);

/// Expected state-register switching per cycle for an encoding:
/// sum_{i,j} p_ij * Hamming(code_i, code_j).
double expected_code_switching(const MarkovAnalysis& ma,
                               std::span<const std::uint64_t> codes);

/// Monte Carlo run of the STG: draws input symbols i.i.d. from
/// `input_probs` (uniform if empty) and returns the visited state sequence.
std::vector<StateId> simulate_states(const Stg& stg, std::size_t cycles,
                                     stats::Rng& rng,
                                     std::span<const double> input_probs = {},
                                     StateId start = 0,
                                     std::vector<std::uint64_t>* inputs = nullptr,
                                     std::vector<std::uint64_t>* outputs = nullptr);

}  // namespace hlp::fsm
