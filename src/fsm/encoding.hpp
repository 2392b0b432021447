#pragma once

#include <cstdint>
#include <vector>

#include "fsm/markov.hpp"
#include "fsm/stg.hpp"
#include "stats/rng.hpp"

namespace hlp::fsm {

/// State-encoding styles compared by the Section III-H experiments.
enum class EncodingStyle {
  Binary,    ///< code_i = i
  Gray,      ///< code_i = i ^ (i >> 1)
  OneHot,    ///< code_i = 1 << i
  Random,    ///< random permutation of {0..2^b-1}
  LowPower,  ///< annealed hypercube embedding minimizing weighted Hamming
};

/// Number of state bits used by a style for `n_states` states.
int encoding_bits(EncodingStyle style, std::size_t n_states);

/// Assign a code to every state. `ma` is required for LowPower (the edge
/// probabilities are the optimization weights, following [90]-[95]);
/// `seed` drives Random and the annealer. A non-ergodic STG's edge weights
/// misdirect the optimizer; `lint::run_fsm` flags one (FS-ERGODIC).
std::vector<std::uint64_t> encode_states(
    const Stg& stg, EncodingStyle style, const MarkovAnalysis* ma = nullptr,
    std::uint64_t seed = 1);

/// Low-power re-encoding (Section III-H "reencoding"): starts from the given
/// codes and anneals pairwise swaps (plus moves to unused codes) to minimize
/// sum p_ij * Hamming(c_i, c_j). Returns the improved assignment.
std::vector<std::uint64_t> reencode_low_power(
    const Stg& stg, const MarkovAnalysis& ma,
    std::vector<std::uint64_t> initial_codes, int bits, std::uint64_t seed,
    int iterations = 20000);

}  // namespace hlp::fsm
