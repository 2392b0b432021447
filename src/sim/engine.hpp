#pragma once

#include <cstdint>

#include "netlist/netlist.hpp"

namespace hlp::sim {

/// --- SimEngine -----------------------------------------------------------
///
/// Every gate-level estimator in the library is measured against zero-delay
/// switched-capacitance simulation, so the simulator is the hot path under
/// all of them. Two backends implement the same contract:
///
///  * `Simulator` (scalar): one input pattern per eval; the reference
///    semantics.
///  * `BlockSimulator` (packed): N×64 patterns per eval, one per bit lane
///    of an N-word block of `uint64_t`s per gate (PPSFP-style bit
///    parallelism, widened to SIMD registers). Logic gates vectorize into
///    bitwise ops — AVX-512/AVX2 where the CPU has them, a portable
///    `uint64_t` loop otherwise — and toggle counting into popcounts.
///    At W=1 it is the single-word (64-lane) engine.
///
/// The netlist picks the backend; callers do not. Every stream sweep runs
/// through `sweep_stream` (simulator.hpp), which packs consecutive cycles
/// into lanes — lane k carries cycle base+k — where that is legal: for
/// combinational netlists (`temporal_packable`). A DFF's next state
/// depends on the previous cycle's settled values, which serializes
/// consecutive cycles, so registered netlists sweep on the scalar
/// `Simulator`. Monte Carlo always runs packed, in *replica* mode:
/// lane k carries an independent vector pair, and register lanes hold
/// their own state. Glitch simulation (`glitch_sim`) always stays scalar:
/// event timing does not vectorize across lanes.
///
/// The equivalence contract is exact: for the same seed and input stream,
/// both backends, every block width and every dispatch path produce
/// bit-identical activities, toggle counts and power reports
/// (tests/test_simengine.cpp and tests/test_blockengine.cpp check the
/// packed paths against the scalar reference loops in
/// tests/scalar_reference.hpp).

/// Gate-eval kernel instruction sets, ordered by capability. The dispatch
/// level never changes results — every kernel computes the same bitwise
/// values — only how many lane words one instruction carries.
enum class SimDispatch : std::uint8_t {
  Portable,  ///< plain uint64_t loop (always available)
  Avx2,      ///< 4 words / 256-bit op (block width a multiple of 4)
  Avx512,    ///< 8 words / 512-bit op (block width a multiple of 8)
};

const char* to_string(SimDispatch d);

/// Best dispatch level the running CPU supports, capped by
/// `set_dispatch_cap` or the `HLP_SIM_DISPATCH` environment variable
/// (`portable` | `avx2` | `avx512`, read once at first use; unknown values
/// are ignored). CI pins this to keep the portable kernels tested on
/// AVX-capable runners.
SimDispatch active_dispatch();

/// Programmatic cap (tests/benches): lowers the level reported by
/// `active_dispatch` for the whole process. Passing Avx512 restores the
/// CPU/env default. Not thread-safe against concurrently *running* block
/// evals; call it between simulations.
void set_dispatch_cap(SimDispatch cap);

/// Options threaded through the simulating estimator APIs. The one field
/// changes no computed value: `block_words` is the number of 64-bit lane words per gate in the packed
/// backend (lane count = 64 × block_words). 0 picks the widest profitable
/// block for the active dispatch level (`default_block_words`). Any value
/// in [1, 64] is legal and bit-identical; widths that are multiples of 8
/// (resp. 4) ride the AVX-512 (resp. AVX2) kernels when available.
struct SimOptions {
  int block_words = 0;  ///< words per lane block; 0 = auto, 1 = legacy 64-lane
};

/// Widest profitable block for the active dispatch level (16 words under
/// AVX-512, 8 under AVX2, 4 portable — tuned by bench_simengine).
int default_block_words();

/// Map a requested `SimOptions::block_words` to the width actually used:
/// 0 -> default_block_words(), otherwise clamped to [1, 64].
int resolve_block_words(int requested);

/// True iff stream sweeps may pack consecutive cycles into lanes: the
/// netlist is combinational and its primary inputs and outputs each fit
/// one 64-bit stream word.
bool temporal_packable(const netlist::Netlist& nl);

/// In-place 64x64 bit-matrix transpose: bit c of m[r] moves to bit r of
/// m[c]. Converts between cycle-major vector-stream words (bit i = line i)
/// and lane-major packed words (bit k = cycle k); it is an involution.
void transpose64(std::uint64_t m[64]);

}  // namespace hlp::sim
