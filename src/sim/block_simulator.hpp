#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/block_kernels.hpp"
#include "sim/engine.hpp"

namespace hlp::sim {

/// N×64-lane bit-parallel zero-delay simulator (the packed `SimEngine`
/// backend; W=1 is the single-word 64-lane form). Each gate holds a
/// contiguous block of W `uint64_t` lane words (lane count L = 64·W); bit k
/// of word w is the gate's value under pattern w·64+k. Gate-major storage
/// keeps one gate's block contiguous, so the eval kernels stream it through
/// SIMD registers: the kernel is chosen once at construction from
/// `active_dispatch()` — AVX-512 when W is a multiple of 8, AVX2 when a
/// multiple of 4, else a portable uint64_t loop. Every kernel computes
/// identical bits; dispatch level and width never change results, only
/// throughput.
///
/// Lane semantics are the caller's choice: temporal packing (combinational
/// only, lane k = cycle base+k) or replica packing (sequential, lane k = an
/// independent stream). Cycle-word I/O transposes one 64-cycle sub-word at
/// a time, so stream conventions are unchanged — a W-word block just
/// carries W consecutive 64-cycle groups.
class BlockSimulator {
 public:
  /// `words` in [1, 64]; <= 0 picks `default_block_words()`.
  explicit BlockSimulator(const netlist::Netlist& nl, int words = 0);

  int words() const { return words_; }
  int lane_count() const { return 64 * words_; }
  /// Kernel actually selected (after CPU/env/width constraints).
  SimDispatch dispatch() const { return dispatch_; }

  /// Reset DFF lanes to their broadcast init values, clear all nets to 0.
  void reset();

  /// Assign one primary input's lane block directly; `w.size()` must be
  /// words().
  void set_input_lanes(netlist::GateId input, std::span<const std::uint64_t> w);

  /// Load up to 64·W cycle words (vector-stream convention: bit i of
  /// words[k] drives primary input i in lane k); lanes >= words.size() are
  /// cleared. Requires <= 64 primary inputs.
  void set_inputs_from_cycles(std::span<const std::uint64_t> cycle_words);

  /// Propagate all 64·W lanes through the combinational logic.
  void eval();

  /// Clock edge: every DFF samples its D input in every lane.
  void tick();

  /// Gate g's lane block (words() words; bit k of word w = pattern w·64+k).
  std::span<const std::uint64_t> lane_words(netlist::GateId g) const {
    return {lanes_.data() + std::size_t{g} * words_,
            static_cast<std::size_t>(words_)};
  }

  /// Every gate's lane block, gate-major: gate g's words start at
  /// g·words().
  std::span<const std::uint64_t> lanes() const { return lanes_; }

  /// Make the second lane buffer current, so the next evaluation lands in
  /// other memory and the lanes just computed stay readable through
  /// previous_lanes(). Register lanes carry over and constants hold in
  /// both buffers; primary inputs and logic nets must be set and evaluated
  /// again. The second buffer is allocated by the first call.
  void swap_lanes();
  /// The lanes current before the last swap_lanes(); empty until the first
  /// swap after construction or reset().
  std::span<const std::uint64_t> previous_lanes() const { return spare_; }

  /// Temporal packing (lane k = cycle base+k, `count` >= 1 lanes): writes
  /// gate-major toggles[g·W + w], bit k set when gate g changed on the
  /// transition into lane w·64+k's cycle (lanes >= count read 0). `last`
  /// carries each gate's last-lane value across blocks; a `first_block`
  /// has no transition into lane 0.
  void temporal_toggles(std::size_t count, bool first_block,
                        std::span<std::uint8_t> last,
                        std::span<std::uint64_t> toggles) const;

  /// Transpose primary-output lanes back to cycle words: out[k] bit i =
  /// output i under pattern k. Writes min(out.size(), 64·W) words; requires
  /// <= 64 primary outputs.
  void outputs_to_cycles(std::span<std::uint64_t> out) const;

  const netlist::Netlist& netlist() const { return *nl_; }

 private:
  const netlist::Netlist* nl_;
  int words_;
  SimDispatch dispatch_;
  detail::EvalKernelFn kernel_;
  std::vector<std::uint64_t> lanes_;  // gate-major: [g*words_, (g+1)*words_)
  std::vector<std::uint64_t> spare_;  // swap_lanes()' second buffer
  std::vector<detail::BlockOp> ops_;  // compiled logic gates, topo order
  std::vector<std::uint64_t> dff_next_;
};

}  // namespace hlp::sim
