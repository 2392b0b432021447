#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/block_kernels.hpp"

namespace hlp::sim {

/// Gates grouped by load value: the immutable half of the toggle-energy
/// counter, built once per run and safe to share across threads.
///
/// The counter sums per-class toggle counts (`q = Σ_c m_c · count_c`) in
/// integers instead of adding each toggling gate's load in ascending gate
/// order. The two agree bit for bit when every load is finite and equals
/// `m·2^-k` for one k with `Σ|m| < 2^53`: every partial sum of the scalar
/// loop is then an integer multiple of 2^-k below 2^53 of them, so no
/// addition rounds and the summation order cannot show, and the counter's
/// lane energy `q·2^-k` is that same double. The default `CapacitanceModel`
/// (quarter-unit loads) passes; a load model that fails the check makes
/// `ToggleEnergy` scatter per gate instead, with the same results as before.
class LoadClasses {
 public:
  explicit LoadClasses(std::span<const double> loads);

  /// Per-gate loads, as given.
  std::span<const double> loads() const { return loads_; }
  /// True when the dyadic check passed and the bit-sliced counter runs.
  bool exact() const { return exact_; }
  /// k of the check: every load is an integer multiple of 2^-scale() (0
  /// on the fallback path or when every load is zero).
  int scale() const { return scale_; }
  /// exact(), every load >= 0 and Σm < 2^32: a lane's quanta is then an
  /// unsigned integer below 2^32 whose square fits 64 bits, which is what
  /// Monte Carlo's exact moments need (stats::ExactMoments).
  bool narrow() const { return narrow_; }
  /// Σ|m| over the gates (exact() only): no lane's quanta exceeds it in
  /// magnitude, since each gate toggles at most once per lane.
  std::uint64_t quanta_bound() const { return total_; }
  /// Distinct nonzero loads (0 on the fallback path).
  std::size_t class_count() const { return classes_.size(); }
  /// Total counter bit planes over all classes.
  std::size_t plane_count() const { return n_planes_; }
  /// The counter's layout: the gates of nonzero load, class-major in
  /// ascending load and ascending gate id within a class; the classes over
  /// them; and the readout groups, classes [groups()[i], groups()[i+1])
  /// spanning at most 64 planes. All empty on the fallback path.
  std::span<const netlist::GateId> gates() const { return gates_; }
  std::span<const detail::ToggleClass> classes() const { return classes_; }
  std::span<const std::uint32_t> groups() const { return groups_; }

 private:
  friend class ToggleEnergy;
  std::vector<double> loads_;          // per gate
  std::vector<std::uint64_t> mult_;    // per class: m_c, two's complement
  std::vector<detail::ToggleClass> classes_;
  std::vector<netlist::GateId> gates_;  // class-major, ascending within
  /// Readout groups: classes [groups_[i], groups_[i+1]) span <= 64 planes,
  /// one transpose per group and 64-lane sub-word.
  std::vector<std::uint32_t> groups_;
  std::uint32_t n_planes_ = 0;
  int scale_ = 0;
  std::uint64_t total_ = 0;
  bool exact_ = false;
  bool narrow_ = false;
};

/// Per-lane switched-capacitance energy of one W-word lane block, from
/// gate-major toggle words (bit k of word w of gate g set = gate g toggled
/// in lane w·64+k). Holds the private counter planes, so each thread needs
/// its own; the `LoadClasses` it reads may be shared and must outlive it.
/// The counter and readout kernels follow the block engine's dispatch
/// (`active_dispatch` and the width), and every level gives identical
/// results.
class ToggleEnergy {
 public:
  ToggleEnergy(const LoadClasses& classes, int words);

  /// e[k] = Σ_g load_g · toggle(g, k) for lanes k < count (count <= 64·W);
  /// `toggles` holds gate_count·W words. Lanes >= count are ignored.
  void energies(std::span<const std::uint64_t> toggles, std::size_t count,
                double* e);

  /// The same with toggle(g, k) taken from two gate-major lane arrays (a
  /// pair's two evaluations): toggles = prev ^ cur, which the counter reads
  /// in place. Equal to energies(prev ^ cur, count, e) bit for bit.
  void energies(std::span<const std::uint64_t> prev,
                std::span<const std::uint64_t> cur, std::size_t count,
                double* e);

  /// The counter's two steps, for callers that want the integers
  /// (requires `exact()`): count the toggles into the planes, either stored
  /// toggle words or prev ^ cur read in place...
  void count(std::span<const std::uint64_t> toggles);
  void count(std::span<const std::uint64_t> prev,
             std::span<const std::uint64_t> cur);
  /// ...then read out each lane's quanta, q[k] = Σ_g m_g · toggle(g, k):
  /// its energy in units of 2^-scale() as a two's-complement integer
  /// (nonnegative for nonnegative loads), so e[k] = q[k]·2^-scale()
  /// exactly. Writes whole 64-lane sub-words: q holds 64·ceil(count/64)
  /// words, and those past `count` mean nothing.
  void quanta(std::size_t count, std::uint64_t* q) const;

 private:
  void scatter(std::span<const std::uint64_t> toggles, std::size_t count,
               double* e) const;
  /// e[k] = q_[k]·2^-scale() for k < count, after quanta(count, q_).
  void quanta_to_energies(std::size_t count, double* e);

  const LoadClasses* lc_;
  std::size_t words_;
  detail::Kernels kernels_;
  std::vector<std::uint64_t> planes_;  // plane-major: [p*W, (p+1)*W)
  std::vector<std::uint64_t> q_;       // energies()' quanta, 64·W lanes
  /// prev ^ cur for the scatter fallback (empty when the counter runs).
  std::vector<std::uint64_t> toggles_;
};

}  // namespace hlp::sim
