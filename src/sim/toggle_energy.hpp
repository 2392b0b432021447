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
/// The counter sums per-class toggle counts (`e = Σ_c load_c · count_c`)
/// instead of adding each toggling gate's load in ascending gate order. The
/// two agree bit for bit when every load is finite and equals `m·2^-k` for
/// one k with `Σ|load|·2^k < 2^53`: every product and partial sum is then
/// an integer multiple of 2^-k below 2^53 of them, so no addition rounds
/// and the summation order cannot show. The default `CapacitanceModel`
/// (quarter-unit loads) passes; a load model that fails the check makes
/// `ToggleEnergy` scatter per gate instead, with the same results as before.
class LoadClasses {
 public:
  explicit LoadClasses(std::span<const double> loads);

  /// Per-gate loads, as given.
  std::span<const double> loads() const { return loads_; }
  /// True when the dyadic check passed and the bit-sliced counter runs.
  bool exact() const { return exact_; }
  /// Distinct nonzero loads (0 on the fallback path).
  std::size_t class_count() const { return classes_.size(); }
  /// Total counter bit planes over all classes.
  std::size_t plane_count() const { return n_planes_; }

 private:
  friend class ToggleEnergy;
  std::vector<double> loads_;        // per gate
  std::vector<double> class_load_;   // per class
  std::vector<detail::ToggleClass> classes_;
  std::vector<netlist::GateId> gates_;  // class-major, ascending within
  /// Readout groups: classes [groups_[i], groups_[i+1]) span <= 64 planes,
  /// one transpose64 per group and 64-lane sub-word.
  std::vector<std::uint32_t> groups_;
  std::uint32_t n_planes_ = 0;
  bool exact_ = false;
};

/// Per-lane switched-capacitance energy of one W-word lane block, from
/// gate-major toggle words (bit k of word w of gate g set = gate g toggled
/// in lane w·64+k). Holds the private counter planes, so each thread needs
/// its own; the `LoadClasses` it reads may be shared and must outlive it.
/// The counter kernel follows the block engine's dispatch (`active_dispatch`
/// and the width), and every level gives identical results.
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

 private:
  /// Lane energies from the counter planes.
  void readout(std::size_t count, double* e) const;
  void scatter(std::span<const std::uint64_t> toggles, std::size_t count,
               double* e) const;

  const LoadClasses* lc_;
  std::size_t words_;
  detail::Kernels kernels_;
  std::vector<std::uint64_t> planes_;  // plane-major: [p*W, (p+1)*W)
  /// prev ^ cur for the scatter fallback (empty when the counter runs).
  std::vector<std::uint64_t> toggles_;
};

}  // namespace hlp::sim
