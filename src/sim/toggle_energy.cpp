#include "sim/toggle_energy.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>

#include "sim/engine.hpp"

namespace hlp::sim {

namespace {

/// Every load finite and of the form m·2^-k for one shared k, with
/// Σ|m| < 2^53: then all sums of products of loads and counts are exact.
bool dyadic_exact(std::span<const double> loads) {
  int k = INT_MIN;  // the finest binary place any load uses
  for (double x : loads) {
    if (!std::isfinite(x)) return false;
    if (x == 0.0) continue;
    int e = 0;
    const double f = std::frexp(std::abs(x), &e);  // |x| = f·2^e
    const auto mant = static_cast<std::uint64_t>(std::ldexp(f, 53));
    k = std::max(k, 53 - e - std::countr_zero(mant));
  }
  if (k == INT_MIN) return true;  // all loads zero
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 53;
  std::uint64_t sum = 0;
  for (double x : loads) {
    const double m = std::ldexp(std::abs(x), k);  // an integer (or inf)
    if (!(m < static_cast<double>(kLimit))) return false;
    sum += static_cast<std::uint64_t>(m);
    if (sum >= kLimit) return false;
  }
  return true;
}

}  // namespace

LoadClasses::LoadClasses(std::span<const double> loads)
    : loads_(loads.begin(), loads.end()), exact_(dyadic_exact(loads)) {
  if (!exact_) return;
  // Zero loads add nothing, so their gates join no class.
  for (std::size_t g = 0; g < loads.size(); ++g)
    if (loads[g] != 0.0) gates_.push_back(static_cast<netlist::GateId>(g));
  std::stable_sort(gates_.begin(), gates_.end(),
                   [&](netlist::GateId a, netlist::GateId b) {
                     return loads[a] < loads[b];
                   });
  std::uint32_t group_planes = 64;  // forces a group at the first class
  for (std::size_t i = 0; i < gates_.size();) {
    std::size_t j = i + 1;
    while (j < gates_.size() && loads[gates_[j]] == loads[gates_[i]]) ++j;
    detail::ToggleClass tc;
    tc.gate_begin = static_cast<std::uint32_t>(i);
    tc.gate_end = static_cast<std::uint32_t>(j);
    tc.plane = n_planes_;
    tc.planes = static_cast<std::uint32_t>(std::bit_width(j - i));
    if (group_planes + tc.planes > 64) {
      groups_.push_back(static_cast<std::uint32_t>(classes_.size()));
      group_planes = 0;
    }
    group_planes += tc.planes;
    n_planes_ += tc.planes;
    classes_.push_back(tc);
    class_load_.push_back(loads[gates_[i]]);
    i = j;
  }
  groups_.push_back(static_cast<std::uint32_t>(classes_.size()));
}

ToggleEnergy::ToggleEnergy(const LoadClasses& classes, int words)
    : lc_(&classes),
      words_(static_cast<std::size_t>(resolve_block_words(words))),
      kernels_(detail::select_kernels(static_cast<int>(words_)).kernels),
      planes_(std::size_t{classes.n_planes_} * words_),
      toggles_(classes.exact_ ? 0 : classes.loads_.size() * words_) {}

void ToggleEnergy::energies(std::span<const std::uint64_t> toggles,
                            std::size_t count, double* e) {
  if (!lc_->exact_) {
    scatter(toggles, count, e);
    return;
  }
  const LoadClasses& lc = *lc_;
  kernels_.count(toggles.data(), static_cast<int>(words_), lc.classes_.data(),
                 lc.classes_.size(), lc.gates_.data(), planes_.data());
  readout(count, e);
}

void ToggleEnergy::energies(std::span<const std::uint64_t> prev,
                            std::span<const std::uint64_t> cur,
                            std::size_t count, double* e) {
  if (!lc_->exact_) {
    for (std::size_t i = 0; i < toggles_.size(); ++i)
      toggles_[i] = prev[i] ^ cur[i];
    scatter(toggles_, count, e);
    return;
  }
  const LoadClasses& lc = *lc_;
  kernels_.count_pair(prev.data(), cur.data(), static_cast<int>(words_),
                      lc.classes_.data(), lc.classes_.size(), lc.gates_.data(),
                      planes_.data());
  readout(count, e);
}

void ToggleEnergy::readout(std::size_t count, double* e) const {
  const LoadClasses& lc = *lc_;
  const std::size_t W = words_;
  std::fill(e, e + count, 0.0);
  for (std::size_t gi = 0; gi + 1 < lc.groups_.size(); ++gi) {
    const std::uint32_t c0 = lc.groups_[gi], c1 = lc.groups_[gi + 1];
    const std::uint32_t p0 = lc.classes_[c0].plane;
    const std::uint32_t p1 =
        c1 < lc.classes_.size() ? lc.classes_[c1].plane : lc.n_planes_;
    for (std::size_t w = 0; w * 64 < count; ++w) {
      // Row r = plane p0+r; after the transpose, word k holds lane k's
      // counts for every class of the group, one bit field per class.
      std::uint64_t m[64] = {};
      for (std::uint32_t r = 0; r < p1 - p0; ++r)
        m[r] = planes_[(p0 + r) * W + w];
      transpose64(m);
      const std::size_t lanes = std::min<std::size_t>(64, count - w * 64);
      double* ew = e + w * 64;
      for (std::uint32_t c = c0; c < c1; ++c) {
        const detail::ToggleClass& tc = lc.classes_[c];
        const std::uint32_t shift = tc.plane - p0;
        const std::uint64_t mask = (std::uint64_t{1} << tc.planes) - 1;
        const double load = lc.class_load_[c];
        for (std::size_t k = 0; k < lanes; ++k) {
          const auto n = static_cast<std::int64_t>((m[k] >> shift) & mask);
          ew[k] += load * static_cast<double>(n);
        }
      }
    }
  }
}

/// Per-gate scatter in ascending gate order: the summation order of the
/// scalar per-pair loop, for load models the counter cannot sum exactly.
void ToggleEnergy::scatter(std::span<const std::uint64_t> toggles,
                           std::size_t count, double* e) const {
  const std::size_t W = words_;
  const std::size_t n = lc_->loads_.size();
  std::fill(e, e + count, 0.0);
  for (std::size_t g = 0; g < n; ++g) {
    for (std::size_t w = 0; w * 64 < count; ++w) {
      const std::size_t c = std::min<std::size_t>(64, count - w * 64);
      const std::uint64_t mask =
          c == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << c) - 1);
      std::uint64_t d = toggles[g * W + w] & mask;
      while (d) {
        e[w * 64 + static_cast<std::size_t>(std::countr_zero(d))] +=
            lc_->loads_[g];
        d &= d - 1;
      }
    }
  }
}

}  // namespace hlp::sim
