#include "sim/toggle_energy.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>

#include "sim/engine.hpp"

namespace hlp::sim {

namespace {

__extension__ typedef unsigned __int128 u128;

/// Distinct nonzero loads in first-seen order, found through an
/// open-addressing table on their bit patterns (equal nonzero doubles have
/// equal bits), so each gate costs one hash probe instead of a sort step.
class DistinctLoads {
 public:
  /// The index of x in values(), added if new.
  std::uint32_t index(double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    if (2 * (values_.size() + 1) > slots_.size()) grow();
    std::size_t i = slot(bits);
    while (slots_[i] != kEmpty) {
      if (keys_[i] == bits) return slots_[i];
      i = (i + 1) & (slots_.size() - 1);
    }
    keys_[i] = bits;
    slots_[i] = static_cast<std::uint32_t>(values_.size());
    values_.push_back(x);
    return slots_[i];
  }
  const std::vector<double>& values() const { return values_; }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;
  std::size_t slot(std::uint64_t bits) const {
    return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ull) >>
                                    (64 - std::countr_zero(slots_.size())));
  }
  void grow() {
    const std::size_t n = slots_.empty() ? 64 : 2 * slots_.size();
    slots_.assign(n, kEmpty);
    keys_.assign(n, 0);
    for (std::uint32_t v = 0; v < values_.size(); ++v) {
      const auto bits = std::bit_cast<std::uint64_t>(values_[v]);
      std::size_t i = slot(bits);
      while (slots_[i] != kEmpty) i = (i + 1) & (n - 1);
      keys_[i] = bits;
      slots_[i] = v;
    }
  }
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint64_t> keys_;
  std::vector<double> values_;
};

}  // namespace

LoadClasses::LoadClasses(std::span<const double> loads)
    : loads_(loads.begin(), loads.end()) {
  // Bucket the gates by load: zero loads add nothing, so their gates join
  // no class, and a non-finite load fails the check outright.
  constexpr std::uint32_t kNone = UINT32_MAX;
  DistinctLoads distinct;
  std::vector<std::uint32_t> id(loads.size(), kNone);
  for (std::size_t g = 0; g < loads.size(); ++g) {
    if (!std::isfinite(loads[g])) return;
    if (loads[g] != 0.0) id[g] = distinct.index(loads[g]);
  }
  const std::vector<double>& values = distinct.values();

  // The dyadic check, once per distinct load: k is the finest binary place
  // any load uses, and Σ|m| over all gates must stay below 2^53.
  int k = INT_MIN;
  for (double x : values) {
    int e = 0;
    const double f = std::frexp(std::abs(x), &e);  // |x| = f·2^e
    const auto mant = static_cast<std::uint64_t>(std::ldexp(f, 53));
    k = std::max(k, 53 - e - std::countr_zero(mant));
  }
  if (k == INT_MIN) k = 0;  // every load zero
  constexpr double kLimit = 0x1p53;
  std::vector<std::uint32_t> order(values.size());  // ascending load
  for (std::uint32_t v = 0; v < order.size(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return values[a] < values[b];
  });
  std::vector<std::uint32_t> rank(values.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  std::vector<std::uint32_t> size(values.size() + 1, 0);
  for (std::uint32_t v : id)
    if (v != kNone) ++size[rank[v] + 1];
  u128 total = 0;
  bool nonnegative = true;
  mult_.resize(values.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) {
    const double x = values[order[r]];
    const double m = std::ldexp(std::abs(x), k);  // an integer (or inf)
    if (!(m < kLimit)) return;
    const auto mi = static_cast<std::uint64_t>(m);
    total += static_cast<u128>(mi) * size[r + 1];
    if (total >= static_cast<u128>(1) << 53) return;
    nonnegative = nonnegative && x > 0.0;
    mult_[r] = x < 0.0 ? std::uint64_t{0} - mi : mi;
  }
  exact_ = true;
  scale_ = k;
  total_ = static_cast<std::uint64_t>(total);
  narrow_ = nonnegative && total < (static_cast<u128>(1) << 32);

  // Counting sort: class-major in ascending load, gates ascending within.
  for (std::size_t r = 1; r < size.size(); ++r) size[r] += size[r - 1];
  gates_.resize(size.back());
  for (std::size_t g = 0; g < loads.size(); ++g)
    if (id[g] != kNone)
      gates_[size[rank[id[g]]]++] = static_cast<netlist::GateId>(g);
  std::uint32_t group_planes = 64;  // forces a group at the first class
  std::uint32_t begin = 0;
  for (std::uint32_t r = 0; r < order.size(); ++r) {
    const std::uint32_t end = size[r];  // now the class's end offset
    detail::ToggleClass tc;
    tc.gate_begin = begin;
    tc.gate_end = end;
    tc.plane = n_planes_;
    tc.planes = static_cast<std::uint32_t>(std::bit_width(end - begin));
    if (group_planes + tc.planes > 64) {
      groups_.push_back(static_cast<std::uint32_t>(classes_.size()));
      group_planes = 0;
    }
    group_planes += tc.planes;
    n_planes_ += tc.planes;
    classes_.push_back(tc);
    begin = end;
  }
  groups_.push_back(static_cast<std::uint32_t>(classes_.size()));
}

ToggleEnergy::ToggleEnergy(const LoadClasses& classes, int words)
    : lc_(&classes),
      words_(static_cast<std::size_t>(resolve_block_words(words))),
      kernels_(detail::select_kernels(static_cast<int>(words_)).kernels),
      planes_(std::size_t{classes.n_planes_} * words_),
      q_(classes.exact_ ? 64 * words_ : 0),
      toggles_(classes.exact_ ? 0 : classes.loads_.size() * words_) {}

void ToggleEnergy::count(std::span<const std::uint64_t> toggles) {
  const LoadClasses& lc = *lc_;
  kernels_.count(toggles.data(), static_cast<int>(words_), lc.classes_.data(),
                 lc.classes_.size(), lc.gates_.data(), planes_.data());
}

void ToggleEnergy::count(std::span<const std::uint64_t> prev,
                         std::span<const std::uint64_t> cur) {
  const LoadClasses& lc = *lc_;
  kernels_.count_pair(prev.data(), cur.data(), static_cast<int>(words_),
                      lc.classes_.data(), lc.classes_.size(), lc.gates_.data(),
                      planes_.data());
}

void ToggleEnergy::quanta(std::size_t count, std::uint64_t* q) const {
  const LoadClasses& lc = *lc_;
  kernels_.readout(planes_.data(), static_cast<int>(words_),
                   lc.classes_.data(), lc.groups_.data(), lc.groups_.size() - 1,
                   lc.mult_.data(), count, q);
}

void ToggleEnergy::quanta_to_energies(std::size_t count, double* e) {
  quanta(count, q_.data());
  // |q| < 2^53, so both the conversion and the power-of-two scaling are
  // exact.
  const double unit = std::ldexp(1.0, -lc_->scale_);
  for (std::size_t k = 0; k < count; ++k)
    e[k] = static_cast<double>(static_cast<std::int64_t>(q_[k])) * unit;
}

void ToggleEnergy::energies(std::span<const std::uint64_t> toggles,
                            std::size_t count, double* e) {
  if (!lc_->exact_) {
    scatter(toggles, count, e);
    return;
  }
  this->count(toggles);
  quanta_to_energies(count, e);
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
  this->count(prev, cur);
  quanta_to_energies(count, e);
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
