#pragma once

// Scalar reference loops for the differential tests. Each drives the
// public sim::Simulator one pattern at a time, in the semantics every
// packed path (stream sweeps, characterization, Monte Carlo at every block
// width and dispatch level) must reproduce bit for bit.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/macromodel.hpp"
#include "core/sampling_power.hpp"
#include "sim/simulator.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace hlp::scalar_ref {

/// Per-gate zero-delay activities of a cycle-by-cycle sweep (one
/// set/eval/record/tick per stream word); `out`, when given, receives the
/// primary-output stream.
inline std::vector<double> activities(
    const netlist::Netlist& nl, const stats::VectorStream& in,
    stats::VectorStream* out = nullptr) {
  sim::Simulator s(nl);
  sim::ActivityCollector col(nl);
  if (out) {
    out->width = static_cast<int>(nl.outputs().size());
    out->words.clear();
  }
  for (std::uint64_t w : in.words) {
    s.set_all_inputs(w);
    s.eval();
    col.record(s);
    if (out) out->words.push_back(s.output_bits());
    s.tick();
  }
  return col.activities();
}

/// core::characterize, cycle by cycle: each transition's energy is the sum
/// of the loads of the gates that toggled, in ascending gate order.
inline core::ModuleCharacterization characterize(
    const netlist::Module& mod, const stats::VectorStream& in,
    const netlist::CapacitanceModel& cap = {}) {
  const auto& nl = mod.netlist;
  core::ModuleCharacterization chr;
  chr.n_in = mod.total_input_bits();
  chr.n_out = mod.total_output_bits();
  chr.total_cap = nl.total_capacitance(cap);
  const auto loads = nl.loads(cap);
  sim::Simulator s(nl);
  std::vector<bool> prev(nl.gate_count());
  std::uint64_t prev_out = 0;
  for (std::size_t t = 0; t < in.words.size(); ++t) {
    s.set_all_inputs(in.words[t]);
    s.eval();
    const std::uint64_t out = s.output_bits();
    if (t > 0) {
      double e = 0.0;
      for (netlist::GateId g = 0; g < nl.gate_count(); ++g)
        if (s.value(g) != prev[g]) e += loads[g];
      const std::uint64_t cur = in.words[t], before = in.words[t - 1];
      std::vector<double> toggles(static_cast<std::size_t>(chr.n_in));
      for (int i = 0; i < chr.n_in; ++i)
        toggles[static_cast<std::size_t>(i)] =
            static_cast<double>(((cur ^ before) >> i) & 1u);
      chr.energy.push_back(e);
      chr.pin_toggle.push_back(std::move(toggles));
      chr.in_activity.push_back(
          static_cast<double>(std::popcount(cur ^ before)) / chr.n_in);
      chr.in_prob.push_back(static_cast<double>(std::popcount(cur)) /
                            chr.n_in);
      chr.out_activity.push_back(
          static_cast<double>(std::popcount(out ^ prev_out)) /
          std::max(1, chr.n_out));
      chr.cur_word.push_back(cur);
      chr.prev_word.push_back(before);
    }
    prev_out = out;
    for (netlist::GateId g = 0; g < nl.gate_count(); ++g) prev[g] = s.value(g);
    s.tick();
  }
  return chr;
}

/// One vector pair's switched capacitance: evaluate v1, then v2, and sum
/// the loads of the gates that differ, in ascending gate order. Registers
/// are never clocked, so every pair sees them at `dff_init`.
class PairEnergy {
 public:
  explicit PairEnergy(const netlist::Netlist& nl,
                      const netlist::CapacitanceModel& cap = {})
      : nl_(nl), s_(nl), loads_(nl.loads(cap)), prev_(nl.gate_count()) {}

  double operator()(std::uint64_t v1, std::uint64_t v2) {
    s_.set_all_inputs(v1);
    s_.eval();
    for (netlist::GateId g = 0; g < nl_.gate_count(); ++g)
      prev_[g] = s_.value(g);
    s_.set_all_inputs(v2);
    s_.eval();
    double e = 0.0;
    for (netlist::GateId g = 0; g < nl_.gate_count(); ++g)
      if (s_.value(g) != prev_[g]) e += loads_[g];
    return e;
  }

 private:
  const netlist::Netlist& nl_;
  sim::Simulator s_;
  std::vector<double> loads_;
  std::vector<bool> prev_;
};

/// Monte Carlo's integer form, kept naively. When every load is a
/// nonnegative m·2^-k with Σm < 2^32 (k the finest binary place any load
/// uses), a pair's energy is the integer q = e·2^k, and the run keeps n,
/// S1 = Σq and S2 = Σq². Loads that fail the check keep Welford's moments
/// instead.
class PairMoments {
 public:
  __extension__ typedef unsigned __int128 u128;

  explicit PairMoments(const std::vector<double>& loads) {
    int k = -64;  // smallest k with every load·2^k an integer
    auto integral = [&](int kk) {
      for (double x : loads)
        if (std::ldexp(x, kk) != std::floor(std::ldexp(x, kk))) return false;
      return true;
    };
    while (k <= 1100 && !integral(k)) ++k;
    double sum = 0.0;
    for (double x : loads) {
      if (!(x >= 0.0) || !std::isfinite(x)) return;
      sum += std::ldexp(x, k);
    }
    if (k > 1100 || !(sum < 0x1p32)) return;
    exact_ = true;
    scale_ = sum == 0.0 ? 0 : k;
  }

  bool exact() const { return exact_; }
  std::size_t count() const { return exact() ? n_ : rs_.count(); }

  void add(double e) {
    if (!exact()) {
      rs_.add(e);
      return;
    }
    const double q = std::ldexp(e, scale_);
    ++n_;
    s1_ += static_cast<std::uint64_t>(q);
    s2_ += static_cast<u128>(static_cast<std::uint64_t>(q)) *
           static_cast<std::uint64_t>(q);
  }
  void merge(const PairMoments& o) {
    n_ += o.n_;
    s1_ += o.s1_;
    s2_ += o.s2_;
    rs_.merge(o.rs_);
  }

  /// Half-width <= epsilon · mean with mean > 0 at 95%: on the integer form
  /// z²·(n·S2 − S1²) <= ε²·S1²·(n − 1), decided in exact integers.
  bool converged(double epsilon) const {
    if (!exact()) {
      const double hw = stats::ci_halfwidth(rs_, 0.95);
      return rs_.mean() > 0.0 && hw <= epsilon * rs_.mean();
    }
    return rule_holds(n_, s1_, s2_, epsilon);
  }

  /// The integer rule for sums n, S1, S2 (n·S2 >= S1²) at 95%.
  static bool rule_holds(std::uint64_t n, u128 s1, u128 s2, double epsilon) {
    if (s1 == 0 || !(epsilon >= 0.0)) return false;
    if (std::isinf(epsilon)) return true;
    int ez = 0, ee = 0;
    const std::uint64_t mz = mantissa(z(), ez), me = mantissa(epsilon, ee);
    Big lhs = Big(mz) * Big(mz) * (Big(n) * Big(s2) - Big(s1) * Big(s1));
    Big rhs = Big(me) * Big(me) * Big(s1) * Big(s1) * Big(n - 1);
    // lhs·2^(2·ez) <= rhs·2^(2·ee)
    if (ez > ee) lhs = lhs << 2 * (ez - ee);
    else rhs = rhs << 2 * (ee - ez);
    return !(rhs < lhs);
  }

  /// num / den rounded once to the nearest double: long division one bit
  /// at a time until the quotient has 56 bits, the remainder jammed into
  /// its last bit.
  static double ratio(u128 num, u128 den) {
    if (num == 0) return 0.0;
    u128 q = num / den, r = num % den;
    int e = 0;
    while (q >> 55 == 0) {
      r <<= 1;
      q = q << 1 | (r >= den ? 1 : 0);
      if (r >= den) r -= den;
      --e;
    }
    return std::ldexp(static_cast<double>(q | (r ? 1 : 0)), e);
  }

  /// Mean and half-width, each computed once from the final moments.
  void finish(core::MonteCarloResult& res) const {
    res.pairs = count();
    if (!exact()) {
      res.mean_energy = rs_.mean();
      res.ci_halfwidth = stats::ci_halfwidth(rs_, 0.95);
      res.checkpoint = {};
      res.checkpoint.count = rs_.count();
      res.checkpoint.mean = rs_.mean();
      res.checkpoint.m2 = rs_.m2();
      return;
    }
    res.mean_energy = n_ ? std::ldexp(ratio(s1_, n_), -scale_) : 0.0;
    res.ci_halfwidth = 0.0;
    if (n_ >= 2) {
      // v = (n·S2 − S1²) / (n²·(n − 1)); the test sizes keep both in range.
      const u128 d = n_ * s2_ - s1_ * s1_;
      const u128 den = static_cast<u128>(n_) * n_ * (n_ - 1);
      res.ci_halfwidth = std::ldexp(z() * std::sqrt(ratio(d, den)), -scale_);
    }
    res.checkpoint = {};
    res.checkpoint.form = core::MonteCarloCheckpoint::Form::Exact;
    res.checkpoint.count = n_;
    res.checkpoint.scale = scale_;
    res.checkpoint.s1 = s1_;
    res.checkpoint.s2 = s2_;
  }

 private:
  static double z() { return stats::normal_quantile_two_sided(0.95); }
  static std::uint64_t mantissa(double x, int& e) {
    const double f = std::frexp(x, &e);
    e -= 53;
    return static_cast<std::uint64_t>(std::ldexp(f, 53));
  }

  /// Unbounded nonnegative integer, 32-bit limbs, little-endian.
  struct Big {
    std::vector<std::uint64_t> d;
    Big(u128 x = 0) {
      for (; x; x >>= 32) d.push_back(static_cast<std::uint32_t>(x));
    }
    Big operator*(const Big& o) const {
      Big r;
      r.d.assign(d.size() + o.d.size() + 1, 0);
      for (std::size_t i = 0; i < d.size(); ++i)
        for (std::size_t j = 0; j < o.d.size(); ++j) {
          r.d[i + j] += d[i] * o.d[j];
          for (std::size_t t = i + j; r.d[t] >> 32; ++t) {
            r.d[t + 1] += r.d[t] >> 32;
            r.d[t] &= 0xFFFFFFFFu;
          }
        }
      return r.trim();
    }
    Big operator-(const Big& o) const {  // *this >= o
      Big r = *this;
      std::int64_t borrow = 0;
      for (std::size_t i = 0; i < r.d.size(); ++i) {
        std::int64_t v = static_cast<std::int64_t>(r.d[i]) - borrow -
                         (i < o.d.size() ? static_cast<std::int64_t>(o.d[i])
                                         : 0);
        borrow = v < 0;
        r.d[i] = static_cast<std::uint64_t>(v + (borrow << 32));
      }
      return r.trim();
    }
    Big operator<<(int s) const {
      Big r = *this;
      for (; s > 0; s -= 100) r = r * Big(u128{1} << std::min(s, 100));
      return r;
    }
    bool operator<(const Big& o) const {
      if (d.size() != o.d.size()) return d.size() < o.d.size();
      for (std::size_t i = d.size(); i-- > 0;)
        if (d[i] != o.d[i]) return d[i] < o.d[i];
      return false;
    }
    Big& trim() {
      while (!d.empty() && d.back() == 0) d.pop_back();
      return *this;
    }
  };

  bool exact_ = false;
  int scale_ = 0;
  std::uint64_t n_ = 0;
  u128 s1_ = 0, s2_ = 0;
  stats::RunningStats rs_;
};

/// Monte Carlo one pair at a time with the plain stop rule, evaluated for
/// every pair past min_pairs, on the integer moments when the loads allow
/// and on Welford's otherwise.
inline core::MonteCarloResult plain_rule_monte_carlo(
    const netlist::Module& mod, const std::function<std::uint64_t()>& gen,
    double epsilon, std::size_t min_pairs, std::size_t max_pairs,
    const netlist::CapacitanceModel& cap = {}) {
  PairEnergy pair(mod.netlist, cap);
  PairMoments m(mod.netlist.loads(cap));
  core::MonteCarloResult res;
  while (m.count() < max_pairs) {
    const std::uint64_t v1 = gen();
    m.add(pair(v1, gen()));
    if (m.count() >= min_pairs && m.converged(epsilon)) {
      res.converged = true;
      break;
    }
  }
  m.finish(res);
  res.stop_reason = res.converged
                        ? core::MonteCarloResult::StopReason::Converged
                        : core::MonteCarloResult::StopReason::
                              MaxPairsExhausted;
  return res;
}

/// The same, drawing `rng.uniform_bits(total_input_bits)` from Rng(seed).
inline core::MonteCarloResult plain_rule_monte_carlo(
    const netlist::Module& mod, std::uint64_t seed, double epsilon,
    std::size_t min_pairs, std::size_t max_pairs) {
  stats::Rng rng(seed);
  const int n_in = mod.total_input_bits();
  return plain_rule_monte_carlo(
      mod, [&] { return rng.uniform_bits(n_in); }, epsilon, min_pairs,
      max_pairs);
}

/// core::monte_carlo_power_sharded without early stopping, one chunk after
/// another: chunk c draws its pairs from Rng(shard_seed(seed, c)) and the
/// chunk moments merge in chunk order.
inline core::MonteCarloResult sharded_monte_carlo(
    const netlist::Module& mod, std::uint64_t seed, std::size_t total_pairs,
    std::size_t chunk_pairs) {
  PairEnergy pair(mod.netlist);
  const int n_in = mod.total_input_bits();
  const std::vector<double> loads = mod.netlist.loads({});
  PairMoments merged(loads);
  for (std::size_t c = 0; c * chunk_pairs < total_pairs; ++c) {
    stats::Rng rng(stats::shard_seed(seed, c));
    PairMoments rc(loads);
    const std::size_t begin = c * chunk_pairs;
    for (std::size_t k = begin; k < std::min(begin + chunk_pairs, total_pairs);
         ++k) {
      const std::uint64_t v1 = rng.uniform_bits(n_in);
      rc.add(pair(v1, rng.uniform_bits(n_in)));
    }
    merged.merge(rc);
  }
  core::MonteCarloResult res;
  merged.finish(res);
  res.stop_reason = core::MonteCarloResult::StopReason::MaxPairsExhausted;
  return res;
}

}  // namespace hlp::scalar_ref
