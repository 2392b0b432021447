#pragma once

#include <cstdint>
#include <span>

namespace hlp::stats {

/// Unsigned 128-bit integer (a GCC/Clang builtin).
__extension__ typedef unsigned __int128 u128;

/// Running moments of a stream of integers q < 2^32, kept exactly: the
/// count n, S1 = Σq and S2 = Σq². Adding, merging and restoring never
/// round, so the state depends only on the multiset of values, never on how
/// the stream was split or in what order the parts were merged. For any
/// n < 2^64, S1 < 2^96 and S2 < 2^128.
///
/// Monte Carlo power estimation feeds it a pair's energy in units of 2^-k
/// (`sim::LoadClasses::scale()`); `mean` and `ci_halfwidth` take that k
/// back out.
class ExactMoments {
 public:
  /// Inline: Monte Carlo calls it once per pair. q must be below 2^32.
  void add(std::uint64_t q) {
    ++n_;
    s1_ += q;
    s2_ += q * q;
  }
  /// add() of each value in order, with the sums kept in registers.
  void add(std::span<const std::uint64_t> qs) {
    u128 s1 = s1_, s2 = s2_;
    for (const std::uint64_t q : qs) {
      s1 += q;
      s2 += q * q;
    }
    n_ += qs.size();
    s1_ = s1;
    s2_ = s2;
  }
  void merge(const ExactMoments& other) {
    n_ += other.n_;
    s1_ += other.s1_;
    s2_ += other.s2_;
  }

  std::uint64_t count() const { return n_; }
  u128 s1() const { return s1_; }
  u128 s2() const { return s2_; }
  static ExactMoments restore(std::uint64_t n, u128 s1, u128 s2) {
    ExactMoments m;
    m.n_ = n;
    m.s1_ = s1;
    m.s2_ = s2;
    return m;
  }
  /// True when some stream of n values below 2^32 could have these sums as
  /// far as the bounds tell: S1 <= n·(2^32 − 1) and S1² <= n·S2 (Cauchy–
  /// Schwarz). Restored state should pass before it is added to.
  bool plausible() const;

  /// S1 / n · 2^-scale, rounded once to the nearest double; 0 when n = 0.
  double mean(int scale) const;
  /// The normal-approximation half-width of the mean's confidence
  /// interval, z · sqrt(v) · 2^-scale with v = (n·S2 − S1²) / (n²·(n−1))
  /// rounded once to the nearest double; 0 when n < 2.
  double ci_halfwidth(double confidence, int scale) const;

  bool operator==(const ExactMoments&) const = default;

 private:
  std::uint64_t n_ = 0;
  u128 s1_ = 0;
  u128 s2_ = 0;
};

/// The relative confidence-interval stop rule on exact moments: the mean's
/// half-width at `confidence` is at most `epsilon` times a positive mean,
///   S1 > 0  and  z²·(n·S2 − S1²) ≤ ε²·S1²·(n − 1),
/// decided exactly for the real values of the doubles z and ε, with no
/// divide. A double-precision filter decides whenever its error bound
/// allows (everywhere but within a few ulps of the boundary); otherwise an
/// exact wide-integer comparison does. Scale-free: multiplying every q by
/// 2^k changes neither side's sign. A NaN or negative ε never holds.
class RelativeCiRule {
 public:
  RelativeCiRule(double epsilon, double confidence);

  /// Inline: Monte Carlo tests it after every pair past `min_pairs`.
  /// A pair count below which the rule cannot hold again, given that it
  /// fails on m and that no later value exceeds q_max: a caller may skip
  /// the test until then and stops on the same pair. Always > m.count().
  /// The bound rests on two facts: adding a value multiplies n·S2 − S1² by
  /// at least (n + 1)/n, and S1 grows by at most q_max per value.
  std::uint64_t next_candidate(const ExactMoments& m,
                               std::uint64_t q_max) const;

  bool operator()(const ExactMoments& m) const {
    if (mode_ == Mode::Never || m.s1() == 0) return false;
    if (mode_ == Mode::Filter) {
      // Every operand is within 3 ulps of its exact value and each side
      // rounds a few more times, far less than the 2^-48 relative slack.
      const double n = static_cast<double>(m.count());
      const double s1 = approx(m.s1());
      const double a = n * approx(m.s2());
      const double b = s1 * s1;
      const double lhs = z2_ * (a - b);
      const double rhs = e2_ * (b * (n - 1.0));
      const double slack = 0x1p-48 * (z2_ * (a + b) + rhs);
      if (lhs > rhs + slack) return false;
      if (lhs < rhs - slack) return true;
    }
    return exact(m);
  }

 private:
  enum class Mode : std::uint8_t { Never, Filter, Exact };
  static double approx(u128 x) {
    const auto hi = static_cast<std::uint64_t>(x >> 64);
    const auto lo = static_cast<std::uint64_t>(x);
    return hi ? static_cast<double>(hi) * 0x1p64 + static_cast<double>(lo)
              : static_cast<double>(lo);
  }
  /// The comparison in integers: z = Mz·2^Ez and ε = Me·2^Ee exactly.
  bool exact(const ExactMoments& m) const;

  Mode mode_ = Mode::Never;
  double z2_ = 0.0, e2_ = 0.0;
  std::uint64_t mz_ = 0, me_ = 0;
  int ez_ = 0, ee_ = 0;
  bool infinite_ = false;  ///< ε = +inf: any positive mean stops
};

}  // namespace hlp::stats
