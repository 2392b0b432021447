#include "stats/exact_moments.hpp"

#include <bit>
#include <cmath>

#include "stats/descriptive.hpp"

namespace hlp::stats {

namespace {

/// A nonnegative integer below 2^512, little-endian 64-bit limbs. Callers
/// keep every value in range: the widest product below is under 2^370.
struct Big {
  static constexpr int kLimbs = 8;
  std::uint64_t w[kLimbs] = {};
};

Big big(u128 x) {
  Big r;
  r.w[0] = static_cast<std::uint64_t>(x);
  r.w[1] = static_cast<std::uint64_t>(x >> 64);
  return r;
}

Big mul(const Big& a, const Big& b) {
  Big r;
  for (int i = 0; i < Big::kLimbs; ++i) {
    if (a.w[i] == 0) continue;
    u128 carry = 0;
    for (int j = 0; i + j < Big::kLimbs; ++j) {
      const u128 t = static_cast<u128>(a.w[i]) * b.w[j] + r.w[i + j] + carry;
      r.w[i + j] = static_cast<std::uint64_t>(t);
      carry = t >> 64;
    }
  }
  return r;
}

/// a − b for a >= b.
Big sub(const Big& a, const Big& b) {
  Big r;
  std::uint64_t borrow = 0;
  for (int i = 0; i < Big::kLimbs; ++i) {
    const std::uint64_t d = a.w[i] - b.w[i];
    r.w[i] = d - borrow;
    borrow = (a.w[i] < b.w[i]) || (d < borrow) ? 1 : 0;
  }
  return r;
}

Big shl(const Big& a, int s) {
  Big r;
  const int limbs = s / 64, bits = s % 64;
  for (int i = Big::kLimbs - 1; i >= limbs; --i) {
    std::uint64_t v = a.w[i - limbs] << bits;
    if (bits && i - limbs > 0) v |= a.w[i - limbs - 1] >> (64 - bits);
    r.w[i] = v;
  }
  return r;
}

int bit_width(const Big& a) {
  for (int i = Big::kLimbs - 1; i >= 0; --i)
    if (a.w[i]) return 64 * i + static_cast<int>(std::bit_width(a.w[i]));
  return 0;
}

int compare(const Big& a, const Big& b) {
  for (int i = Big::kLimbs - 1; i >= 0; --i)
    if (a.w[i] != b.w[i]) return a.w[i] < b.w[i] ? -1 : 1;
  return 0;
}

bool is_zero(const Big& a) { return bit_width(a) == 0; }

/// A double no larger than a: its top 64 bits, truncated, times 2^shift.
double to_double_down(const Big& a) {
  const int bw = bit_width(a);
  if (bw <= 64) return static_cast<double>(a.w[0]) * (1.0 - 0x1p-50);
  const int shift = bw - 64, limb = shift / 64, bits = shift % 64;
  std::uint64_t top = a.w[limb] >> bits;
  if (bits) top |= a.w[limb + 1] << (64 - bits);
  return std::ldexp(static_cast<double>(top) * (1.0 - 0x1p-50), shift);
}

/// num / den · 2^exp2 rounded once to the nearest double (den > 0): a
/// 64-bit quotient with the remainder jammed into its last bit, so the one
/// conversion to double rounds as the exact ratio would.
double ratio(Big num, Big den, int exp2) {
  const int bn = bit_width(num);
  if (bn == 0) return 0.0;
  // Align so the quotient lies in [2^63, 2^65).
  const int s = 64 + bit_width(den) - bn;
  if (s >= 0)
    num = shl(num, s);
  else
    den = shl(den, -s);
  u128 q = 0;
  for (int i = 64; i >= 0; --i) {
    const Big t = shl(den, i);
    if (compare(t, num) <= 0) {
      num = sub(num, t);
      q |= static_cast<u128>(1) << i;
    }
  }
  std::uint64_t sticky = is_zero(num) ? 0 : 1;
  int adj = 0;
  if (q >> 64) {
    sticky |= static_cast<std::uint64_t>(q & 1);
    q >>= 1;
    adj = 1;
  }
  const auto top = static_cast<std::uint64_t>(q) | sticky;
  return std::ldexp(static_cast<double>(top), exp2 - s + adj);
}

/// x = m·2^e exactly, m an integer below 2^53.
void decompose(double x, std::uint64_t& m, int& e) {
  int fe = 0;
  const double f = std::frexp(x, &fe);
  m = static_cast<std::uint64_t>(std::ldexp(f, 53));
  e = fe - 53;
}

}  // namespace

bool ExactMoments::plausible() const {
  const u128 max_q = 0xFFFFFFFFu;
  if (s1_ > max_q * n_) return false;
  const Big n = big(n_);
  return compare(mul(big(s1_), big(s1_)), mul(n, big(s2_))) <= 0;
}

double ExactMoments::mean(int scale) const {
  if (n_ == 0) return 0.0;
  return ratio(big(s1_), big(n_), -scale);
}

double ExactMoments::ci_halfwidth(double confidence, int scale) const {
  if (n_ < 2) return 0.0;
  const Big n = big(n_);
  const Big d = sub(mul(n, big(s2_)), mul(big(s1_), big(s1_)));
  const Big den = mul(mul(n, n), big(n_ - 1));
  const double v = ratio(d, den, 0);
  return std::ldexp(normal_quantile_two_sided(confidence) * std::sqrt(v),
                    -scale);
}

RelativeCiRule::RelativeCiRule(double epsilon, double confidence) {
  if (!(epsilon >= 0.0)) return;  // NaN or negative: Never
  const double z = normal_quantile_two_sided(confidence);
  if (std::isinf(epsilon)) {
    infinite_ = true;
    mode_ = Mode::Exact;
    return;
  }
  z2_ = z * z;
  e2_ = epsilon * epsilon;
  decompose(z, mz_, ez_);
  decompose(epsilon, me_, ee_);
  // The filter's error bound needs squares that neither underflow nor come
  // near overflow once multiplied by sums up to 2^256.
  auto tame = [](double x) { return x >= 0x1p-900 && x <= 0x1p500; };
  mode_ = tame(z2_) && (e2_ == 0.0 || tame(e2_)) ? Mode::Filter : Mode::Exact;
}

std::uint64_t RelativeCiRule::next_candidate(const ExactMoments& m,
                                             std::uint64_t q_max) const {
  constexpr std::uint64_t kNever = UINT64_MAX;
  if (mode_ == Mode::Never) return kNever;
  const std::uint64_t n = m.count();
  if (mode_ != Mode::Filter || n == 0 || q_max == 0 || n == kNever)
    return n + 1;
  // D = n·S2 − S1² >= 0, rounded down.
  const Big d = sub(mul(big(n), big(m.s2())), mul(big(m.s1()), big(m.s1())));
  if (is_zero(d)) return n + 1;
  if (e2_ == 0.0) return kNever;  // ε = 0 needs D = 0 again
  // Adding q to the sums adds S2 + n·q² − 2·S1·q >= D/n to D (the least
  // is at q = S1/n), so after t more values D' >= D·(n + t)/n, while
  // S1' <= S1 + t·Q and n' − 1 < n + t. The rule
  // z²·D' <= ε²·S1'²·(n' − 1) therefore fails while
  //   z²·D·(n + t)/n > ε²·(S1 + t·Q)²·(n + t),
  // i.e. for every t < ((z/ε)·sqrt(D/n) − S1)/Q. The margins cover the
  // roundings of the double computation many times over.
  const double q = static_cast<double>(q_max);
  const double reach =
      std::sqrt(z2_ * to_double_down(d) / (e2_ * static_cast<double>(n)));
  constexpr double kDown = 1.0 - 0x1p-40, kUp = 1.0 + 0x1p-40;
  const double t = (reach * kDown - approx(m.s1()) * kUp) / q * kDown - 1.0;
  if (!(t >= 1.0)) return n + 1;
  if (t >= static_cast<double>(kNever - n)) return kNever;
  return n + 1 + static_cast<std::uint64_t>(t);
}

bool RelativeCiRule::exact(const ExactMoments& m) const {
  if (infinite_) return true;
  const Big n = big(m.count());
  const Big s1sq = mul(big(m.s1()), big(m.s1()));
  const Big d = sub(mul(n, big(m.s2())), s1sq);  // >= 0 (Cauchy–Schwarz)
  const Big lhs = mul(mul(big(mz_), big(mz_)), d);
  const Big rhs = mul(mul(mul(big(me_), big(me_)), s1sq), big(m.count() - 1));
  // lhs·2^(2·ez) <= rhs·2^(2·ee)?
  const int bl = bit_width(lhs), br = bit_width(rhs);
  if (bl == 0) return true;
  if (br == 0) return false;
  const int shift = 2 * (ez_ - ee_);
  if (bl + shift != br) return bl + shift < br;
  return shift >= 0 ? compare(shl(lhs, shift), rhs) <= 0
                    : compare(lhs, shl(rhs, -shift)) <= 0;
}

}  // namespace hlp::stats
