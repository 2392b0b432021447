#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>

namespace hlp::stats {

/// MT19937-64 with the seeding, output stream and `discard` of
/// `std::mt19937_64`, and a standard uniform random bit generator, so the
/// std distributions and `std::shuffle` draw exactly what they drew from
/// the std engine. Each refill twists the 312-word state and tempers all of
/// it in two fixed-length passes the compiler vectorises; `fill`, the bulk
/// path, then copies masked outputs instead of making one call and one
/// refill test per word.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type default_seed = 5489u;

  explicit Mt19937_64(result_type s = default_seed) { seed(s); }
  void seed(result_type s);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ == kN) refill();
    return out_[pos_++];
  }

  /// Skip `n` outputs.
  void discard(unsigned long long n);

  /// out[k] = the k-th of out.size() successive outputs, ANDed with `mask`.
  void fill(std::span<std::uint64_t> out, std::uint64_t mask);

 private:
  static constexpr std::size_t kN = 312;  // state words
  static constexpr std::size_t kM = 156;  // twist offset

  /// Twist all kN state words and temper them into out_; the next output
  /// is out_[0].
  void refill();

  std::array<result_type, kN + 1> state_{};  // [kN] mirrors [0] in refill
  std::array<result_type, kN> out_{};  // tempered state_, read from pos_
  std::size_t pos_ = kN;
};
static_assert(std::uniform_random_bit_generator<Mt19937_64>);

/// Deterministic random source used throughout the library.
///
/// Every experiment in the repository takes an explicit seed so results are
/// reproducible run-to-run; no component ever reads a global RNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

  /// Bernoulli draw: true with probability `p` (clamped to [0,1]).
  bool bit(double p = 0.5) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Uniform integer in [lo, hi], inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform unsigned value with `bits` random low-order bits.
  std::uint64_t uniform_bits(int bits) {
    if (bits <= 0) return 0;
    std::uint64_t v = engine_();
    return bits >= 64 ? v : (v & ((std::uint64_t{1} << bits) - 1));
  }

  /// Bulk vectors: out[k] equals the k-th of out.size() successive
  /// uniform_bits(width) draws, so a block consumer sees exactly the vector
  /// sequence a scalar caller would draw one at a time (and, like
  /// uniform_bits, width <= 0 gives zeros without drawing).
  void fill_packed(std::span<std::uint64_t> out, int width);

  /// Uniform real in [lo, hi).
  double uniform_real(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Normal draw.
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Exponential draw with the given mean (not rate).
  double exponential_mean(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Pareto (heavy-tail) draw with minimum `xm` and shape `alpha`.
  double pareto(double xm, double alpha) {
    double u = uniform_real(1e-12, 1.0);
    return xm / std::pow(u, 1.0 / alpha);
  }

  /// Geometric draw (number of failures before first success), p in (0,1].
  std::int64_t geometric(double p) {
    return std::geometric_distribution<std::int64_t>(p)(engine_);
  }

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

/// Decorrelated per-shard seed for a parallel campaign: shard k of a run
/// seeded `base` uses Rng(shard_seed(base, k)). The splitmix64 finalizer
/// over a golden-ratio stride gives well-mixed, collision-resistant seeds
/// that depend only on (base, shard) — never on thread count or schedule —
/// so sharded runs are reproducible under any decomposition.
inline std::uint64_t shard_seed(std::uint64_t base, std::uint64_t shard) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (shard + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace hlp::stats
