#include "fsm/encoding.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace hlp::fsm {
namespace {

int bits_for(std::size_t n_states) {
  int b = 1;
  while ((std::size_t{1} << b) < n_states) ++b;
  return b;
}

/// Incremental cost of state s having code c, against current assignment.
double state_cost(const MarkovAnalysis& ma,
                  const std::vector<std::uint64_t>& codes, std::size_t s,
                  std::uint64_t c) {
  double cost = 0.0;
  const std::size_t n = codes.size();
  for (std::size_t t = 0; t < n; ++t) {
    if (t == s) continue;
    double p = ma.state_prob[s] * ma.cond[s][t] +
               ma.state_prob[t] * ma.cond[t][s];
    if (p > 0.0)
      cost += p * static_cast<double>(std::popcount(c ^ codes[t]));
  }
  return cost;
}

}  // namespace

int encoding_bits(EncodingStyle style, std::size_t n_states) {
  if (style == EncodingStyle::OneHot) return static_cast<int>(n_states);
  return bits_for(n_states);
}

std::vector<std::uint64_t> encode_states(const Stg& stg, EncodingStyle style,
                                         const MarkovAnalysis* ma,
                                         std::uint64_t seed) {
  const std::size_t n = stg.num_states();
  std::vector<std::uint64_t> codes(n);
  switch (style) {
    case EncodingStyle::Binary:
      for (std::size_t i = 0; i < n; ++i) codes[i] = i;
      break;
    case EncodingStyle::Gray:
      for (std::size_t i = 0; i < n; ++i) codes[i] = i ^ (i >> 1);
      break;
    case EncodingStyle::OneHot:
      for (std::size_t i = 0; i < n; ++i) codes[i] = std::uint64_t{1} << i;
      break;
    case EncodingStyle::Random: {
      stats::Rng rng(seed);
      std::size_t space = std::size_t{1} << bits_for(n);
      std::vector<std::uint64_t> pool(space);
      std::iota(pool.begin(), pool.end(), std::uint64_t{0});
      std::shuffle(pool.begin(), pool.end(), rng.engine());
      for (std::size_t i = 0; i < n; ++i) codes[i] = pool[i];
      break;
    }
    case EncodingStyle::LowPower: {
      if (!ma)
        throw std::invalid_argument(
            "encode_states: LowPower needs a MarkovAnalysis");
      for (std::size_t i = 0; i < n; ++i) codes[i] = i;
      codes = reencode_low_power(stg, *ma, std::move(codes), bits_for(n),
                                 seed);
      break;
    }
  }
  return codes;
}

std::vector<std::uint64_t> reencode_low_power(
    const Stg& stg, const MarkovAnalysis& ma,
    std::vector<std::uint64_t> codes, int bits, std::uint64_t seed,
    int iterations) {
  (void)stg;
  const std::size_t n = codes.size();
  if (n < 2) return codes;
  stats::Rng rng(seed);
  const std::size_t space = std::size_t{1} << bits;

  // Track which codes are free (for move proposals).
  std::vector<bool> used(space, false);
  for (std::uint64_t c : codes) used[static_cast<std::size_t>(c)] = true;
  std::vector<std::uint64_t> free_codes;
  for (std::size_t c = 0; c < space; ++c)
    if (!used[c]) free_codes.push_back(c);

  double cur = expected_code_switching(ma, codes);
  double temp = std::max(0.5, cur * 0.2);
  const double cooling =
      std::pow(1e-3 / temp, 1.0 / std::max(1, iterations));

  for (int it = 0; it < iterations; ++it, temp *= cooling) {
    bool do_move = !free_codes.empty() && rng.bit(0.3);
    if (do_move) {
      // Move one state to an unused code.
      auto s = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      auto fi = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(free_codes.size()) - 1));
      std::uint64_t nc = free_codes[fi];
      double delta = state_cost(ma, codes, s, nc) -
                     state_cost(ma, codes, s, codes[s]);
      if (delta <= 0.0 || rng.uniform_real() < std::exp(-delta / temp)) {
        std::swap(free_codes[fi], codes[s]);  // nc -> codes[s], old -> pool
        cur += delta;
      }
    } else {
      // Swap the codes of two states.
      auto a = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      auto b = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (a == b) continue;
      double before = state_cost(ma, codes, a, codes[a]) +
                      state_cost(ma, codes, b, codes[b]);
      std::swap(codes[a], codes[b]);
      double after = state_cost(ma, codes, a, codes[a]) +
                     state_cost(ma, codes, b, codes[b]);
      double delta = after - before;
      if (delta <= 0.0 || rng.uniform_real() < std::exp(-delta / temp)) {
        cur += delta;
      } else {
        std::swap(codes[a], codes[b]);  // reject
      }
    }
  }
  return codes;
}

}  // namespace hlp::fsm
