#include "stats/rng.hpp"

#include <algorithm>

namespace hlp::stats {

void Mt19937_64::seed(result_type s) {
  state_[0] = s;
  for (std::size_t i = 1; i < kN; ++i) {
    const result_type x = state_[i - 1];
    state_[i] = 6364136223846793005ull * (x ^ (x >> 62)) + i;
  }
  pos_ = kN;
}

void Mt19937_64::refill() {
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kA = 0xb5026f5aa96619e9ull;
  auto next = [](result_type hi, result_type lo, result_type far) {
    const result_type y = (hi & kUpper) | (lo & ~kUpper);
    return far ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kA);
  };
  result_type* x = state_.data();
  for (std::size_t i = 0; i < kN - kM; ++i)
    x[i] = next(x[i], x[i + 1], x[i + kM]);
  // The last word pairs with the new x[0]: mirror it past the end, so both
  // halves are even-length loops of one shape.
  x[kN] = x[0];
  for (std::size_t i = kN - kM; i < kN; ++i)
    x[i] = next(x[i], x[i + 1], x[i + kM - kN]);
  for (std::size_t i = 0; i < kN; ++i) {
    result_type y = x[i];
    y ^= (y >> 29) & 0x5555555555555555ull;
    y ^= (y << 17) & 0x71d67fffeda60000ull;
    y ^= (y << 37) & 0xfff7eee000000000ull;
    out_[i] = y ^ (y >> 43);
  }
  pos_ = 0;
}

void Mt19937_64::discard(unsigned long long n) {
  while (n > kN - pos_) {
    n -= kN - pos_;
    refill();
  }
  pos_ += static_cast<std::size_t>(n);
}

void Mt19937_64::fill(std::span<std::uint64_t> out, std::uint64_t mask) {
  std::uint64_t* d = out.data();
  std::size_t left = out.size();
  while (left) {
    if (pos_ == kN) refill();
    const std::size_t n = std::min(kN - pos_, left);
    const result_type* s = out_.data() + pos_;
    for (std::size_t i = 0; i < n; ++i) d[i] = s[i] & mask;
    pos_ += n;
    d += n;
    left -= n;
  }
}

void Rng::fill_packed(std::span<std::uint64_t> out, int width) {
  if (width <= 0) {
    std::fill(out.begin(), out.end(), std::uint64_t{0});
    return;
  }
  engine_.fill(out, width >= 64 ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << width) - 1);
}

}  // namespace hlp::stats
