// Compiled with -mavx2 (see src/sim/CMakeLists.txt); only the runtime
// dispatcher in block_simulator.cpp may call into this TU, and only after
// __builtin_cpu_supports("avx2") succeeds.
#include "sim/block_kernels_impl.hpp"

#if defined(HLP_SIM_HAVE_AVX2)
#include <immintrin.h>

namespace hlp::sim::detail {
namespace {

struct VAvx2 {
  static constexpr int kWords = 4;
  using Reg = __m256i;
  static Reg load(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint64_t* p, Reg v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Reg splat(std::uint64_t x) {
    return _mm256_set1_epi64x(static_cast<long long>(x));
  }
  static Reg zero() { return _mm256_setzero_si256(); }
  static Reg and_(Reg a, Reg b) { return _mm256_and_si256(a, b); }
  static Reg or_(Reg a, Reg b) { return _mm256_or_si256(a, b); }
  static Reg xor_(Reg a, Reg b) { return _mm256_xor_si256(a, b); }
  static Reg add(Reg a, Reg b) { return _mm256_add_epi64(a, b); }
  static Reg mul32(Reg a, Reg b) { return _mm256_mul_epu32(a, b); }
  static Reg srl(Reg a, int n) {
    return _mm256_srl_epi64(a, _mm_cvtsi32_si128(n));
  }
  template <int N>
  static Reg srli(Reg a) {
    return _mm256_srli_epi64(a, N);
  }
  template <int N>
  static Reg slli(Reg a) {
    return _mm256_slli_epi64(a, N);
  }
  /// Lane k gets lane k ^ J (J = 2, 1).
  template <int J>
  static Reg partner(Reg a) {
    return _mm256_permute4x64_epi64(a, J == 2 ? 0x4E : 0xB1);
  }
  /// Lanes with bit J clear from lo, set from hi (a 32-bit-element blend).
  template <int J>
  static Reg blend_upper(Reg lo, Reg hi) {
    return _mm256_blend_epi32(lo, hi, J == 2 ? 0xF0 : 0xCC);
  }
};

}  // namespace

Kernels avx2_kernels() { return kernels_for<VAvx2>(); }

}  // namespace hlp::sim::detail
#endif  // HLP_SIM_HAVE_AVX2
