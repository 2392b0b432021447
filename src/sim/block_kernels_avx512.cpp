// Compiled with -mavx512f (see src/sim/CMakeLists.txt); only the runtime
// dispatcher in block_simulator.cpp may call into this TU, and only after
// __builtin_cpu_supports("avx512f") succeeds.
#include "sim/block_kernels_impl.hpp"

#if defined(HLP_SIM_HAVE_AVX512)
// GCC 12 reports the `_mm512_undefined_epi32()` pass-through operand of the
// unmasked shift, multiply and permute intrinsics as uninitialized; it is a
// don't-care operand under an all-ones mask.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>

namespace hlp::sim::detail {
namespace {

struct VAvx512 {
  static constexpr int kWords = 8;
  using Reg = __m512i;
  static Reg load(const std::uint64_t* p) {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
  }
  static void store(std::uint64_t* p, Reg v) {
    _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
  }
  static Reg splat(std::uint64_t x) {
    return _mm512_set1_epi64(static_cast<long long>(x));
  }
  static Reg zero() { return _mm512_setzero_si512(); }
  static Reg and_(Reg a, Reg b) { return _mm512_and_si512(a, b); }
  static Reg or_(Reg a, Reg b) { return _mm512_or_si512(a, b); }
  static Reg xor_(Reg a, Reg b) { return _mm512_xor_si512(a, b); }
  static Reg add(Reg a, Reg b) { return _mm512_add_epi64(a, b); }
  static Reg mul32(Reg a, Reg b) { return _mm512_mul_epu32(a, b); }
  static Reg srl(Reg a, int n) {
    return _mm512_srl_epi64(a, _mm_cvtsi32_si128(n));
  }
  template <int N>
  static Reg srli(Reg a) {
    return _mm512_srli_epi64(a, N);
  }
  template <int N>
  static Reg slli(Reg a) {
    return _mm512_slli_epi64(a, N);
  }
  /// Lane k gets lane k ^ J (J = 4, 2, 1).
  template <int J>
  static Reg partner(Reg a) {
    if constexpr (J == 4)
      return _mm512_shuffle_i64x2(a, a, 0x4E);
    else
      return _mm512_permutex_epi64(a, J == 2 ? 0x4E : 0xB1);
  }
  /// Lanes with bit J clear from lo, set from hi.
  template <int J>
  static Reg blend_upper(Reg lo, Reg hi) {
    constexpr __mmask8 upper = J == 4 ? 0xF0 : J == 2 ? 0xCC : 0xAA;
    return _mm512_mask_blend_epi64(upper, lo, hi);
  }
};

}  // namespace

Kernels avx512_kernels() { return kernels_for<VAvx512>(); }

}  // namespace hlp::sim::detail
#endif  // HLP_SIM_HAVE_AVX512
