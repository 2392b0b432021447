// Compiled with -mavx512f (see src/sim/CMakeLists.txt); only the runtime
// dispatcher in block_simulator.cpp may call into this TU, and only after
// __builtin_cpu_supports("avx512f") succeeds.
#include "sim/block_kernels_impl.hpp"

#if defined(HLP_SIM_HAVE_AVX512)
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
};

}  // namespace

Kernels avx512_kernels() { return kernels_for<VAvx512>(); }

}  // namespace hlp::sim::detail
#endif  // HLP_SIM_HAVE_AVX512
