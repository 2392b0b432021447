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
};

}  // namespace

Kernels avx2_kernels() { return kernels_for<VAvx2>(); }

}  // namespace hlp::sim::detail
#endif  // HLP_SIM_HAVE_AVX2
