#include "sim/block_kernels_impl.hpp"

namespace hlp::sim::detail {
namespace {

struct VPortable {
  static constexpr int kWords = 1;
  using Reg = std::uint64_t;
  static Reg load(const std::uint64_t* p) { return *p; }
  static void store(std::uint64_t* p, Reg v) { *p = v; }
  static Reg splat(std::uint64_t x) { return x; }
  static Reg zero() { return 0; }
  static Reg and_(Reg a, Reg b) { return a & b; }
  static Reg or_(Reg a, Reg b) { return a | b; }
  static Reg xor_(Reg a, Reg b) { return a ^ b; }
  static Reg add(Reg a, Reg b) { return a + b; }
  static Reg mul32(Reg a, Reg b) {
    return (a & 0xFFFFFFFFu) * (b & 0xFFFFFFFFu);
  }
  static Reg srl(Reg a, int n) { return a >> n; }
  template <int N>
  static Reg srli(Reg a) {
    return a >> N;
  }
  template <int N>
  static Reg slli(Reg a) {
    return a << N;
  }
};

}  // namespace

Kernels portable_kernels() { return kernels_for<VPortable>(); }

}  // namespace hlp::sim::detail
