#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "sim/block_kernels.hpp"

// Included by exactly one translation unit per dispatch level, each compiled
// with its own -m flags; the V traits parameter supplies the register type
// and bitwise ops, so the gate semantics, the toggle counter, its readout
// and the 64x64 transpose below are written once.

namespace hlp::sim::detail {

/// Run all ops over W-word blocks with vector traits V. V::kWords must
/// divide `words`. The Mux test is the one branch per op, and it is taken
/// the same way for every op of a mux-free netlist.
template <class V>
void eval_ops(std::uint64_t* lanes, int words, const BlockOp* ops,
              std::size_t n_ops) {
  const auto W = static_cast<std::size_t>(words);
  const auto mask = [](std::uint32_t form, std::uint32_t bit) {
    return V::splat(std::uint64_t{0} - ((form & bit) != 0));
  };
  for (std::size_t o = 0; o < n_ops; ++o) {
    const BlockOp& op = ops[o];
    std::uint64_t* dst = lanes + std::size_t{op.dst} * W;
    const std::uint64_t* a = lanes + std::size_t{op.a} * W;
    const std::uint64_t* b = lanes + std::size_t{op.b} * W;
    if (op.form & kOpMux) {
      const std::uint64_t* s = lanes + std::size_t{op.s} * W;
      for (int w = 0; w < words; w += V::kWords) {
        const auto av = V::load(a + w);
        V::store(dst + w, V::xor_(av, V::and_(V::load(s + w),
                                              V::xor_(av, V::load(b + w)))));
      }
      continue;
    }
    const auto kx = mask(op.form, kOpXor);
    const auto ka = mask(op.form, kOpAnd);
    const auto inv = mask(op.form, kOpInv);
    for (int w = 0; w < words; w += V::kWords) {
      const auto av = V::load(a + w);
      const auto bv = V::load(b + w);
      V::store(dst + w,
               V::xor_(V::xor_(inv, V::and_(V::xor_(av, bv), kx)),
                       V::and_(V::and_(av, bv), ka)));
    }
  }
}

/// Carry-save adder: (h, l) = a + b + c, bitwise over the lanes.
template <class V>
void csa(typename V::Reg& h, typename V::Reg& l, typename V::Reg a,
         typename V::Reg b, typename V::Reg c) {
  const auto u = V::xor_(a, b);
  h = V::or_(V::and_(a, b), V::and_(u, c));
  l = V::xor_(u, c);
}

/// Toggle operand loads for the counter: one stripe of a gate's toggle
/// words at word offset `off`, either stored toggles or the XOR of two lane
/// arrays (the pair's two evaluations), so Monte Carlo never writes its
/// toggle words out.
template <class V>
struct ToggleArray {
  const std::uint64_t* toggles;
  typename V::Reg operator()(std::size_t off) const {
    return V::load(toggles + off);
  }
};

template <class V>
struct ToggleXor {
  const std::uint64_t* prev;
  const std::uint64_t* cur;
  typename V::Reg operator()(std::size_t off) const {
    return V::xor_(V::load(prev + off), V::load(cur + off));
  }
};

/// Count each class's toggles per lane into vertical bit planes with a
/// Harley–Seal carry-save tree: eight toggle words at a time fold into the
/// one/two/four planes and one carry of weight eight, which ripples into
/// the higher planes. One V::kWords stripe at a time keeps a class's whole
/// counter in registers; a count never exceeds its class's gate count, so
/// its bit_width planes cannot overflow. `load` is ToggleArray or
/// ToggleXor.
template <class V, class Load>
void count_toggles(Load load, int words, const ToggleClass* classes,
                   std::size_t n_classes, const netlist::GateId* gates,
                   std::uint64_t* planes) {
  using Reg = typename V::Reg;
  const auto W = static_cast<std::size_t>(words);
  for (std::size_t c = 0; c < n_classes; ++c) {
    const ToggleClass& tc = classes[c];
    const netlist::GateId* g = gates + tc.gate_begin;
    const std::uint32_t m = tc.gate_end - tc.gate_begin;
    for (int w = 0; w < words; w += V::kWords) {
      auto at = [&](std::uint32_t i) {
        return load(std::size_t{g[i]} * W + static_cast<std::size_t>(w));
      };
      // p[0..2] are the one/two/four planes; p[3..] count eights.
      Reg p[kMaxClassPlanes];
      for (std::uint32_t j = 0; j < tc.planes; ++j) p[j] = V::zero();
      std::uint32_t i = 0;
      for (std::uint32_t q = 1; i + 8 <= m; i += 8, ++q) {
        Reg twos_a, twos_b, fours_a, fours_b, eights;
        csa<V>(twos_a, p[0], p[0], at(i), at(i + 1));
        csa<V>(twos_b, p[0], p[0], at(i + 2), at(i + 3));
        csa<V>(fours_a, p[1], p[1], twos_a, twos_b);
        csa<V>(twos_a, p[0], p[0], at(i + 4), at(i + 5));
        csa<V>(twos_b, p[0], p[0], at(i + 6), at(i + 7));
        csa<V>(fours_b, p[1], p[1], twos_a, twos_b);
        csa<V>(eights, p[2], p[2], fours_a, fours_b);
        // After q groups the eights count is at most q, so the carry dies
        // within bit_width(q) planes.
        const std::uint32_t top = 3 + static_cast<std::uint32_t>(
                                          std::bit_width(q));
        for (std::uint32_t j = 3; j < top; ++j) {
          const Reg s = V::xor_(p[j], eights);
          eights = V::and_(p[j], eights);
          p[j] = s;
        }
      }
      for (; i < m; ++i) {  // the last m % 8 gates ripple in one by one
        Reg carry = at(i);
        for (std::uint32_t j = 0; j < tc.planes; ++j) {
          const Reg s = V::xor_(p[j], carry);
          carry = V::and_(p[j], carry);
          p[j] = s;
        }
      }
      for (std::uint32_t j = 0; j < tc.planes; ++j)
        V::store(planes + (tc.plane + j) * W + w, p[j]);
    }
  }
}

template <class V>
void count_array(const std::uint64_t* toggles, int words,
                 const ToggleClass* classes, std::size_t n_classes,
                 const netlist::GateId* gates, std::uint64_t* planes) {
  count_toggles<V>(ToggleArray<V>{toggles}, words, classes, n_classes, gates,
                   planes);
}

template <class V>
void count_pair(const std::uint64_t* prev, const std::uint64_t* cur,
                int words, const ToggleClass* classes, std::size_t n_classes,
                const netlist::GateId* gates, std::uint64_t* planes) {
  count_toggles<V>(ToggleXor<V>{prev, cur}, words, classes, n_classes, gates,
                   planes);
}

/// One block-swap round of the 64x64 transpose (see sim::transpose64) on
/// 64 rows held V::kWords to a register: exchange bit c+J of row r with bit
/// c of row r+J for every row r whose bit J is clear. Rows J apart sit in
/// different registers when J >= V::kWords; otherwise in the same one,
/// where V's partner<J> brings row r^J alongside row r and blend_upper<J>
/// takes the rows with bit J set from its second operand.
template <class V, int J>
void swap_round(typename V::Reg* m, std::uint64_t mask) {
  constexpr int kRegs = 64 / V::kWords;
  const auto mk = V::splat(mask);
  if constexpr (J >= V::kWords) {
    constexpr int d = J / V::kWords;
    for (int b = 0; b < kRegs; b += 2 * d)
      for (int k = b; k < b + d; ++k) {
        const auto t = V::and_(
            V::xor_(V::template srli<J>(m[k]), m[k + d]), mk);
        m[k] = V::xor_(m[k], V::template slli<J>(t));
        m[k + d] = V::xor_(m[k + d], t);
      }
  } else {
    for (int k = 0; k < kRegs; ++k) {
      // t is the lower row's swap word; its partner copy serves the upper.
      const auto t = V::and_(
          V::xor_(V::template srli<J>(m[k]), V::template partner<J>(m[k])),
          mk);
      m[k] = V::xor_(m[k], V::template blend_upper<J>(
                               V::template slli<J>(t),
                               V::template partner<J>(t)));
    }
  }
}

template <class V>
void transpose_regs(typename V::Reg* m) {
  swap_round<V, 32>(m, 0x00000000FFFFFFFFull);
  swap_round<V, 16>(m, 0x0000FFFF0000FFFFull);
  swap_round<V, 8>(m, 0x00FF00FF00FF00FFull);
  swap_round<V, 4>(m, 0x0F0F0F0F0F0F0F0Full);
  swap_round<V, 2>(m, 0x3333333333333333ull);
  swap_round<V, 1>(m, 0x5555555555555555ull);
}

template <class V>
void transpose(std::uint64_t* m) {
  constexpr int kRegs = 64 / V::kWords;
  typename V::Reg r[kRegs];
  for (int k = 0; k < kRegs; ++k) r[k] = V::load(m + k * V::kWords);
  transpose_regs<V>(r);
  for (int k = 0; k < kRegs; ++k) V::store(m + k * V::kWords, r[k]);
}

/// The counter readout (ReadoutKernelFn): per 64-lane sub-word, each plane
/// group is transposed in registers so that lane k's class counts sit in
/// bit fields of one word, and every class adds field · mult into the
/// lane's accumulator. A count is below 2^32, so the product is one 32x32
/// -> 64-bit multiply per half of mult; the upper half is multiplied only
/// for a mult of 2^32 or more.
template <class V>
void readout(const std::uint64_t* planes, int words,
             const ToggleClass* classes, const std::uint32_t* groups,
             std::size_t n_groups, const std::uint64_t* mult,
             std::size_t count, std::uint64_t* q) {
  using Reg = typename V::Reg;
  constexpr int kRegs = 64 / V::kWords;
  const auto W = static_cast<std::size_t>(words);
  for (std::size_t w = 0; w * 64 < count; ++w) {
    Reg acc[kRegs];
    for (Reg& a : acc) a = V::zero();
    for (std::size_t g = 0; g < n_groups; ++g) {
      const std::uint32_t c0 = groups[g], c1 = groups[g + 1];
      const std::uint32_t p0 = classes[c0].plane;
      const std::uint32_t rows =
          classes[c1 - 1].plane + classes[c1 - 1].planes - p0;
      std::uint64_t m[64];
      for (std::uint32_t r = 0; r < 64; ++r)
        m[r] = r < rows ? planes[(p0 + r) * W + w] : 0;
      Reg t[kRegs];
      for (int k = 0; k < kRegs; ++k) t[k] = V::load(m + k * V::kWords);
      transpose_regs<V>(t);
      for (std::uint32_t c = c0; c < c1; ++c) {
        const ToggleClass& tc = classes[c];
        const int shift = static_cast<int>(tc.plane - p0);
        const Reg mask = V::splat((std::uint64_t{1} << tc.planes) - 1);
        const Reg lo = V::splat(mult[c] & 0xFFFFFFFFu);
        if (mult[c] >> 32) {
          const Reg hi = V::splat(mult[c] >> 32);
          for (int k = 0; k < kRegs; ++k) {
            const Reg f = V::and_(V::srl(t[k], shift), mask);
            acc[k] = V::add(acc[k], V::add(V::mul32(f, lo),
                                           V::template slli<32>(
                                               V::mul32(f, hi))));
          }
        } else {
          for (int k = 0; k < kRegs; ++k)
            acc[k] = V::add(
                acc[k], V::mul32(V::and_(V::srl(t[k], shift), mask), lo));
        }
      }
    }
    for (int k = 0; k < kRegs; ++k)
      V::store(q + w * 64 + static_cast<std::size_t>(k * V::kWords), acc[k]);
  }
}

template <class V>
Kernels kernels_for() {
  return {&eval_ops<V>, &count_array<V>, &count_pair<V>, &readout<V>,
          &transpose<V>};
}

}  // namespace hlp::sim::detail
