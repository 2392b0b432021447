#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "sim/block_kernels.hpp"

// Included by exactly one translation unit per dispatch level, each compiled
// with its own -m flags; the V traits parameter supplies the register type
// and bitwise ops, so the gate semantics and the toggle counter below are
// written once.

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

template <class V>
Kernels kernels_for() {
  return {&eval_ops<V>, &count_array<V>, &count_pair<V>};
}

}  // namespace hlp::sim::detail
