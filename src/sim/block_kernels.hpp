#pragma once

#include <cstddef>
#include <cstdint>

#include "netlist/netlist.hpp"
#include "sim/engine.hpp"

namespace hlp::sim::detail {

/// One step of the gate-eval kernel (DESIGN.md §5), declared apart from
/// BlockSimulator so the kernel TUs, compiled with different -m flags, see
/// it alone. Each logic gate compiles into ops of one branch-free form over
/// the lane blocks A = lanes[a], B = lanes[b]:
///   lanes[dst] = inv ^ ((A ^ B) & kx) ^ ((A & B) & ka)
/// with the masks kx, ka, inv set by form's kOpXor, kOpAnd, kOpInv bits. An
/// n-ary gate is a chain of n - 1 ops into dst, each after the first
/// reading A = dst. With kOpMux set, lanes[dst] = A ^ (S & (A ^ B)) for
/// S = lanes[s], A = d0, B = d1; `s` is unused otherwise.
struct BlockOp {
  std::uint32_t dst, a, b, s, form;
};
inline constexpr std::uint32_t kOpXor = 1, kOpAnd = 2, kOpInv = 4, kOpMux = 8;

/// Gate-eval kernel: run every op in order over W-word lane blocks. Gate
/// g's lane words live at lanes[g*words .. g*words+words). All kernels
/// compute the same bitwise values; they differ only in how many words one
/// instruction carries, so results are bit-identical across dispatch
/// levels.
using EvalKernelFn = void (*)(std::uint64_t* lanes, int words,
                              const BlockOp* ops, std::size_t n_ops);

/// One load class of the toggle counter: the gates
/// gates[gate_begin .. gate_end) share one load, and their per-lane toggle
/// count is written as `planes` vertical bit planes (bit j of the count in
/// plane `plane + j`); planes = bit_width(gate_end - gate_begin).
struct ToggleClass {
  std::uint32_t gate_begin;
  std::uint32_t gate_end;
  std::uint32_t plane;
  std::uint32_t planes;
};

/// Most planes one class can need: a count of up to 2^32 - 1 gates.
inline constexpr std::uint32_t kMaxClassPlanes = 32;

/// Toggle-count kernel: for every class, count per lane how many of its
/// gates toggled and store the counts bit-sliced, plane p's W words at
/// planes[p*words .. p*words+words). Gate g's toggle words live at
/// toggles[g*words .. g*words+words). Integer counts, so every dispatch
/// level stores identical planes.
using CountKernelFn = void (*)(const std::uint64_t* toggles, int words,
                               const ToggleClass* classes,
                               std::size_t n_classes,
                               const netlist::GateId* gates,
                               std::uint64_t* planes);

/// The same counter over the toggles of two gate-major lane arrays: gate
/// g's toggle words are prev[g*words + w] ^ cur[g*words + w], read in place.
using CountPairKernelFn = void (*)(const std::uint64_t* prev,
                                   const std::uint64_t* cur, int words,
                                   const ToggleClass* classes,
                                   std::size_t n_classes,
                                   const netlist::GateId* gates,
                                   std::uint64_t* planes);

/// In-place 64x64 bit-matrix transpose (sim::transpose64's contract): bit
/// c of m[r] moves to bit r of m[c]. Every level moves the same bits.
using TransposeKernelFn = void (*)(std::uint64_t* m);

/// The counter's readout: per-lane quanta from the bit planes the count
/// kernels stored. For every 64-lane sub-word w with w·64 < count, lane
/// l = w·64 + k gets q[l] = Σ_c mult[c] · count_c(l) modulo 2^64, where
/// count_c(l) is class c's toggle count, read from its planes. Classes
/// [groups[i], groups[i+1]) span at most 64 planes and are read through one
/// transpose per sub-word. Sub-words are written whole (64 lanes each), so
/// q holds 64·ceil(count/64) words. Integer arithmetic, so every dispatch
/// level stores identical quanta; a `mult` in two's complement gives the
/// signed sum.
using ReadoutKernelFn = void (*)(const std::uint64_t* planes, int words,
                                 const ToggleClass* classes,
                                 const std::uint32_t* groups,
                                 std::size_t n_groups,
                                 const std::uint64_t* mult, std::size_t count,
                                 std::uint64_t* q);

struct Kernels {
  EvalKernelFn eval;
  CountKernelFn count;
  CountPairKernelFn count_pair;
  ReadoutKernelFn readout;
  TransposeKernelFn transpose;
};

/// Always available; any W >= 1.
Kernels portable_kernels();
/// Compiled only when the toolchain has -mavx2 (HLP_SIM_HAVE_AVX2);
/// requires W % 4 == 0 and a CPU with AVX2.
Kernels avx2_kernels();
/// Compiled only when the toolchain has -mavx512f (HLP_SIM_HAVE_AVX512);
/// requires W % 8 == 0 and a CPU with AVX-512F.
Kernels avx512_kernels();

struct KernelChoice {
  Kernels kernels;
  SimDispatch dispatch;
};

/// The widest kernels `active_dispatch()` allows for a W-word block.
KernelChoice select_kernels(int words);

}  // namespace hlp::sim::detail
