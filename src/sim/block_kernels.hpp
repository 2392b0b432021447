#pragma once

#include <cstddef>
#include <cstdint>

#include "netlist/netlist.hpp"

namespace hlp::sim::detail {

/// Flattened topo-ordered gate op shared by every block kernel, declared
/// apart from BlockSimulator so the kernel translation units (compiled with
/// different -m flags) can see it without pulling in the simulator class.
struct BlockOp {
  netlist::GateKind kind;
  netlist::GateId gate;
  std::uint32_t fanin_begin;
  std::uint32_t fanin_end;
};

/// Gate-eval kernel: settle every op over W-word lane blocks. Gate g's lane
/// words live at lanes[g*words .. g*words+words). All kernels compute the
/// same bitwise values; they differ only in how many words one instruction
/// carries, so results are bit-identical across dispatch levels.
using EvalKernelFn = void (*)(std::uint64_t* lanes, int words,
                              const BlockOp* ops, std::size_t n_ops,
                              const netlist::GateId* fanins);

/// Always available; any W >= 1.
EvalKernelFn portable_kernel();
/// Compiled only when the toolchain has -mavx2 (HLP_SIM_HAVE_AVX2);
/// requires W % 4 == 0 and a CPU with AVX2.
EvalKernelFn avx2_kernel();
/// Compiled only when the toolchain has -mavx512f (HLP_SIM_HAVE_AVX512);
/// requires W % 8 == 0 and a CPU with AVX-512F.
EvalKernelFn avx512_kernel();

}  // namespace hlp::sim::detail
