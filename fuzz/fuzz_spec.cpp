#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/netlist_bdd.hpp"
#include "fsm/benchmarks.hpp"
#include "jobs/kernels.hpp"

/// libFuzzer entry point for the design-spec grammar a campaign file or a
/// serve request names its design with ("adder:8", "random:12:80:6:3",
/// "fir:16", "dma", ...). The contract: any string either builds a design
/// or throws std::invalid_argument naming the spec — no other exception, no
/// crash, no hang. A netlist that does build must be acyclic, fit a 64-bit
/// simulation vector, and give the symbolic kernel's fanin-DFS variable
/// order as a permutation of its inputs.
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string spec(reinterpret_cast<const char*>(data), size);

  try {
    const hlp::netlist::Module mod = hlp::jobs::make_module(spec);
    if (mod.total_input_bits() > 64) __builtin_trap();
    (void)mod.netlist.topo_order();  // throws std::logic_error on a cycle
    std::vector<std::size_t> order = hlp::bdd::fanin_dfs_order(mod.netlist);
    if (order.size() != mod.netlist.inputs().size()) __builtin_trap();
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < order.size(); ++i)
      if (order[i] != i) __builtin_trap();  // not a permutation
  } catch (const std::invalid_argument&) {
  }

  try {
    (void)hlp::jobs::make_cdfg(spec);
  } catch (const std::invalid_argument&) {
  }

  try {
    (void)hlp::fsm::controller_by_name(spec);
  } catch (const std::invalid_argument&) {
  }
  return 0;
}
