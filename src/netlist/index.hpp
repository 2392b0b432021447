#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace hlp::netlist {

/// Precomputed structural views of one netlist: the one place where
/// topological order, logic levels, fanouts and loads are computed.
/// Netlist::topo_order()/loads()/depth(), the simulators, the lint rules and
/// the static analyses all read these views. All arrays are indexed by
/// GateId; fanout adjacency is CSR (offset + edge arrays) instead of
/// vector-of-vectors, so building the index is a few linear passes and zero
/// per-gate allocations.
///
/// The index is a snapshot: it does not observe later structural edits to
/// the netlist. Rebuild after mutation.
struct NetlistIndex {
  /// Kahn topological order over combinational edges (sources — inputs,
  /// constants, DFF outputs — first, in id order, then by dependency
  /// wave). On a cyclic netlist this holds only the gates reachable without
  /// entering a cycle and `acyclic` is false; build_index never throws, so
  /// diagnostics passes can keep running on malformed input.
  std::vector<GateId> topo;
  /// topo_rank[g] = position of g in `topo` (kNoRank for gates a cycle
  /// excluded from the order).
  std::vector<std::uint32_t> topo_rank;
  bool acyclic = false;

  /// CSR fanout adjacency over *all* fanin references (DFF D-pins
  /// included): consumers of g are fanout_edges[fanout_offset[g] ..
  /// fanout_offset[g+1]). Edge order is ascending consumer id.
  std::vector<std::uint32_t> fanout_offset;
  std::vector<GateId> fanout_edges;
  /// Combinational-only subset (logic consumers; a DFF D-pin is a
  /// sequential sink, not a combinational edge — the edge set topo uses).
  std::vector<std::uint32_t> comb_fanout_offset;
  std::vector<GateId> comb_fanout_edges;

  /// fanout_count[g] = total fanin references to g (== degree in
  /// fanout_edges).
  std::vector<std::uint32_t> fanout_count;

  /// Logic level (max #logic gates on any source-to-g path); 0 for
  /// sources. Valid only when `acyclic`.
  std::vector<int> level;
  /// Logic depth: the largest `level`. Valid only when `acyclic`.
  int depth = 0;

  /// Capacitive load per gate output under the model the index was built
  /// with, plus their sum (excludes the clock network).
  std::vector<double> load;
  double total_load = 0.0;

  static constexpr std::uint32_t kNoRank = 0xffffffffu;

  std::span<const GateId> fanouts(GateId g) const {
    return {fanout_edges.data() + fanout_offset[g],
            fanout_edges.data() + fanout_offset[g + 1]};
  }
  std::span<const GateId> comb_fanouts(GateId g) const {
    return {comb_fanout_edges.data() + comb_fanout_offset[g],
            comb_fanout_edges.data() + comb_fanout_offset[g + 1]};
  }
};

/// Build every view in O(V + E). Safe on malformed netlists as long as all
/// fanin references are in range (callers that admit dangling references —
/// the linter — must check NL-REF first).
NetlistIndex build_index(const Netlist& nl, const CapacitanceModel& cap = {});

/// build_index for passes that need the complete order (simulators,
/// estimators): throws std::logic_error on a combinational cycle.
NetlistIndex build_acyclic_index(const Netlist& nl,
                                 const CapacitanceModel& cap = {});

}  // namespace hlp::netlist
