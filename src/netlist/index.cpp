#include "netlist/index.hpp"

#include <algorithm>
#include <stdexcept>

namespace hlp::netlist {

NetlistIndex build_index(const Netlist& nl, const CapacitanceModel& cap) {
  const auto n = static_cast<GateId>(nl.gate_count());
  NetlistIndex ix;

  // Degree counting pass, then a placement pass: CSR without intermediate
  // per-gate vectors.
  ix.fanout_count.assign(n, 0);
  std::vector<std::uint32_t> comb_count(n, 0);
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = nl.gate(id);
    const bool logic = is_logic(g.kind);
    for (GateId f : g.fanins) {
      ++ix.fanout_count[f];
      if (logic) ++comb_count[f];
    }
  }
  ix.fanout_offset.assign(n + 1, 0);
  ix.comb_fanout_offset.assign(n + 1, 0);
  for (GateId id = 0; id < n; ++id) {
    ix.fanout_offset[id + 1] = ix.fanout_offset[id] + ix.fanout_count[id];
    ix.comb_fanout_offset[id + 1] = ix.comb_fanout_offset[id] + comb_count[id];
  }
  ix.fanout_edges.resize(ix.fanout_offset[n]);
  ix.comb_fanout_edges.resize(ix.comb_fanout_offset[n]);
  {
    std::vector<std::uint32_t> cur(ix.fanout_offset.begin(),
                                   ix.fanout_offset.end() - 1);
    std::vector<std::uint32_t> ccur(ix.comb_fanout_offset.begin(),
                                    ix.comb_fanout_offset.end() - 1);
    for (GateId id = 0; id < n; ++id) {
      const Gate& g = nl.gate(id);
      const bool logic = is_logic(g.kind);
      for (GateId f : g.fanins) {
        ix.fanout_edges[cur[f]++] = id;
        if (logic) ix.comb_fanout_edges[ccur[f]++] = id;
      }
    }
  }

  // Kahn over the combinational edges; a cycle simply leaves its gates out
  // of the order (acyclic = false) instead of throwing.
  ix.topo.reserve(n);
  ix.topo_rank.assign(n, NetlistIndex::kNoRank);
  ix.level.assign(n, 0);
  std::vector<std::uint32_t> pending(n, 0);
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = nl.gate(id);
    if (is_logic(g.kind))
      pending[id] = static_cast<std::uint32_t>(g.fanins.size());
  }
  // Two-pointer BFS over the topo vector itself keeps the order identical
  // to a queue-based Kahn (sources in id order, then by dependency wave).
  // Sources are the gates with no combinational fanin: inputs, constants,
  // DFF outputs and logic gates without fanins (empty reductions).
  for (GateId id = 0; id < n; ++id)
    if (pending[id] == 0) ix.topo.push_back(id);
  for (std::size_t head = 0; head < ix.topo.size(); ++head) {
    GateId id = ix.topo[head];
    // level[id] is final here: every combinational fanin of id was popped
    // (and propagated its level) before id's pending count reached zero.
    for (GateId s : ix.comb_fanouts(id)) {
      int lvl = ix.level[id] + 1;
      if (lvl > ix.level[s]) ix.level[s] = lvl;
      if (lvl > ix.depth) ix.depth = lvl;
      if (--pending[s] == 0) ix.topo.push_back(s);
    }
  }
  for (std::size_t r = 0; r < ix.topo.size(); ++r)
    ix.topo_rank[ix.topo[r]] = static_cast<std::uint32_t>(r);
  ix.acyclic = ix.topo.size() == n;

  // Loads, reusing the fanout counts already in hand.
  ix.load.assign(n, 0.0);
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = nl.gate(id);
    const double pin =
        g.kind == GateKind::Dff ? cap.dff_pin_cap : cap.input_pin_cap;
    for (GateId f : g.fanins) ix.load[f] += pin;
  }
  ix.total_load = 0.0;
  for (GateId id = 0; id < n; ++id) {
    ix.load[id] += cap.output_self_cap +
                   cap.wire_cap_per_fanout *
                       static_cast<double>(ix.fanout_count[id]) +
                   nl.gate(id).extra_cap;
    ix.total_load += ix.load[id];
  }
  return ix;
}

NetlistIndex build_acyclic_index(const Netlist& nl,
                                 const CapacitanceModel& cap) {
  NetlistIndex ix = build_index(nl, cap);
  if (!ix.acyclic)
    throw std::logic_error("Netlist: combinational cycle detected");
  return ix;
}

}  // namespace hlp::netlist
