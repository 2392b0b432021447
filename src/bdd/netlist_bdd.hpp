#pragma once

#include <span>
#include <vector>

#include "bdd/bdd.hpp"
#include "netlist/netlist.hpp"

namespace hlp::bdd {

/// Symbolic view of a netlist: one BDD per gate, over variables assigned to
/// primary inputs and DFF outputs (present-state lines).
struct NetlistBdds {
  std::vector<NodeRef> fn;  ///< indexed by GateId
  std::vector<std::uint32_t> input_vars;  ///< in primary-input order
  std::vector<std::uint32_t> state_vars;  ///< in DFF order

  NodeRef output(const netlist::Netlist& nl, std::size_t i) const {
    return fn[nl.outputs()[i]];
  }
};

/// BDD of one non-source gate from its fanins' BDDs (`fn` indexed by
/// GateId). Input and Dff gates are sources that the caller maps to
/// variables; passing one throws std::invalid_argument.
NodeRef gate_bdd(Manager& mgr, const netlist::Gate& g,
                 std::span<const NodeRef> fn);

/// Build BDDs for every gate. Variable order: primary inputs first (in
/// declaration order), then DFF outputs. Throws if the netlist has a
/// combinational cycle.
NetlistBdds build_bdds(Manager& mgr, const netlist::Netlist& nl);

/// Build with an explicit primary-input order: `input_order[k]` is the
/// index (into nl.inputs()) of the input assigned BDD variable k. Variable
/// order is the classic lever on BDD size — e.g. interleaving the two
/// operand words of an adder turns its exponential BDD linear.
NetlistBdds build_bdds_ordered(Manager& mgr, const netlist::Netlist& nl,
                               std::span<const std::size_t> input_order);

/// Structural primary-input order for build_bdds_ordered: an iterative
/// depth-first walk from the outputs (last output first, and at each gate
/// last fanin first) lists inputs in first-visit order; inputs the walk
/// never reaches follow in declaration order. Inputs that meet in the same
/// cone end up close together, which keeps word-wise arithmetic and
/// comparators near linear without knowing their word structure (adder:16:
/// 1,147 nodes against 720,791 in declaration order).
std::vector<std::size_t> fanin_dfs_order(const netlist::Netlist& nl);

/// Convenience: interleave the bits of a module's input words
/// (a0,b0,a1,b1,...) — the right order for word-wise arithmetic.
std::vector<std::size_t> interleaved_word_order(
    const std::vector<netlist::Word>& input_words);

}  // namespace hlp::bdd
