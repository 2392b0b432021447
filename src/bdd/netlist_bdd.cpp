#include "bdd/netlist_bdd.hpp"

#include <stdexcept>

namespace hlp::bdd {

using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;

NetlistBdds build_bdds(Manager& mgr, const netlist::Netlist& nl) {
  std::vector<std::size_t> identity(nl.inputs().size());
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  return build_bdds_ordered(mgr, nl, identity);
}

std::vector<std::size_t> interleaved_word_order(
    const std::vector<netlist::Word>& input_words) {
  std::vector<std::size_t> order;
  std::size_t base = 0;
  std::vector<std::size_t> starts;
  std::size_t max_w = 0;
  for (const auto& w : input_words) {
    starts.push_back(base);
    base += w.size();
    max_w = std::max(max_w, w.size());
  }
  for (std::size_t bit = 0; bit < max_w; ++bit)
    for (std::size_t w = 0; w < input_words.size(); ++w)
      if (bit < input_words[w].size()) order.push_back(starts[w] + bit);
  return order;
}

std::vector<std::size_t> fanin_dfs_order(const netlist::Netlist& nl) {
  constexpr std::size_t kNotInput = static_cast<std::size_t>(-1);
  std::vector<std::size_t> input_index(nl.gate_count(), kNotInput);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    input_index[nl.inputs()[i]] = i;
  std::vector<char> seen(nl.gate_count(), 0);
  std::vector<std::size_t> order;
  order.reserve(nl.inputs().size());
  // Children are pushed in declaration order, so the last one is popped,
  // and explored, first.
  std::vector<GateId> stack(nl.outputs().begin(), nl.outputs().end());
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    if (seen[g]) continue;
    seen[g] = 1;
    if (input_index[g] != kNotInput) order.push_back(input_index[g]);
    for (GateId f : nl.gate(g).fanins)
      if (!seen[f]) stack.push_back(f);
  }
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    if (!seen[nl.inputs()[i]]) order.push_back(i);
  return order;
}

NodeRef gate_bdd(Manager& mgr, const Gate& g, std::span<const NodeRef> fn) {
  switch (g.kind) {
    case GateKind::Input:
    case GateKind::Dff:
      break;
    case GateKind::Const0:
      return kFalse;
    case GateKind::Const1:
      return kTrue;
    case GateKind::Buf:
      return fn[g.fanins[0]];
    case GateKind::Not:
      return mgr.bdd_not(fn[g.fanins[0]]);
    case GateKind::And:
    case GateKind::Nand: {
      NodeRef r = kTrue;
      for (GateId f : g.fanins) r = mgr.bdd_and(r, fn[f]);
      return g.kind == GateKind::Nand ? mgr.bdd_not(r) : r;
    }
    case GateKind::Or:
    case GateKind::Nor: {
      NodeRef r = kFalse;
      for (GateId f : g.fanins) r = mgr.bdd_or(r, fn[f]);
      return g.kind == GateKind::Nor ? mgr.bdd_not(r) : r;
    }
    case GateKind::Xor:
    case GateKind::Xnor: {
      NodeRef r = kFalse;
      for (GateId f : g.fanins) r = mgr.bdd_xor(r, fn[f]);
      return g.kind == GateKind::Xnor ? mgr.bdd_not(r) : r;
    }
    case GateKind::Mux:
      return mgr.ite(fn[g.fanins[0]], fn[g.fanins[2]], fn[g.fanins[1]]);
  }
  throw std::invalid_argument("gate_bdd: sources map to variables");
}

NetlistBdds build_bdds_ordered(Manager& mgr, const netlist::Netlist& nl,
                               std::span<const std::size_t> input_order) {
  NetlistBdds out;
  out.fn.assign(nl.gate_count(), kFalse);
  out.input_vars.assign(nl.inputs().size(), 0);
  std::uint32_t next_var = 0;
  for (std::size_t k = 0; k < input_order.size(); ++k) {
    GateId g = nl.inputs()[input_order[k]];
    out.input_vars[input_order[k]] = next_var;
    out.fn[g] = mgr.var(next_var);
    ++next_var;
  }
  for (GateId g : nl.dffs()) {
    out.state_vars.push_back(next_var);
    out.fn[g] = mgr.var(next_var);
    ++next_var;
  }
  for (GateId id : nl.topo_order()) {
    const Gate& g = nl.gate(id);
    if (g.kind != GateKind::Input && g.kind != GateKind::Dff)
      out.fn[id] = gate_bdd(mgr, g, out.fn);
  }
  return out;
}

}  // namespace hlp::bdd
