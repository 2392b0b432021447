#include "netlist/netlist.hpp"

#include <cassert>
#include <stdexcept>

#include "netlist/index.hpp"
#include "util/hash.hpp"

namespace hlp::netlist {

bool is_logic(GateKind k) {
  switch (k) {
    case GateKind::Input:
    case GateKind::Const0:
    case GateKind::Const1:
    case GateKind::Dff:
      return false;
    default:
      return true;
  }
}

const char* kind_name(GateKind k) {
  switch (k) {
    case GateKind::Input: return "input";
    case GateKind::Const0: return "const0";
    case GateKind::Const1: return "const1";
    case GateKind::Buf: return "buf";
    case GateKind::Not: return "not";
    case GateKind::And: return "and";
    case GateKind::Or: return "or";
    case GateKind::Nand: return "nand";
    case GateKind::Nor: return "nor";
    case GateKind::Xor: return "xor";
    case GateKind::Xnor: return "xnor";
    case GateKind::Mux: return "mux";
    case GateKind::Dff: return "dff";
  }
  return "?";
}

bool eval_gate(GateKind kind, std::span<const std::uint8_t> v) {
  switch (kind) {
    case GateKind::Const0: return false;
    case GateKind::Const1: return true;
    case GateKind::Buf: return v[0];
    case GateKind::Not: return !v[0];
    case GateKind::And: {
      for (std::uint8_t b : v)
        if (!b) return false;
      return true;
    }
    case GateKind::Or: {
      for (std::uint8_t b : v)
        if (b) return true;
      return false;
    }
    case GateKind::Nand: {
      for (std::uint8_t b : v)
        if (!b) return true;
      return false;
    }
    case GateKind::Nor: {
      for (std::uint8_t b : v)
        if (b) return false;
      return true;
    }
    case GateKind::Xor: {
      bool r = false;
      for (std::uint8_t b : v) r ^= b;
      return r;
    }
    case GateKind::Xnor: {
      bool r = true;
      for (std::uint8_t b : v) r ^= b;
      return r;
    }
    case GateKind::Mux:
      return v[0] ? v[2] : v[1];
    case GateKind::Input:
    case GateKind::Dff:
      throw std::logic_error("eval_gate: kind has no combinational function");
  }
  return false;
}

GateId Netlist::add_input(std::string_view name) {
  GateId id = static_cast<GateId>(gates_.size());
  gates_.push_back({GateKind::Input, {}, std::string(name), 0.0});
  inputs_.push_back(id);
  return id;
}

GateId Netlist::add_const(bool value) {
  GateId id = static_cast<GateId>(gates_.size());
  gates_.push_back(
      {value ? GateKind::Const1 : GateKind::Const0, {}, {}, 0.0});
  return id;
}

GateId Netlist::add_gate(GateKind kind, std::span<const GateId> fanins,
                         std::string_view name) {
  assert(is_logic(kind));
  GateId id = static_cast<GateId>(gates_.size());
  Gate g;
  g.kind = kind;
  g.fanins.assign(fanins.begin(), fanins.end());
  g.name = std::string(name);
  gates_.push_back(std::move(g));
  return id;
}

GateId Netlist::add_unary(GateKind kind, GateId a, std::string_view name) {
  GateId f[1] = {a};
  return add_gate(kind, f, name);
}

GateId Netlist::add_binary(GateKind kind, GateId a, GateId b,
                           std::string_view name) {
  GateId f[2] = {a, b};
  return add_gate(kind, f, name);
}

GateId Netlist::add_mux(GateId sel, GateId d0, GateId d1,
                        std::string_view name) {
  GateId f[3] = {sel, d0, d1};
  return add_gate(GateKind::Mux, f, name);
}

GateId Netlist::add_dff(GateId d, bool init, std::string_view name) {
  GateId id = static_cast<GateId>(gates_.size());
  Gate g;
  g.kind = GateKind::Dff;
  if (d != kNullGate) g.fanins.push_back(d);
  g.name = std::string(name);
  gates_.push_back(std::move(g));
  dffs_.push_back(id);
  dff_inits_.push_back(init);
  return id;
}

void Netlist::set_dff_input(GateId dff, GateId d) {
  assert(gates_[dff].kind == GateKind::Dff);
  gates_[dff].fanins.assign(1, d);
}

bool Netlist::dff_init(GateId dff) const {
  for (std::size_t i = 0; i < dffs_.size(); ++i)
    if (dffs_[i] == dff) return dff_inits_[i];
  return false;
}

void Netlist::mark_output(GateId g, std::string_view name) {
  outputs_.push_back(g);
  output_names_.emplace_back(name);
}

std::size_t Netlist::logic_gate_count() const {
  std::size_t n = 0;
  for (const Gate& g : gates_)
    if (is_logic(g.kind)) ++n;
  return n;
}

std::vector<GateId> Netlist::topo_order() const {
  return build_acyclic_index(*this).topo;
}

std::vector<double> Netlist::loads(const CapacitanceModel& cap) const {
  return build_index(*this, cap).load;
}

double Netlist::total_capacitance(const CapacitanceModel& cap) const {
  return build_index(*this, cap).total_load +
         cap.dff_clock_cap * static_cast<double>(dffs_.size());
}

int Netlist::depth() const { return build_acyclic_index(*this).depth; }

std::uint64_t structural_hash(const Netlist& nl) {
  util::Fnv1a64 h;
  h.u64(nl.gate_count());
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    const Gate& gate = nl.gate(g);
    h.u32(static_cast<std::uint32_t>(gate.kind));
    h.u64(gate.fanins.size());
    for (GateId f : gate.fanins) h.u32(f);
    h.f64(gate.extra_cap);
  }
  h.u64(nl.inputs().size());
  for (GateId g : nl.inputs()) h.u32(g);
  h.u64(nl.outputs().size());
  for (GateId g : nl.outputs()) h.u32(g);
  h.u64(nl.dffs().size());
  for (GateId g : nl.dffs()) {
    h.u32(g);
    h.u32(nl.dff_init(g) ? 1u : 0u);
  }
  return h.digest();
}

}  // namespace hlp::netlist
