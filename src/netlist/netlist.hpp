#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hlp::netlist {

/// Gate kinds supported by the netlist IR.
///
/// `Mux` fanins are ordered {sel, d0, d1} (output = sel ? d1 : d0).
/// `Dff` has a single fanin (the D input); its output is the state bit.
enum class GateKind : std::uint8_t {
  Input,
  Const0,
  Const1,
  Buf,
  Not,
  And,
  Or,
  Nand,
  Nor,
  Xor,
  Xnor,
  Mux,
  Dff,
};

using GateId = std::uint32_t;
inline constexpr GateId kNullGate = std::numeric_limits<GateId>::max();

/// A word is an ordered list of nets, LSB first.
using Word = std::vector<GateId>;

struct Gate {
  GateKind kind = GateKind::Input;
  std::vector<GateId> fanins;
  std::string name;       ///< optional diagnostic name
  double extra_cap = 0.0; ///< additional wire/pin load in capacitance units
};

/// Capacitance model parameters (arbitrary units; the paper's techniques are
/// all defined relative to a switched-capacitance reference, so only ratios
/// matter — see DESIGN.md substitution table).
struct CapacitanceModel {
  double input_pin_cap = 1.0;   ///< per logic-gate input pin
  double dff_pin_cap = 2.0;     ///< DFF D-pin load
  double dff_clock_cap = 1.0;   ///< per-DFF clock network load, switched 2x/cycle
  double output_self_cap = 0.5; ///< gate output diffusion cap
  double wire_cap_per_fanout = 0.25;  ///< statistical wire-load model
};

/// Gate-level netlist: a DAG of logic gates plus DFF state elements.
///
/// DFF outputs act as combinational sources; DFF D-inputs are sampled at the
/// end of each cycle by the simulator. Structural loops through DFFs are
/// allowed; purely combinational loops are not.
class Netlist {
 public:
  GateId add_input(std::string_view name = {});
  GateId add_const(bool value);
  GateId add_gate(GateKind kind, std::span<const GateId> fanins,
                  std::string_view name = {});
  /// Convenience for 1- and 2-input gates.
  GateId add_unary(GateKind kind, GateId a, std::string_view name = {});
  GateId add_binary(GateKind kind, GateId a, GateId b,
                    std::string_view name = {});
  GateId add_mux(GateId sel, GateId d0, GateId d1, std::string_view name = {});

  /// Creates a DFF whose D input may be wired later (for feedback paths).
  GateId add_dff(GateId d = kNullGate, bool init = false,
                 std::string_view name = {});
  void set_dff_input(GateId dff, GateId d);
  bool dff_init(GateId dff) const;

  void mark_output(GateId g, std::string_view name = {});

  std::size_t gate_count() const { return gates_.size(); }
  const Gate& gate(GateId g) const { return gates_[g]; }
  /// Mutable access to one gate. Deliberately named (rather than a
  /// non-const `gate()` overload) so that every edit is visible at its call
  /// site; use `set_fanin` / `add_extra_cap` for the common structured
  /// edits. Views built from the netlist (NetlistIndex, simulators) are
  /// snapshots: build them after the edits.
  Gate& gate_mut(GateId g) { return gates_[g]; }
  /// Rewire one fanin slot.
  void set_fanin(GateId g, std::size_t slot, GateId src) {
    gates_[g].fanins[slot] = src;
  }
  /// Add wire/pin load to a gate.
  void add_extra_cap(GateId g, double cap) { gates_[g].extra_cap += cap; }

  std::span<const GateId> inputs() const { return inputs_; }
  std::span<const GateId> outputs() const { return outputs_; }
  std::span<const GateId> dffs() const { return dffs_; }

  /// Number of gates that are neither inputs, constants, nor DFFs.
  std::size_t logic_gate_count() const;

  /// Topological order of combinational gates (inputs/consts/DFF outputs
  /// first, then logic gates in dependency order): NetlistIndex::topo.
  /// Throws std::logic_error on a combinational cycle. Computed on every
  /// call — a const Netlist carries no hidden state, so concurrent readers
  /// need no lock; hoist the call out of loops.
  std::vector<GateId> topo_order() const;

  /// Capacitive load seen by each gate's output under the given model
  /// (NetlistIndex::load).
  std::vector<double> loads(const CapacitanceModel& cap = {}) const;

  /// Total capacitance of the netlist (sum of all loads + clock network).
  double total_capacitance(const CapacitanceModel& cap = {}) const;

  /// Logic depth (max #logic gates on any input/DFF-to-output/DFF path;
  /// NetlistIndex::depth). Throws std::logic_error on a combinational cycle.
  int depth() const;

 private:
  std::vector<Gate> gates_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<std::string> output_names_;
  std::vector<GateId> dffs_;
  std::vector<bool> dff_inits_;
};

/// Canonical structural fingerprint: FNV-1a (splitmix-finalized) over gate
/// kinds, fanins, extra loads, and the input/output/DFF interface, in
/// gate-id order. Diagnostic names are excluded — two netlists differing
/// only in names hash identically — so the fingerprint identifies
/// *content*, which is what the serve layer's content-addressed result
/// cache keys on (DESIGN.md §9).
std::uint64_t structural_hash(const Netlist& nl);

/// True if the kind has a defined boolean evaluation (everything but Input).
bool is_logic(GateKind k);

/// Evaluate a single gate given its fanin values.
bool eval_gate(GateKind kind, std::span<const std::uint8_t> fanin_values);

const char* kind_name(GateKind k);

}  // namespace hlp::netlist
