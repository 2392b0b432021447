#pragma once

#include <vector>

#include "exec/exec.hpp"
#include "netlist/generators.hpp"
#include "sim/engine.hpp"
#include "sim/power.hpp"
#include "stats/entropy.hpp"

namespace hlp::core {

/// Section III-I, guarded evaluation (Tiwari et al. [105], Fig. 8).
///
/// Finds logic cones that are observable only through one data input of a
/// multiplexer, verifies with BDDs that the mux select implies the cone's
/// observability don't-care condition, and inserts transparent latches
/// (modeled as recirculating mux + state bit) at the cone boundary,
/// controlled by the existing select signal — no new control logic is
/// synthesized, which is the technique's distinctive feature.

struct GuardCandidate {
  netlist::GateId mux = netlist::kNullGate;
  netlist::GateId guard = netlist::kNullGate;  ///< the existing select net
  bool block_when_guard_high = true;  ///< s=1 blocks the cone (d0 side)
  netlist::GateId cone_root = netlist::kNullGate;
  std::vector<netlist::GateId> cone;  ///< gates inside the guarded block
  bool odc_verified = false;          ///< BDD implication check passed
  bool pure = false;  ///< timing condition t_l(s) < t_e(Y) holds (unit delay)
};

/// Enumerate and verify guard candidates on a combinational module.
std::vector<GuardCandidate> find_guards(const netlist::Module& mod);

/// Budgeted guard discovery with graceful degradation. Structural cone
/// enumeration is cheap and always runs; the ODC implication check runs
/// symbolically with `budget` metered on the BDD manager. If the BDDs blow
/// the budget (or allocation fails), verification degrades to random-vector
/// simulation: a candidate is accepted only if, across every sampled vector
/// where the blocking select value holds, the mux bank output equals the
/// unblocked branch (and the blocking value was actually observed).
/// Sampled acceptance is weaker than the symbolic proof; the outcome's diag
/// records the degradation so callers can tell. Deterministic in `seed`.
exec::Outcome<std::vector<GuardCandidate>> find_guards_budgeted(
    const netlist::Module& mod, const exec::Budget& budget,
    std::uint64_t seed = 0x5eedbeefu);

/// Build a transformed copy of the module with guard latches inserted for
/// the given (disjoint) candidates.
struct GuardedCircuit {
  netlist::Netlist netlist;
  std::size_t latches = 0;
};
GuardedCircuit apply_guards(const netlist::Module& mod,
                            std::span<const GuardCandidate> guards);

/// Simulate both circuits on the stream; checks functional equivalence
/// cycle by cycle and reports both powers.
struct GuardedEvalResult {
  double base_power = 0.0;
  double guarded_power = 0.0;
  bool functionally_correct = true;
  double saving() const {
    return base_power > 0.0 ? 1.0 - guarded_power / base_power : 0.0;
  }
};
/// Both circuits run through sim::sweep_stream: the combinational reference
/// packed, the latched guarded circuit cycle by cycle.
GuardedEvalResult evaluate_guarded(const netlist::Module& mod,
                                   const GuardedCircuit& gc,
                                   const stats::VectorStream& input,
                                   const sim::PowerParams& params = {},
                                   const sim::SimOptions& opts = {});

}  // namespace hlp::core
