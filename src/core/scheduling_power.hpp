#pragma once

#include <map>
#include <vector>

#include "cdfg/cdfg.hpp"
#include "cdfg/datasim.hpp"
#include "exec/exec.hpp"

namespace hlp::core {

/// Section III-D: power-aware operation scheduling.

/// Per-operation switched-capacitance energy model (arbitrary units):
/// adders/comparators linear in width, multipliers quadratic.
struct OpEnergyModel {
  double add_per_bit = 1.0;
  double mul_per_bit2 = 0.4;
  double shift_per_bit = 0.15;
  double mux_per_bit = 0.3;
  double of(cdfg::OpKind k, int width) const;
};

/// Expected datapath energy per iteration given each op's activation
/// probability (1.0 = executes every iteration).
double cdfg_energy(const cdfg::Cdfg& g, const OpEnergyModel& m,
                   std::span<const double> activation_prob = {});

/// --- Monteiro et al. [63]: scheduling for dynamic power management ------

struct PowerManagedSchedule {
  cdfg::Schedule schedule;
  /// Muxes for which power management is enabled.
  std::vector<cdfg::OpId> managed_muxes;
  /// Activation probability per op after shutdown of unselected branches
  /// (ctrl assumed uniform unless given in `branch_prob`).
  std::vector<double> activation_prob;
  /// Extra precedence edges added (from control cone to branch cones).
  std::vector<std::pair<cdfg::OpId, cdfg::OpId>> added_edges;
};

/// Implements the ASAP/ALAP feasibility test from the paper: for each mux
/// (bottom-up), nodes exclusive to the 0/1 branches must be schedulable
/// strictly after the control cone settles; feasible muxes get precedence
/// edges and their unselected branch cone is shut down at runtime.
/// `branch_prob[mux]` = probability the control input is 1 (default 0.5).
/// `g` must be well formed; `lint::run_cdfg` reports malformed dataflow.
PowerManagedSchedule monteiro_schedule(
    const cdfg::Cdfg& g, int latency_slack = 2,
    const cdfg::OpDelays& d = {},
    const std::map<cdfg::OpId, double>& branch_prob = {});

/// Budgeted power-managed scheduling: one meter step per mux candidate
/// (plus one per feasibility trial). On a budget trip, muxes already
/// accepted keep their power management and the remaining candidates are
/// left unmanaged — the schedule is always valid, just managing fewer
/// branches. The diag reports how many candidates were considered.
exec::Outcome<PowerManagedSchedule> monteiro_schedule_budgeted(
    const cdfg::Cdfg& g, const exec::Budget& budget, int latency_slack = 2,
    const cdfg::OpDelays& d = {},
    const std::map<cdfg::OpId, double>& branch_prob = {});

/// --- Musoll–Cortadella [60]: activity-driven scheduling -----------------

/// Round-robin binding of compute ops to functional-unit instances under
/// the per-kind resource limits; returns instance index per op (-1 for
/// non-compute ops).
std::vector<int> bind_round_robin(const cdfg::Cdfg& g,
                                  const cdfg::Schedule& s,
                                  const std::map<cdfg::OpKind, int>& limits);

/// Mean FU input switching per iteration: for each functional unit, the
/// normalized Hamming distance between operand values of temporally
/// consecutive ops executed on it.
double fu_input_switching(const cdfg::Cdfg& g, const cdfg::Schedule& s,
                          std::span<const int> binding,
                          const cdfg::DataTrace& trace);

/// List scheduling whose priority favors placing ops that share operands
/// consecutively on the same unit (the Musoll–Cortadella objective).
/// `g` must be well formed (`lint::run_cdfg` reports malformed dataflow).
/// Every op starts after its operands finish and no step exceeds `limits`,
/// so `lint::run_cdfg(g, s, limits)` reports no CD-UNSCHED or CD-RESOURCE.
cdfg::Schedule activity_driven_schedule(
    const cdfg::Cdfg& g, const std::map<cdfg::OpKind, int>& limits,
    const cdfg::OpDelays& d = {});

/// Budgeted activity-driven scheduling: one meter step per time step of the
/// list scheduler. A budget trip degrades to the plain (resource-unaware)
/// ASAP schedule — the cheap deterministic fallback — with the degradation
/// recorded in the diag rather than returning a half-filled schedule.
exec::Outcome<cdfg::Schedule> activity_driven_schedule_budgeted(
    const cdfg::Cdfg& g, const exec::Budget& budget,
    const std::map<cdfg::OpKind, int>& limits, const cdfg::OpDelays& d = {});

/// --- Kim–Choi [62]: power-conscious loop folding -------------------------
///
/// A T-tap MAC loop on one multiplier: iteration t computes c_k * x[t-k]
/// for k = 0..T-1. The unfolded schedule runs each iteration's taps in
/// order, so the data operand changes every cycle. Folding overlaps T
/// iterations so that all uses of the *same sample* execute back-to-back —
/// the "common input operands hidden inside the loops" — leaving the data
/// port still for T-1 of every T cycles.
struct LoopFoldingResult {
  double sw_unfolded = 0.0;  ///< multiplier input bits switched per op
  double sw_folded = 0.0;
  double saving() const {
    return sw_unfolded > 0.0 ? 1.0 - sw_folded / sw_unfolded : 0.0;
  }
};

LoopFoldingResult evaluate_loop_folding(int taps, std::size_t iterations,
                                        int width, std::uint64_t seed);

}  // namespace hlp::core
