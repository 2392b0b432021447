#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hlp::lint {

/// --- Diagnostics framework ----------------------------------------------
///
/// The survey's estimators are only defined on well-formed inputs: acyclic
/// combinational logic, ergodic FSM Markov chains, consistently scheduled
/// CDFGs. `hlp::lint` is the static pass that checks those preconditions
/// before any simulation cycles are spent, reporting every violation as a
/// structured `Diagnostic` rather than the first exception or a bad
/// estimate. The estimators do not call it; callers that want to reject
/// bad input do. See DESIGN.md §6 for the rule catalog.

/// Severity tiers. `Power` is the "power-lint" tier: the design is
/// functionally well formed but contains a structure the paper identifies
/// as power-relevant (glitch-prone reconvergence, clock-gating candidates,
/// capacitance hot spots). Power diagnostics never count as errors.
enum class Severity : std::uint8_t {
  Error,    ///< estimator precondition violated; has_errors() is true
  Warning,  ///< suspicious structure; estimate may be misleading
  Power,    ///< power design-rule hint (Section II/III opportunities)
};

/// Which IR a rule inspects.
enum class Ir : std::uint8_t { Netlist, Fsm, Cdfg };

inline constexpr std::uint32_t kNoObject = 0xffffffffu;

/// Where a diagnostic points: an object id within one IR instance plus the
/// object's diagnostic name when it has one.
struct Location {
  Ir ir = Ir::Netlist;
  std::uint32_t object = kNoObject;  ///< GateId / StateId / OpId
  std::string name;                  ///< optional object name
};

struct Diagnostic {
  std::string rule_id;  ///< stable id, e.g. "NL-CYCLE"
  Severity severity = Severity::Error;
  Location loc;
  std::string message;
  /// Quantitative severity: estimated switched capacitance wasted per cycle
  /// (or savable, for optimization hints like PW-GATE), in the same
  /// C·activity units the estimators report. Computed from the static
  /// activity/arrival analyses (src/analysis) when they are available for
  /// the input; 0 when the rule has no quantitative model or the analyses
  /// could not run. Power-tier diagnostics are ranked by this field,
  /// largest first.
  double waste = 0.0;
};

/// Result of one lint run.
struct Report {
  std::vector<Diagnostic> diags;

  bool clean() const { return diags.empty(); }
  bool has_errors() const {
    for (const Diagnostic& d : diags)
      if (d.severity == Severity::Error) return true;
    return false;
  }
  std::size_t count(std::string_view rule_id) const {
    std::size_t n = 0;
    for (const Diagnostic& d : diags)
      if (d.rule_id == rule_id) ++n;
    return n;
  }
  bool has(std::string_view rule_id) const { return count(rule_id) > 0; }
  /// First diagnostic for `rule_id`, or nullptr.
  const Diagnostic* find(std::string_view rule_id) const {
    for (const Diagnostic& d : diags)
      if (d.rule_id == rule_id) return &d;
    return nullptr;
  }
  void merge(Report other) {
    for (Diagnostic& d : other.diags) diags.push_back(std::move(d));
  }
  /// One line per diagnostic: "rule severity object: message".
  std::string to_string() const;
};

/// Rule thresholds and switches read by the run_* entry points.
struct LintOptions {
  bool power_rules = true;  ///< include the Power severity tier
  /// NL-FANOUT: flag nets whose fanout exceeds this (the statistical
  /// wire-load model charges wire_cap_per_fanout per sink, so high-fanout
  /// nets are both slow and capacitance hot spots). <= 0 disables.
  int fanout_cap = 64;
  /// PW-GLITCH: flag gates whose fanin arrival depths differ by at least
  /// this many levels (unequal reconverging path delays generate glitches).
  int glitch_depth_spread = 4;
  /// PW-HOTCAP: flag gates carrying at least this fraction of the total
  /// netlist capacitance.
  double hot_load_fraction = 0.05;
  /// PW-BOUND: flag gates whose arrival-window analysis proves they can
  /// transition more than this many times per cycle under unit delay (the
  /// guaranteed glitch ceiling from analysis::run_arrival). <= 0 disables.
  int transition_bound = 8;
  /// Run the activity + arrival dataflow analyses and attach quantitative
  /// estimated-waste figures to the power-tier diagnostics (and enable
  /// PW-BOUND, which is an arrival-analysis product). Off: power rules
  /// still fire structurally but report waste = 0 — the cheap
  /// configuration for a caller that only needs pass/fail. NL-CONST only
  /// needs const-propagation and stays on either way.
  bool quantify = true;
  /// Rule ids to skip.
  std::vector<std::string> disabled;

  bool enabled(std::string_view rule_id) const {
    for (const std::string& d : disabled)
      if (d == rule_id) return false;
    return true;
  }
};

}  // namespace hlp::lint
