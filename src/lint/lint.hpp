#pragma once

#include <map>
#include <span>
#include <string_view>

#include "cdfg/cdfg.hpp"
#include "fsm/stg.hpp"
#include "lint/diagnostics.hpp"
#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"

namespace hlp::lint {

/// --- Rule registry -------------------------------------------------------

/// Static descriptor of one design rule. The registry is the single source
/// of truth for ids, severities, and the DESIGN.md §6 catalog; the checkers
/// look their severity up here so a rule cannot drift between the docs and
/// the diagnostics it emits.
struct RuleInfo {
  std::string_view id;
  Ir ir;
  Severity severity;
  std::string_view summary;
};

class RuleRegistry {
 public:
  /// The built-in rule set (immutable, shared).
  static const RuleRegistry& global();

  std::span<const RuleInfo> rules() const { return rules_; }
  const RuleInfo* find(std::string_view id) const;
  /// Severity for `id`; throws std::out_of_range on unknown rules.
  Severity severity(std::string_view id) const;

 private:
  explicit RuleRegistry(std::span<const RuleInfo> rules) : rules_(rules) {}
  std::span<const RuleInfo> rules_;
};

/// --- Lint entry points ---------------------------------------------------
///
/// All run in O(V + E) over the IR (bench/bench_lint.cpp tracks gates/sec).
/// They never throw on malformed input — malformed structure is the thing
/// they report. The estimators do not lint their inputs: a caller that
/// wants to reject bad input runs these first and checks
/// `Report::has_errors()`, as tools/hlp_lint does.

/// Netlist structural + power rules (NL-*, PW-*).
Report run_netlist(const netlist::Netlist& nl, const LintOptions& opts = {});

/// run_netlist plus module port-word rules (NL-PORT).
Report run_module(const netlist::Module& mod, const LintOptions& opts = {});

/// STG rules (FS-*): transition-relation validity, reachability, ergodicity.
Report run_fsm(const fsm::Stg& stg, const LintOptions& opts = {});

/// CDFG dataflow rules (CD-REF, CD-ARITY, CD-WIDTH, CD-DEAD).
Report run_cdfg(const cdfg::Cdfg& g, const LintOptions& opts = {});

/// Dataflow rules plus schedule rules: unscheduled ops / precedence
/// violations (CD-UNSCHED) and per-step resource conflicts against `limits`
/// (CD-RESOURCE).
Report run_cdfg(const cdfg::Cdfg& g, const cdfg::Schedule& s,
                const std::map<cdfg::OpKind, int>& limits = {},
                const cdfg::OpDelays& delays = {},
                const LintOptions& opts = {});

const char* severity_name(Severity s);
const char* ir_name(Ir ir);

}  // namespace hlp::lint
