#include "lint/lint.hpp"

#include <array>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace hlp::lint {

namespace {

/// The built-in catalog. Kept in one table so DESIGN.md §6, the registry,
/// and the checkers cannot disagree about id or severity.
constexpr std::array<RuleInfo, 25> kRules{{
    // Netlist structural rules.
    {"NL-CYCLE", Ir::Netlist, Severity::Error,
     "combinational cycle (reported as the cycle path)"},
    {"NL-REF", Ir::Netlist, Severity::Error,
     "fanin references a nonexistent net"},
    {"NL-ARITY", Ir::Netlist, Severity::Error,
     "fanin count inconsistent with the gate kind"},
    {"NL-DFF-D", Ir::Netlist, Severity::Error,
     "DFF with no D input (floating state element)"},
    {"NL-FLOAT", Ir::Netlist, Severity::Warning,
     "gate output drives nothing and is not a primary output"},
    {"NL-DEAD", Ir::Netlist, Severity::Warning,
     "gate cannot reach any primary output or DFF (dead logic)"},
    {"NL-MULTIOUT", Ir::Netlist, Severity::Warning,
     "same net marked as a primary output more than once"},
    {"NL-FANOUT", Ir::Netlist, Severity::Warning,
     "fanout exceeds the configured cap under the wire-load model"},
    {"NL-PORT", Ir::Netlist, Severity::Error,
     "module port word malformed (non-input bit or multiply-driven bit)"},
    {"NL-CONST", Ir::Netlist, Severity::Warning,
     "gate provably constant under const-propagation; fold it and let its "
     "fanin cone go dead"},
    // Netlist power-lint tier.
    {"PW-GLITCH", Ir::Netlist, Severity::Power,
     "reconvergent fanin with unequal path depths (glitch-prone)"},
    {"PW-GATE", Ir::Netlist, Severity::Power,
     "hold-mux register feedback: clock-gating candidate (Section III)"},
    {"PW-HOTCAP", Ir::Netlist, Severity::Power,
     "net carries a dominating share of total capacitance"},
    {"PW-BOUND", Ir::Netlist, Severity::Power,
     "static arrival-window transition bound exceeds the configured "
     "per-cycle budget (guaranteed glitch headroom)"},
    // FSM / STG rules.
    {"FS-RANGE", Ir::Fsm, Severity::Error,
     "transition target out of range (ill-formed transition relation)"},
    {"FS-OUT-WIDTH", Ir::Fsm, Severity::Warning,
     "output value exceeds the declared output width"},
    {"FS-UNREACH", Ir::Fsm, Severity::Warning,
     "state unreachable from the reset state"},
    {"FS-TRAP", Ir::Fsm, Severity::Error,
     "trap state: every transition is a self-loop (never-wired state)"},
    {"FS-ERGODIC", Ir::Fsm, Severity::Error,
     "reachable chain is not ergodic (absorbing SCC); steady-state "
     "probabilities are invalid"},
    // CDFG rules.
    {"CD-REF", Ir::Cdfg, Severity::Error,
     "operand references a later or nonexistent op (use before def)"},
    {"CD-ARITY", Ir::Cdfg, Severity::Error,
     "operand count inconsistent with the op kind"},
    {"CD-WIDTH", Ir::Cdfg, Severity::Warning,
     "operand widths disagree with the op width"},
    {"CD-DEAD", Ir::Cdfg, Severity::Warning,
     "op result is never consumed and is not an output"},
    {"CD-UNSCHED", Ir::Cdfg, Severity::Error,
     "op unscheduled or scheduled before an operand finishes"},
    {"CD-RESOURCE", Ir::Cdfg, Severity::Error,
     "concurrent ops of one kind exceed the resource limit"},
}};

}  // namespace

const RuleRegistry& RuleRegistry::global() {
  static const RuleRegistry reg{std::span<const RuleInfo>(kRules)};
  return reg;
}

const RuleInfo* RuleRegistry::find(std::string_view id) const {
  for (const RuleInfo& r : rules_)
    if (r.id == id) return &r;
  return nullptr;
}

Severity RuleRegistry::severity(std::string_view id) const {
  const RuleInfo* r = find(id);
  if (!r) throw std::out_of_range("lint: unknown rule id " + std::string(id));
  return r->severity;
}

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Error: return "error";
    case Severity::Warning: return "warning";
    case Severity::Power: return "power";
  }
  return "?";
}

const char* ir_name(Ir ir) {
  switch (ir) {
    case Ir::Netlist: return "netlist";
    case Ir::Fsm: return "fsm";
    case Ir::Cdfg: return "cdfg";
  }
  return "?";
}

std::string Report::to_string() const {
  std::string out;
  for (const Diagnostic& d : diags) {
    out += d.rule_id;
    out += ' ';
    out += severity_name(d.severity);
    out += ' ';
    out += ir_name(d.loc.ir);
    if (d.loc.object != kNoObject) {
      out += '#';
      out += std::to_string(d.loc.object);
    }
    if (!d.loc.name.empty()) {
      out += " (";
      out += d.loc.name;
      out += ')';
    }
    out += ": ";
    out += d.message;
    if (d.waste > 0.0) {
      char buf[40];
      std::snprintf(buf, sizeof buf, " [est waste %.4g]", d.waste);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace hlp::lint
