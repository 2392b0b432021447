// hlp_lint — run the hlp::lint rule set over netlists from the command line.
//
//   hlp_lint [options] <input>...
//
// Each <input> is either a structural Verilog file (path ending in ".v",
// parsed with netlist::parse_verilog) or a generator spec understood by
// jobs::make_module (adder:8, mult:6, random:16:200:8:9, c17, ...).
//
// Options:
//   --format=text|json   output format (default text)
//   --no-power           drop the Power severity tier
//   --no-quantify        skip the activity/arrival analyses (waste = 0,
//                        PW-BOUND unavailable); the fast structural pass
//   --disable=RULE       skip one rule id (repeatable)
//   --fanout-cap=N       NL-FANOUT threshold (<= 0 disables)
//   --glitch-spread=N    PW-GLITCH fanin depth-spread threshold
//   --transition-bound=N PW-BOUND per-cycle transition budget (<= 0 disables)
//
// Exit status: 0 when no Error-severity diagnostics were found, 1 when any
// input produced an Error-severity diagnostic, 2 on usage, I/O, or parse
// failures. Parse failures still produce a report entry (text line or JSON
// object with "parse_error") so batch runs degrade gracefully.
//
// The JSON schema is stable and intended for golden-file comparison in CI:
//
//   {
//     "tool": "hlp_lint",
//     "schema_version": 1,
//     "inputs": [
//       {
//         "input": "<path or spec>",
//         "module": "<name>",            // absent on parse failure
//         "gates": <int>,
//         "parse_error": "<message>",    // only on parse failure
//         "counts": {"error": n, "warning": n, "power": n},
//         "diagnostics": [
//           {"rule": "NL-CONST", "severity": "warning", "ir": "netlist",
//            "object": 12, "name": "<net>", "message": "...",
//            "waste": 0.125}
//         ]
//       }
//     ],
//     "errors": <total error-severity count>
//   }
//
// Fields are emitted in the order above; "object" is omitted when the
// diagnostic has no location, "name" when the object is unnamed, and
// "waste" when it is zero. New fields may be appended in later schema
// versions; existing fields keep their meaning.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "jobs/kernels.hpp"
#include "lint/lint.hpp"
#include "netlist/verilog.hpp"

namespace {

using hlp::lint::Diagnostic;
using hlp::lint::Report;
using hlp::lint::Severity;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--format=text|json] [--no-power] [--no-quantify]\n"
      "       %*s [--disable=RULE]... [--fanout-cap=N] [--glitch-spread=N]\n"
      "       %*s [--transition-bound=N] <file.v | generator-spec>...\n",
      argv0, static_cast<int>(std::string_view(argv0).size()), "",
      static_cast<int>(std::string_view(argv0).size()), "");
  return 2;
}

/// One linted input, ready for either formatter.
struct InputResult {
  std::string input;
  std::string module_name;
  std::size_t gates = 0;
  std::string parse_error;  ///< nonempty => nothing else but `input` is valid
  Report report;
};

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

InputResult lint_one(const std::string& input,
                     const hlp::lint::LintOptions& opts) {
  InputResult r;
  r.input = input;
  try {
    if (ends_with(input, ".v")) {
      std::ifstream in(input, std::ios::binary);
      if (!in) throw std::runtime_error("cannot open file");
      std::ostringstream ss;
      ss << in.rdbuf();
      hlp::netlist::ParsedModule pm = hlp::netlist::parse_verilog(ss.str());
      r.module_name = pm.name;
      r.gates = pm.netlist.gate_count();
      r.report = hlp::lint::run_netlist(pm.netlist, opts);
    } else {
      hlp::netlist::Module mod = hlp::jobs::make_module(input);
      r.module_name = mod.name;
      r.gates = mod.netlist.gate_count();
      r.report = hlp::lint::run_module(mod, opts);
    }
  } catch (const std::exception& e) {
    r.parse_error = e.what();
  }
  return r;
}

void count_severities(const Report& rep, std::size_t out[3]) {
  out[0] = out[1] = out[2] = 0;
  for (const Diagnostic& d : rep.diags)
    ++out[static_cast<std::size_t>(d.severity)];
}

// --- text format -----------------------------------------------------------

void print_text(const std::vector<InputResult>& results) {
  for (const InputResult& r : results) {
    if (!r.parse_error.empty()) {
      std::printf("== %s ==\nparse error: %s\n", r.input.c_str(),
                  r.parse_error.c_str());
      continue;
    }
    std::size_t by_sev[3];
    count_severities(r.report, by_sev);
    std::printf("== %s (%s, %zu gates) ==\n", r.input.c_str(),
                r.module_name.c_str(), r.gates);
    std::fputs(r.report.to_string().c_str(), stdout);
    std::printf("%zu diagnostics: %zu error, %zu warning, %zu power\n",
                r.report.diags.size(), by_sev[0], by_sev[1], by_sev[2]);
  }
}

// --- json format -----------------------------------------------------------

void json_escape(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void json_kv(std::string& out, std::string_view key, std::string_view value) {
  out += '"';
  out += key;
  out += "\": \"";
  json_escape(out, value);
  out += '"';
}

void print_json(const std::vector<InputResult>& results,
                std::size_t total_errors) {
  std::string out;
  out += "{\n  \"tool\": \"hlp_lint\",\n  \"schema_version\": 1,\n"
         "  \"inputs\": [";
  char buf[64];
  bool first_input = true;
  for (const InputResult& r : results) {
    out += first_input ? "\n" : ",\n";
    first_input = false;
    out += "    {\n      ";
    json_kv(out, "input", r.input);
    if (!r.parse_error.empty()) {
      out += ",\n      ";
      json_kv(out, "parse_error", r.parse_error);
      out += "\n    }";
      continue;
    }
    out += ",\n      ";
    json_kv(out, "module", r.module_name);
    std::snprintf(buf, sizeof buf, ",\n      \"gates\": %zu,\n", r.gates);
    out += buf;
    std::size_t by_sev[3];
    count_severities(r.report, by_sev);
    std::snprintf(buf, sizeof buf,
                  "      \"counts\": {\"error\": %zu, \"warning\": %zu, "
                  "\"power\": %zu},\n",
                  by_sev[0], by_sev[1], by_sev[2]);
    out += buf;
    out += "      \"diagnostics\": [";
    bool first_diag = true;
    for (const Diagnostic& d : r.report.diags) {
      out += first_diag ? "\n" : ",\n";
      first_diag = false;
      out += "        {";
      json_kv(out, "rule", d.rule_id);
      out += ", ";
      json_kv(out, "severity", hlp::lint::severity_name(d.severity));
      out += ", ";
      json_kv(out, "ir", hlp::lint::ir_name(d.loc.ir));
      if (d.loc.object != hlp::lint::kNoObject) {
        std::snprintf(buf, sizeof buf, ", \"object\": %u", d.loc.object);
        out += buf;
      }
      if (!d.loc.name.empty()) {
        out += ", ";
        json_kv(out, "name", d.loc.name);
      }
      out += ", ";
      json_kv(out, "message", d.message);
      if (d.waste > 0.0) {
        std::snprintf(buf, sizeof buf, ", \"waste\": %.6g", d.waste);
        out += buf;
      }
      out += '}';
    }
    out += first_diag ? "]\n    }" : "\n      ]\n    }";
  }
  std::snprintf(buf, sizeof buf, "\n  ],\n  \"errors\": %zu\n}\n",
                total_errors);
  out += buf;
  std::fputs(out.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  hlp::lint::LintOptions opts;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto int_value = [&](std::string_view flag, int& dst) {
      dst = std::atoi(std::string(arg.substr(flag.size())).c_str());
      return true;
    };
    if (arg == "--format=text") {
      json = false;
    } else if (arg == "--format=json") {
      json = true;
    } else if (arg == "--no-power") {
      opts.power_rules = false;
    } else if (arg == "--no-quantify") {
      opts.quantify = false;
    } else if (arg.rfind("--disable=", 0) == 0) {
      std::string rule(arg.substr(10));
      if (!hlp::lint::RuleRegistry::global().find(rule)) {
        std::fprintf(stderr, "hlp_lint: unknown rule id '%s'\n",
                     rule.c_str());
        return 2;
      }
      opts.disabled.push_back(std::move(rule));
    } else if (arg.rfind("--fanout-cap=", 0) == 0) {
      int_value("--fanout-cap=", opts.fanout_cap);
    } else if (arg.rfind("--glitch-spread=", 0) == 0) {
      int_value("--glitch-spread=", opts.glitch_depth_spread);
    } else if (arg.rfind("--transition-bound=", 0) == 0) {
      int_value("--transition-bound=", opts.transition_bound);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) return usage(argv[0]);

  std::vector<InputResult> results;
  results.reserve(inputs.size());
  std::size_t total_errors = 0;
  bool parse_failed = false;
  for (const std::string& input : inputs) {
    results.push_back(lint_one(input, opts));
    const InputResult& r = results.back();
    if (!r.parse_error.empty()) parse_failed = true;
    for (const Diagnostic& d : r.report.diags)
      if (d.severity == Severity::Error) ++total_errors;
  }

  if (json)
    print_json(results, total_errors);
  else
    print_text(results);

  if (parse_failed) return 2;
  return total_errors ? 1 : 0;
}
