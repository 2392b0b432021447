// E-LINT — Design-rule checker throughput over the three IRs.
//
// The lint pass (src/lint/) runs ahead of estimation on whatever design a
// caller hands it, so it must stay linear in the design: all rules are
// single-pass reachability/SCC/fanout computations, O(V + E) over the
// netlist. This bench measures gates/sec on the largest array multiplier
// and sweeps random DAGs across a 32x size range — if the checker is really
// linear, gates/sec stays flat as the design grows.
//
// Results go to BENCH_lint.json (cwd, or argv[1] after the google-benchmark
// flags) so future PRs can track the trajectory.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "cdfg/generators.hpp"
#include "fsm/stg.hpp"
#include "lint/lint.hpp"
#include "netlist/generators.hpp"

namespace {

using namespace hlp;

struct Workload {
  std::string name;
  netlist::Module mod;
  std::size_t edges = 0;
};

std::size_t count_edges(const netlist::Netlist& nl) {
  std::size_t e = 0;
  for (netlist::GateId g = 0; g < nl.gate_count(); ++g)
    e += nl.gate(g).fanins.size();
  return e;
}

std::vector<Workload>& workloads() {
  static std::vector<Workload> w = [] {
    std::vector<Workload> v;
    auto add = [&](std::string name, netlist::Module mod) {
      std::size_t e = count_edges(mod.netlist);
      v.push_back({std::move(name), std::move(mod), e});
    };
    add("multiplier16", netlist::multiplier_module(16));
    // O(V+E) scaling sweep: same shape, 32x size range.
    for (int gates : {1000, 2000, 4000, 8000, 16000, 32000})
      add("random_dag" + std::to_string(gates),
          netlist::random_logic_module(32, gates, 16, 42));
    return v;
  }();
  return w;
}

/// The pre-quantitative rule set (what this bench measured before the
/// dataflow analyses existed): structural + power-shape rules, no
/// activity/arrival/const-prop passes, no waste figures. Tracked
/// separately so sweep_throughput_retention stays comparable across the
/// rule-set change.
lint::LintOptions structural_opts() {
  lint::LintOptions opts;
  opts.quantify = false;
  opts.disabled = {"NL-CONST"};
  return opts;
}

std::size_t run_lint(const Workload& w, const lint::LintOptions& opts) {
  return lint::run_module(w.mod, opts).diags.size();
}

/// Benchmarks the full default rule set: structural tiers plus the
/// analysis-backed quantitative tier (NL-CONST, PW-BOUND, waste fields).
void BM_Lint(benchmark::State& state, const Workload& w) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_lint(w, {}));
  }
  state.counters["gates_per_sec"] = benchmark::Counter(
      static_cast<double>(w.mod.netlist.gate_count()),
      benchmark::Counter::kIsIterationInvariantRate);
}

/// Wall-clock gates/sec for one full run_module pass, best-of-N to damp
/// scheduler noise.
double measure_gates_per_sec(const Workload& w, const lint::LintOptions& opts,
                             int reps) {
  using clock = std::chrono::steady_clock;
  const double gates = static_cast<double>(w.mod.netlist.gate_count());
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = clock::now();
    benchmark::DoNotOptimize(run_lint(w, opts));
    auto t1 = clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    if (secs > 0.0) best = std::max(best, gates / secs);
  }
  return best;
}

void write_report(const std::string& path) {
  benchjson::Array circuits;
  const lint::LintOptions structural = structural_opts();
  const lint::LintOptions full{};  // the full default rule set
  std::printf("\nE-LINT — lint throughput (gates/sec), structural rule set "
              "vs full quantitative set\n\n");
  std::printf("%16s %8s %8s %8s %14s %8s %14s\n", "circuit", "gates",
              "edges", "diags", "gates/sec", "q-diags", "q-gates/sec");
  double first_sweep = 0.0, last_sweep = 0.0;
  double first_quant = 0.0, last_quant = 0.0;
  for (const auto& w : workloads()) {
    double gps = measure_gates_per_sec(w, structural, 7);
    double qgps = measure_gates_per_sec(w, full, 7);
    std::size_t diags = run_lint(w, structural);
    std::size_t qdiags = run_lint(w, full);
    std::printf("%16s %8zu %8zu %8zu %14.3e %8zu %14.3e\n", w.name.c_str(),
                w.mod.netlist.gate_count(), w.edges, diags, gps, qdiags,
                qgps);
    if (w.name.rfind("random_dag", 0) == 0) {
      if (first_sweep == 0.0) first_sweep = gps;
      last_sweep = gps;
      if (first_quant == 0.0) first_quant = qgps;
      last_quant = qgps;
    }
    circuits.push_back(benchjson::Object{
        {"name", w.name},
        {"gates", w.mod.netlist.gate_count()},
        {"edges", w.edges},
        {"diagnostics", diags},
        {"gates_per_sec", gps},
        {"quant_diagnostics", qdiags},
        {"quant_gates_per_sec", qgps},
    });
  }
  // Linearity figure of merit: gates/sec at 32x size over gates/sec at 1x.
  // ~1.0 means O(V+E); a superlinear checker would decay toward 0.
  // sweep_throughput_retention keeps measuring the structural rule set it
  // always measured; the quantitative tier (which emits ~1.5 diagnostics
  // per gate on these DAGs) is tracked by its own figure.
  double retention = first_sweep > 0.0 ? last_sweep / first_sweep : 0.0;
  double qretention = first_quant > 0.0 ? last_quant / first_quant : 0.0;
  std::printf("\nthroughput retention across 32x sweep: %.2f structural, "
              "%.2f quantitative (1.0 = perfectly linear)\n",
              retention, qretention);
  benchjson::Object root{
      {"bench", "lint"},
      {"machine", benchjson::machine()},
      {"metric", "gates_per_sec"},
      {"sweep_throughput_retention", retention},
      {"quantitative_sweep_retention", qretention},
      {"circuits", std::move(circuits)},
  };
  if (benchjson::save(path, root))
    std::printf("\nwrote %s\n", path.c_str());
  else
    std::printf("\nfailed to write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  for (const auto& w : workloads()) {
    benchmark::RegisterBenchmark(
        ("BM_Lint/" + w.name).c_str(),
        [&w](benchmark::State& st) { BM_Lint(st, w); });
  }
  benchmark::RunSpecifiedBenchmarks();
  const char* path = "BENCH_lint.json";
  if (argc > 1 && argv[1][0] != '-') path = argv[1];
  write_report(path);
  return 0;
}
