// E-ANALYSIS — Cost and accuracy of the zero-simulation static estimator
// (src/analysis) and its serve tier-0 path.
//
// Three questions:
//
//  1. Latency: microseconds for a full static estimate (index build +
//     const-prop + activity + arrival + bounds) as gate count grows, and
//     the exact symbolic kernel's cold latency on the named designs,
//     measured here (jobs::run_kernel: BDD build in fanin-DFS order plus
//     sat fractions). Each is the median of 21 runs with its quartiles.
//
//     The symbolic kernel is also split into its layers on adder:16,
//     mult:5, mult:6 and mult:8: make_module, fanin-DFS order, BDD build
//     (manager construction included) and the sat-fraction loop (manager
//     teardown included), each a median of 21 runs, printed with their sum
//     beside the measured kernel total.
//
//  2. Tightness: relative bound spread (upper-lower)/point versus the BDD
//     refinement node budget on a reconvergent design (mult:6). More budget
//     => more of the topological prefix computed exactly => tighter
//     Fréchet bounds; the whole of mult:6 fits in 4,406 nodes, so the
//     budgets below it trace the curve down to spread 0.
//
//  3. Serve tier-0: fraction of "kind":"static" requests over the
//     generator corpus answered from the static bounds alone (detail
//     "static-tier0...") versus escalated to packed Monte Carlo, at a
//     representative epsilon.
//
// Results go to BENCH_analysis.json (cwd, or argv[1] after the
// google-benchmark flags).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/estimate.hpp"
#include "bdd/bdd.hpp"
#include "bdd/netlist_bdd.hpp"
#include "bench_json.hpp"
#include "exec/exec.hpp"
#include "jobs/kernels.hpp"
#include "netlist/generators.hpp"
#include "netlist/index.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace {

using namespace hlp;
using clock_type = std::chrono::steady_clock;

struct Workload {
  std::string name;
  netlist::Module mod;
};

std::vector<Workload> latency_workloads() {
  std::vector<Workload> ws;
  ws.push_back({"adder:16", jobs::make_module("adder:16")});
  ws.push_back({"mult:6", jobs::make_module("mult:6")});
  ws.push_back({"mult:8", jobs::make_module("mult:8")});
  // Sizes beyond the spec parser's 20k-gate cap come straight from the
  // generator.
  for (int gates : {1000, 4000, 16000, 32000}) {
    ws.push_back({"random_dag" + std::to_string(gates),
                  netlist::random_logic_module(32, gates, 16, 42)});
  }
  return ws;
}

/// One full static estimate from scratch, including the index build — the
/// cost a cold serve tier-0 request actually pays.
analysis::StaticEstimate estimate_cold(const netlist::Netlist& nl,
                                       std::size_t refine_budget) {
  netlist::NetlistIndex ix = netlist::build_index(nl);
  analysis::StaticOptions opts;
  opts.refine_node_budget = refine_budget;
  return analysis::static_estimate(nl, ix, opts);
}

/// Median and quartiles of `reps` wall times of `run`.
struct Timing {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
};

template <class F>
Timing time_runs(int reps, F&& run) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    auto t0 = clock_type::now();
    run();
    auto t1 = clock_type::now();
    secs.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::sort(secs.begin(), secs.end());
  auto at = [&secs](double q) {
    return secs[static_cast<std::size_t>(q * (secs.size() - 1) + 0.5)];
  };
  return {at(0.5), at(0.25), at(0.75)};
}

Timing static_timing(const netlist::Netlist& nl, std::size_t refine_budget) {
  return time_runs(21, [&] {
    analysis::StaticEstimate est = estimate_cold(nl, refine_budget);
    benchmark::DoNotOptimize(est.point);
  });
}

/// Wall time of the exact symbolic kernel on a design spec: the cold path
/// a tier-0 static answer stands in for.
Timing symbolic_timing(const std::string& spec) {
  jobs::KernelRequest krq;
  krq.kind = jobs::JobKind::Symbolic;
  krq.design = spec;
  return time_runs(21, [&] {
    const jobs::AttemptOutcome ao = jobs::run_kernel(krq, {});
    benchmark::DoNotOptimize(ao.out.value);
  });
}

/// The symbolic kernel (jobs::symbolic_power) split into its layers, each
/// under its own clock, in seconds: medians of `reps` runs.
struct SymbolicLayers {
  double elaborate = 0, order = 0, build = 0, sat = 0;
  double sum() const { return elaborate + order + build + sat; }
};

SymbolicLayers symbolic_layers(const std::string& spec, int reps) {
  std::vector<double> el, ord, bld, sat;
  auto since = [](clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
  };
  for (int r = 0; r < reps; ++r) {
    auto t0 = clock_type::now();
    const netlist::Module mod = jobs::make_module(spec);
    el.push_back(since(t0));
    exec::Meter meter;
    t0 = clock_type::now();
    const std::vector<std::size_t> order = bdd::fanin_dfs_order(mod.netlist);
    ord.push_back(since(t0));
    t0 = clock_type::now();
    auto mgr = std::make_unique<bdd::Manager>();
    mgr->set_meter(&meter);
    const bdd::NetlistBdds bdds =
        bdd::build_bdds_ordered(*mgr, mod.netlist, order);
    bld.push_back(since(t0));
    t0 = clock_type::now();
    const std::vector<double> loads = mod.netlist.loads({});
    double energy = 0.0;
    for (netlist::GateId g = 0; g < mod.netlist.gate_count(); ++g) {
      meter.step();
      const double p = mgr->sat_fraction(bdds.fn[g]);
      energy += loads[g] * 2.0 * p * (1.0 - p);
    }
    mgr.reset();
    sat.push_back(since(t0));
    benchmark::DoNotOptimize(energy);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return {median(el), median(ord), median(bld), median(sat)};
}

void add_timing(benchjson::Object& row, const std::string& prefix,
                const Timing& t) {
  row.emplace_back(prefix + "_seconds", t.median);
  row.emplace_back(prefix + "_seconds_q1", t.q1);
  row.emplace_back(prefix + "_seconds_q3", t.q3);
}

void BM_StaticEstimate(benchmark::State& state, const Workload* w) {
  for (auto _ : state) {
    analysis::StaticEstimate est = estimate_cold(w->mod.netlist, 20000);
    benchmark::DoNotOptimize(est.point);
  }
  state.counters["gates"] =
      static_cast<double>(w->mod.netlist.gate_count());
}

void write_report(const std::string& path) {
  // 1. Latency vs gate count.
  benchjson::Array latency;
  double adder16_seconds = 0.0, adder16_symbolic_seconds = 0.0;
  std::printf("\nE-ANALYSIS — static estimate latency (cold, incl. index "
              "build) vs the exact symbolic kernel\n\n");
  std::printf("%20s %8s %12s %13s %10s %10s\n", "design", "gates",
              "latency_us", "symbolic_us", "point", "spread");
  for (const Workload& w : latency_workloads()) {
    const Timing st = static_timing(w.mod.netlist, 20000);
    const double secs = st.median;
    analysis::StaticEstimate est = estimate_cold(w.mod.netlist, 20000);
    benchjson::Object row{
        {"design", w.name},
        {"gates", w.mod.netlist.gate_count()},
        {"refined_gates", est.activity.refined_gates},
        {"point", est.point},
        {"lower", est.lower},
        {"upper", est.upper},
        {"relative_spread", est.spread()},
    };
    add_timing(row, "latency", st);
    // Only spec-named designs have a symbolic kernel request.
    const bool named = w.name.find(':') != std::string::npos;
    const Timing symt = named ? symbolic_timing(w.name) : Timing{};
    const double sym = symt.median;
    if (named) {
      add_timing(row, "symbolic", symt);
      jobs::KernelRequest krq;
      krq.kind = jobs::JobKind::Symbolic;
      krq.design = w.name;
      row.emplace_back("symbolic_value", jobs::run_kernel(krq, {}).out.value);
    }
    if (w.name == "adder:16") {
      adder16_seconds = secs;
      adder16_symbolic_seconds = sym;
    }
    char sym_us[32] = "-";
    if (named) std::snprintf(sym_us, sizeof sym_us, "%.1f", sym * 1e6);
    std::printf("%20s %8zu %12.1f %13s %10.4g %10.4g\n", w.name.c_str(),
                w.mod.netlist.gate_count(), secs * 1e6, sym_us, est.point,
                est.spread());
    latency.push_back(std::move(row));
  }
  const double speedup =
      adder16_seconds > 0.0 ? adder16_symbolic_seconds / adder16_seconds : 0.0;
  std::printf("\nadder:16 symbolic / static latency: %.2gx\n", speedup);

  // 1b. The symbolic kernel's layers against its measured total.
  benchjson::Array sym_layers;
  std::printf("\nsymbolic kernel layers (us, medians of 21; build includes "
              "the manager's construction, sat its teardown)\n\n");
  std::printf("%10s %10s %8s %10s %8s %10s %10s %6s\n", "design", "elaborate",
              "order", "build", "sat", "sum", "total", "ratio");
  for (const char* spec : {"adder:16", "mult:5", "mult:6", "mult:8"}) {
    // Layers and whole-kernel runs alternate, so both see the same host.
    const SymbolicLayers l = symbolic_layers(spec, 21);
    const double total = symbolic_timing(spec).median;
    const double ratio = total > 0.0 ? l.sum() / total : 0.0;
    std::printf("%10s %10.1f %8.1f %10.1f %8.1f %10.1f %10.1f %6.2f\n", spec,
                l.elaborate * 1e6, l.order * 1e6, l.build * 1e6, l.sat * 1e6,
                l.sum() * 1e6, total * 1e6, ratio);
    sym_layers.push_back(benchjson::Object{
        {"design", std::string(spec)},
        {"make_module_seconds", l.elaborate},
        {"fanin_dfs_order_seconds", l.order},
        {"bdd_build_seconds", l.build},
        {"sat_loop_seconds", l.sat},
        {"layer_sum_seconds", l.sum()},
        {"total_seconds", total},
        {"sum_over_total", ratio},
    });
  }

  // 2. Bound tightness vs refinement budget on a reconvergent design.
  benchjson::Array tightness;
  const netlist::Module mult6 = jobs::make_module("mult:6");
  std::printf("\nbound tightness vs BDD refinement budget (mult:6)\n\n");
  std::printf("%10s %10s %12s %10s %12s\n", "budget", "refined", "bdd_nodes",
              "spread", "latency_us");
  for (std::size_t budget : {std::size_t{0}, std::size_t{250},
                             std::size_t{1000}, std::size_t{2500},
                             std::size_t{5000}, std::size_t{20000}}) {
    const double secs = static_timing(mult6.netlist, budget).median;
    analysis::StaticEstimate est = estimate_cold(mult6.netlist, budget);
    std::printf("%10zu %10zu %12zu %10.4g %12.1f\n", budget,
                est.activity.refined_gates, est.activity.bdd_nodes,
                est.spread(), secs * 1e6);
    tightness.push_back(benchjson::Object{
        {"refine_node_budget", budget},
        {"refined_gates", est.activity.refined_gates},
        {"bdd_nodes", est.activity.bdd_nodes},
        {"relative_spread", est.spread()},
        {"latency_seconds", secs},
    });
  }

  // 3. Serve tier-0 hit vs escalation over the generator corpus.
  const char* corpus[] = {"adder:8",  "adder:16",     "mult:4",
                          "mult:6",   "mult:8",       "parity:8",
                          "comparator:6", "max:6",    "mux:3",
                          "alu:4",    "mulred:4:2",   "c17"};
  serve::Service service;
  std::size_t tier0 = 0, escalated = 0;
  double tier0_secs = 0.0, escalated_secs = 0.0;
  benchjson::Array corpus_rows;
  std::printf("\nserve \"kind\":\"static\" at epsilon 0.05\n\n");
  for (const char* design : corpus) {
    serve::Request rq;
    rq.kind = jobs::JobKind::Static;
    rq.design = design;
    rq.epsilon = 0.05;
    rq.use_cache = false;  // measure evaluation, not the result cache
    auto t0 = clock_type::now();
    std::string line = service.handle_line(rq.serialize());
    auto t1 = clock_type::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    serve::ResponseView rv;
    serve::parse_response(line, rv);
    const bool hit = rv.detail.rfind("static-tier0", 0) == 0;
    (hit ? tier0 : escalated) += 1;
    (hit ? tier0_secs : escalated_secs) += secs;
    std::printf("%16s %-9s %10.1f us  %s\n", design,
                hit ? "tier0" : "escalated", secs * 1e6, rv.detail.c_str());
    corpus_rows.push_back(benchjson::Object{
        {"design", std::string(design)},
        {"tier0", hit},
        {"latency_seconds", secs},
    });
  }
  const std::size_t total = tier0 + escalated;
  std::printf("\ntier-0 rate: %zu/%zu; mean tier-0 %.1f us, mean escalated "
              "%.1f ms\n",
              tier0, total, tier0 ? tier0_secs / tier0 * 1e6 : 0.0,
              escalated ? escalated_secs / escalated * 1e3 : 0.0);

  benchjson::Object root{
      {"bench", "analysis"},
      {"machine", benchjson::machine()},
      {"metric", "static_estimate"},
      {"latency", std::move(latency)},
      {"adder16_static_seconds", adder16_seconds},
      {"adder16_symbolic_seconds", adder16_symbolic_seconds},
      {"speedup_vs_cold_symbolic", speedup},
      {"symbolic_layers", std::move(sym_layers)},
      {"tightness_mult6", std::move(tightness)},
      {"serve_static", benchjson::Object{
          {"epsilon", 0.05},
          {"tier0", tier0},
          {"escalated", escalated},
          {"tier0_rate", total ? static_cast<double>(tier0) / total : 0.0},
          {"mean_tier0_seconds", tier0 ? tier0_secs / tier0 : 0.0},
          {"mean_escalated_seconds",
           escalated ? escalated_secs / escalated : 0.0},
          {"corpus", std::move(corpus_rows)},
      }},
  };
  if (benchjson::save(path, root))
    std::printf("\nwrote %s\n", path.c_str());
  else
    std::fprintf(stderr, "bench_analysis: cannot write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  static std::vector<Workload> ws = latency_workloads();
  for (const Workload& w : ws)
    benchmark::RegisterBenchmark(("BM_StaticEstimate/" + w.name).c_str(),
                                 BM_StaticEstimate, &w);
  benchmark::RunSpecifiedBenchmarks();

  std::string path = "BENCH_analysis.json";
  if (argc > 1 && argv[1][0] != '-') path = argv[1];
  write_report(path);
  return 0;
}
