// E-EXEC — Cost of budgeted execution (src/exec).
//
// Two questions decide whether exec::Budget can stay on by default:
//
//  1. Overhead: metering the Monte Carlo hot loop (one non-throwing
//     over_budget() probe per vector pair, every budget dimension armed but
//     never tripping) must cost < 2% of the unmetered estimator's
//     throughput.
//
//  2. Time-to-degrade: when a BDD node cap trips on an adversarially
//     ordered build, how long from call to (a) the BudgetExceeded unwind
//     and (b) a usable degraded answer from the sampling fallback.
//
// Results go to BENCH_exec.json (cwd, or argv[1] after the
// google-benchmark flags).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "bdd/netlist_bdd.hpp"
#include "bench_json.hpp"
#include "core/precomputation.hpp"
#include "core/sampling_power.hpp"
#include "exec/exec.hpp"
#include "netlist/generators.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hlp;
using clock_type = std::chrono::steady_clock;

constexpr std::size_t kPairs = 20000;

/// All-dimensions-armed budget that never trips within kPairs pairs: the
/// probe pays for quota + cancel + deadline checks every single pair.
exec::Budget armed_budget() {
  exec::Budget b;
  b.step_quota = kPairs + 1;
  b.deadline_seconds = 3600.0;
  return b;
}

double run_mc_plain(const netlist::Module& mod) {
  stats::Rng rng(11);
  const int bits = std::min(64, mod.total_input_bits());
  auto res = core::monte_carlo_power(
      mod, [&] { return rng.uniform_bits(bits); }, 1e-12, 0.95, kPairs,
      kPairs);
  return res.mean_energy;
}

double run_mc_budgeted(const netlist::Module& mod) {
  stats::Rng rng(11);
  const int bits = std::min(64, mod.total_input_bits());
  auto out = core::monte_carlo_power_budgeted(
      mod, [&] { return rng.uniform_bits(bits); }, armed_budget(), 1e-12,
      0.95, kPairs, kPairs);
  return out->mean_energy;
}

/// Best-of-`reps` pairs/sec to damp scheduler noise.
template <typename Fn>
double measure_pairs_per_sec(Fn&& fn, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = clock_type::now();
    benchmark::DoNotOptimize(fn());
    auto t1 = clock_type::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    if (secs > 0.0)
      best = std::max(best, static_cast<double>(kPairs) / secs);
  }
  return best;
}

void BM_MonteCarlo(benchmark::State& state, bool budgeted) {
  auto mod = netlist::adder_module(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(budgeted ? run_mc_budgeted(mod)
                                      : run_mc_plain(mod));
  }
  state.counters["pairs_per_sec"] = benchmark::Counter(
      static_cast<double>(kPairs),
      benchmark::Counter::kIsIterationInvariantRate);
}

struct DegradeTiming {
  double trip_seconds = 0.0;      ///< call -> BudgetExceeded unwind
  double fallback_seconds = 0.0;  ///< call -> degraded answer in hand
  bool degraded = false;
};

/// (a) Raw trip latency: adversarially ordered adder build against a node
/// cap. (b) End-to-end degrade latency: the precomputation selector on the
/// same kind of blow-up, through its sampling fallback.
DegradeTiming measure_time_to_degrade() {
  DegradeTiming t;
  {
    auto mod = netlist::adder_module(14);  // concatenated order: exponential
    bdd::Manager m;
    exec::Meter meter(exec::Budget::with_node_cap(20000));
    m.set_meter(&meter);
    auto t0 = clock_type::now();
    try {
      (void)bdd::build_bdds(m, mod.netlist);
    } catch (const exec::BudgetExceeded&) {
      t.trip_seconds =
          std::chrono::duration<double>(clock_type::now() - t0).count();
    }
  }
  {
    auto mod = netlist::comparator_module(10);
    auto t0 = clock_type::now();
    auto out = core::select_precompute_inputs_budgeted(
        mod, 2, exec::Budget::with_node_cap(64));
    t.fallback_seconds =
        std::chrono::duration<double>(clock_type::now() - t0).count();
    t.degraded = out.degraded();
  }
  return t;
}

void write_report(const std::string& path) {
  auto mod = netlist::adder_module(8);
  std::printf("\nE-EXEC — budget-probe overhead on the Monte Carlo hot "
              "loop (%zu pairs, all budget dimensions armed)\n\n", kPairs);
  std::printf("%16s %16s %10s\n", "plain pairs/s", "budgeted pairs/s",
              "overhead");
  const double plain =
      measure_pairs_per_sec([&] { return run_mc_plain(mod); }, 5);
  const double budgeted =
      measure_pairs_per_sec([&] { return run_mc_budgeted(mod); }, 5);
  const double pct = plain > 0.0 ? (plain - budgeted) / plain * 100.0 : 0.0;
  std::printf("%16.3e %16.3e %9.2f%%\n", plain, budgeted, pct);
  benchjson::Array overhead{benchjson::Object{
      {"engine", "packed"},
      {"pairs", kPairs},
      {"plain_pairs_per_sec", plain},
      {"budgeted_pairs_per_sec", budgeted},
      {"overhead_percent", pct},
  }};

  auto deg = measure_time_to_degrade();
  std::printf("\ntime-to-degrade (node-cap trip)\n");
  std::printf("  adversarial adder14 build, cap 20000: trip in %.3f ms\n",
              deg.trip_seconds * 1e3);
  std::printf("  precompute select comparator10, cap 64: degraded answer "
              "in %.3f ms (degraded=%d)\n",
              deg.fallback_seconds * 1e3, deg.degraded ? 1 : 0);

  benchjson::Object root{
      {"bench", "exec"},
      {"machine", benchjson::machine()},
      {"overhead_target_percent", 2.0},
      {"monte_carlo_overhead", std::move(overhead)},
      {"node_cap_degrade",
       benchjson::Object{
           {"bdd_trip_seconds", deg.trip_seconds},
           {"precompute_fallback_seconds", deg.fallback_seconds},
           {"precompute_degraded", deg.degraded},
       }},
  };
  if (benchjson::save(path, root))
    std::printf("\nwrote %s\n", path.c_str());
  else
    std::printf("\nfailed to write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RegisterBenchmark(
      "BM_MonteCarlo_plain/packed",
      [](benchmark::State& st) { BM_MonteCarlo(st, false); });
  benchmark::RegisterBenchmark(
      "BM_MonteCarlo_budgeted/packed",
      [](benchmark::State& st) { BM_MonteCarlo(st, true); });
  benchmark::RunSpecifiedBenchmarks();
  const char* path = "BENCH_exec.json";
  if (argc > 1 && argv[1][0] != '-') path = argv[1];
  write_report(path);
  return 0;
}
