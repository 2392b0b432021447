// E-SIM — Scalar vs packed vs block-wide simulation throughput.
//
// The packed backend evaluates 64 input patterns per gate operation with
// bitwise ops on uint64_t lanes (PPSFP-style); the block engine widens that
// to N×64 lanes streamed through runtime-dispatched SIMD kernels (portable /
// AVX2 / AVX-512). Targets: >= 10x gate-evals/sec scalar -> packed, and
// >= 5x single-word packed -> block-wide on the random-DAG sweep, all
// bit-identical. Every throughput row is the median [p25, p75] of 9
// back-to-back runs, each repeating its sweep until it lasts at least 50 ms.
// A sharded Monte Carlo section reports pairs/sec per lane-shard thread
// count (bit-identical across counts by construction).
// A layer table splits the activity sweep (sim::sweep_stream with toggles
// and the output stream) on multiplier8 and random_dag at the default width
// into setup, input transpose, gate eval, temporal toggles, toggle count and
// output transpose, next to the measured whole sweep.
//
// Results go to BENCH_simengine.json (cwd, or argv[1] after the
// google-benchmark flags) so future PRs can track the trajectory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/sampling_power.hpp"
#include "netlist/generators.hpp"
#include "sim/block_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/streams.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hlp;

struct Workload {
  std::string name;
  netlist::Module mod;
  stats::VectorStream in;
};

std::vector<Workload>& workloads() {
  static std::vector<Workload> w = [] {
    std::vector<Workload> v;
    stats::Rng rng(7);
    auto add = [&](std::string name, netlist::Module mod,
                   std::size_t cycles) {
      auto in = sim::random_stream(mod.total_input_bits(), cycles, 0.5, rng);
      v.push_back({std::move(name), std::move(mod), std::move(in)});
    };
    add("multiplier8", netlist::multiplier_module(8), 8192);
    add("random_dag", netlist::random_logic_module(32, 2000, 16, 42), 8192);
    add("adder16", netlist::adder_module(16), 8192);
    // mux5 is all Mux ops; alu8 interleaves Mux with two-input ops.
    add("mux5", netlist::mux_tree_module(5), 8192);
    add("alu8", netlist::alu_module(8), 8192);
    return v;
  }();
  return w;
}

double sum(const std::vector<double>& acts) {
  double s = 0.0;
  for (double a : acts) s += a;
  return s;
}

/// Packed activity sweep at `block_words` (0 = the dispatch default).
double run_activities(const Workload& w, int block_words) {
  sim::SimOptions opts;
  opts.block_words = block_words;
  return sum(sim::simulate_activities(w.mod.netlist, w.in, nullptr, opts));
}

/// The scalar baseline: the same sweep on `sim::Simulator`, one cycle per
/// eval.
double run_scalar_activities(const Workload& w) {
  sim::Simulator s(w.mod.netlist);
  sim::ActivityCollector col(w.mod.netlist);
  for (std::uint64_t word : w.in.words) {
    s.set_all_inputs(word);
    s.eval();
    col.record(s);
    s.tick();
  }
  return sum(col.activities());
}

/// The `block_words` value that selects the scalar baseline in run_sweep.
constexpr int kScalar = -1;

double run_sweep(const Workload& w, int block_words) {
  return block_words == kScalar ? run_scalar_activities(w)
                                : run_activities(w, block_words);
}

void BM_Sweep(benchmark::State& state, const Workload& w, int block_words) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sweep(w, block_words));
  }
  state.counters["gate_evals_per_sec"] = benchmark::Counter(
      static_cast<double>(w.mod.netlist.logic_gate_count() *
                          w.in.words.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

/// Median [p25, p75] of `v` (sorted in place).
std::array<double, 3> quartiles(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  auto at = [&v](double q) {
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) +
                                      0.5)];
  };
  return {at(0.5), at(0.25), at(0.75)};
}

/// Runs behind every throughput row.
constexpr int kRateRuns = 9;

/// Wall-clock rate of `pass` (one call does `evals` gate evaluations):
/// median [p25, p75] of kRateRuns back-to-back runs, each repeating `pass`
/// until it lasts at least 50 ms (the repeat count doubles from 1), so a
/// burst of host load shorter than a run cannot move a quartile.
template <class Pass>
std::array<double, 3> measure_rate(double evals, Pass&& pass) {
  using clock = std::chrono::steady_clock;
  auto run = [&pass](int repeats) {
    const auto t0 = clock::now();
    for (int i = 0; i < repeats; ++i) pass();
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  int repeats = 1;
  while (run(repeats) < 0.05 && repeats < (1 << 20)) repeats *= 2;
  std::vector<double> rates;
  for (int r = 0; r < kRateRuns; ++r)
    rates.push_back(evals * repeats / run(repeats));
  return quartiles(rates);
}

/// Gate-evals/sec of whole sweeps (`block_words` as in run_sweep).
std::array<double, 3> measure_evals_per_sec(const Workload& w,
                                            int block_words) {
  return measure_rate(
      static_cast<double>(w.mod.netlist.logic_gate_count() *
                          w.in.words.size()),
      [&] { benchmark::DoNotOptimize(run_sweep(w, block_words)); });
}

/// Kernel a width actually selects under the current CPU/env caps.
const char* width_dispatch(const netlist::Netlist& nl, int words) {
  sim::BlockSimulator bs(nl, words);
  return sim::to_string(bs.dispatch());
}

/// Pure gate-eval kernel throughput at a given width: repeatedly propagate
/// fresh input blocks through the combinational logic, no activity
/// counting or output transposition. This isolates what the SIMD kernels
/// buy; the sweep rows above include the (width-invariant) per-cycle
/// bookkeeping of a full activity run.
std::array<double, 3> measure_kernel_evals_per_sec(const Workload& w,
                                                   int words) {
  sim::BlockSimulator bs(w.mod.netlist, words);
  const std::size_t lanes = static_cast<std::size_t>(bs.lane_count());
  const std::size_t blocks = (w.in.words.size() + lanes - 1) / lanes;
  const double gate_evals =
      static_cast<double>(w.mod.netlist.logic_gate_count()) *
      static_cast<double>(blocks) * static_cast<double>(lanes);
  return measure_rate(gate_evals, [&] {
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t base = b * lanes;
      const std::size_t n = std::min(lanes, w.in.words.size() - base);
      bs.set_inputs_from_cycles(std::span(w.in.words.data() + base, n));
      bs.eval();
    }
    benchmark::DoNotOptimize(bs.lane_words(0));
  });
}

/// The packed activity sweep (`sim::sweep_stream` asked for toggles and the
/// output stream) split into its layers, each under its own clock, in
/// microseconds per sweep. `setup` is the block simulator and buffers.
/// The layers time a copy of the library's packed loop (`sweep_packed` in
/// sim/simulator.cpp), which has to be edited along with it: a change to
/// the library loop moves the measured sweep, not these rows. The copy is
/// checked to compute the library's toggles and output stream.
struct SweepLayers {
  double setup = 0, transpose_in = 0, eval = 0, toggles = 0, count = 0,
         transpose_out = 0;
  double sum() const {
    return setup + transpose_in + eval + toggles + count + transpose_out;
  }
};

SweepLayers time_sweep_layers(const Workload& w, int words) {
  using clock = std::chrono::steady_clock;
  SweepLayers t;
  auto timed = [](double& acc, auto&& stage) {
    const auto t0 = clock::now();
    stage();
    acc += std::chrono::duration<double, std::micro>(clock::now() - t0).count();
  };
  const auto& nl = w.mod.netlist;
  const std::size_t n = nl.gate_count();
  const std::size_t total = w.in.words.size();
  std::optional<sim::BlockSimulator> bs;
  std::vector<std::uint8_t> last;
  std::vector<std::uint64_t> tw, counts, ob, out;
  timed(t.setup, [&] {
    bs.emplace(nl, words);
    last.assign(n, 0);
    tw.resize(n * static_cast<std::size_t>(bs->words()));
    counts.assign(n, 0);
    ob.resize(static_cast<std::size_t>(bs->lane_count()));
    out.reserve(total);
  });
  const auto W = static_cast<std::size_t>(bs->words());
  const auto lanes = static_cast<std::size_t>(bs->lane_count());
  for (std::size_t base = 0; base < total; base += lanes) {
    const std::size_t count = std::min(lanes, total - base);
    timed(t.transpose_in, [&] {
      bs->set_inputs_from_cycles(std::span(w.in.words).subspan(base, count));
    });
    timed(t.eval, [&] { bs->eval(); });
    timed(t.toggles,
          [&] { bs->temporal_toggles(count, base == 0, last, tw); });
    timed(t.count, [&] {
      for (std::size_t g = 0; g < n; ++g)
        for (std::size_t k = 0; k < W; ++k)
          counts[g] += static_cast<std::uint64_t>(std::popcount(tw[g * W + k]));
    });
    timed(t.transpose_out, [&] {
      bs->outputs_to_cycles(std::span(ob).first(count));
      out.insert(out.end(), ob.begin(),
                 ob.begin() + static_cast<std::ptrdiff_t>(count));
    });
  }
  std::vector<std::uint64_t> lib_counts;
  stats::VectorStream lib_out;
  sim::SimOptions opts;
  opts.block_words = words;
  sim::sweep_stream(nl, w.in, opts, &lib_counts, nullptr, nullptr, &lib_out);
  if (counts != lib_counts || out != lib_out.words) {
    std::fprintf(stderr, "bench_simengine: sweep layer copy on %s differs "
                 "from sim::sweep_stream\n", w.name.c_str());
    std::exit(1);
  }
  return t;
}

void write_report(const std::string& path) {
  benchjson::Array circuits;
  std::printf("\nE-SIM — scalar vs packed vs block sweep throughput "
              "(gate-evals/sec, median [p25, p75] of %d runs of at least "
              "50 ms each)\n\n",
              kRateRuns);
  std::printf("%12s %6s %6s %30s %30s %30s %7s %7s\n", "circuit", "gates",
              "cycles", "scalar", "packed_w1", "block", "pk/sc", "blk/pk");
  const int block_w = sim::default_block_words();
  for (const auto& w : workloads()) {
    const auto scalar = measure_evals_per_sec(w, kScalar);
    // W=1 is the historical single-word packed engine (portable kernel by
    // construction: one word is not SIMD-divisible).
    const auto packed1 = measure_evals_per_sec(w, /*block_words=*/1);
    const auto block = measure_evals_per_sec(w, block_w);
    const double speedup = packed1[0] / scalar[0];
    const double widening = block[0] / packed1[0];
    std::printf("%12s %6zu %6zu %9.3e [%.2e, %.2e] %9.3e [%.2e, %.2e] "
                "%9.3e [%.2e, %.2e] %6.1fx %6.1fx\n",
                w.name.c_str(), w.mod.netlist.logic_gate_count(),
                w.in.words.size(), scalar[0], scalar[1], scalar[2],
                packed1[0], packed1[1], packed1[2], block[0], block[1],
                block[2], speedup, widening);
    circuits.push_back(benchjson::Object{
        {"name", w.name},
        {"gates", w.mod.netlist.logic_gate_count()},
        {"cycles", w.in.words.size()},
        {"runs", kRateRuns},
        {"scalar_gate_evals_per_sec", scalar[0]},
        {"scalar_gate_evals_per_sec_p25", scalar[1]},
        {"scalar_gate_evals_per_sec_p75", scalar[2]},
        {"packed_gate_evals_per_sec", packed1[0]},
        {"packed_gate_evals_per_sec_p25", packed1[1]},
        {"packed_gate_evals_per_sec_p75", packed1[2]},
        {"block_gate_evals_per_sec", block[0]},
        {"block_gate_evals_per_sec_p25", block[1]},
        {"block_gate_evals_per_sec_p75", block[2]},
        {"block_words", block_w},
        {"speedup", speedup},
        {"block_over_packed", widening},
    });
  }

  // Width sweep on the random DAG: same bits at every width, different
  // kernels (the dispatch column records which one each width is eligible
  // for on this host).
  benchjson::Array widths;
  const Workload& dag = workloads()[1];
  std::printf("\nblock width sweep (%s, dispatch cap: %s)\n",
              dag.name.c_str(), sim::to_string(sim::active_dispatch()));
  double kernel_w1 = 0.0, kernel_best = 0.0;
  for (int wds : {1, 2, 4, 8, 16, 32}) {
    const auto evals = measure_evals_per_sec(dag, wds);
    const auto kernel = measure_kernel_evals_per_sec(dag, wds);
    const char* disp = width_dispatch(dag.mod.netlist, wds);
    if (wds == 1) kernel_w1 = kernel[0];
    kernel_best = std::max(kernel_best, kernel[0]);
    std::printf("  W=%-3d (%8s): %9.3e [%.2e, %.2e] activity  "
                "%9.3e [%.2e, %.2e] kernel-only gate-evals/sec\n",
                wds, disp, evals[0], evals[1], evals[2], kernel[0],
                kernel[1], kernel[2]);
    widths.push_back(benchjson::Object{
        {"words", wds},
        {"dispatch", disp},
        {"runs", kRateRuns},
        {"gate_evals_per_sec", evals[0]},
        {"gate_evals_per_sec_p25", evals[1]},
        {"gate_evals_per_sec_p75", evals[2]},
        {"kernel_gate_evals_per_sec", kernel[0]},
        {"kernel_gate_evals_per_sec_p25", kernel[1]},
        {"kernel_gate_evals_per_sec_p75", kernel[2]},
    });
  }
  const double kernel_widening = kernel_best / kernel_w1;
  std::printf("  kernel-only widening (best median / W=1 median): %.1fx\n",
              kernel_widening);

  // The activity sweep with its output stream, split into layers at the
  // default width: whole sweeps and layer splits alternate, so both see
  // the same host; medians of kLayerReps.
  constexpr int kLayerReps = 21;
  benchjson::Array sweep_layers;
  std::printf("\nactivity sweep layers (W=%d, us per %zu-cycle sweep with "
              "output stream; medians of %d, sum/sweep should read within "
              "10%% of 1)\n",
              block_w, workloads()[0].in.words.size(), kLayerReps);
  std::printf("%14s %22s %7s %7s %7s %7s %7s %7s %8s %6s\n", "circuit",
              "sweep", "setup", "in", "eval", "toggle", "count", "out", "sum",
              "ratio");
  for (const Workload* w : {&workloads()[0], &workloads()[1]}) {
    sim::SimOptions opts;
    opts.block_words = block_w;
    std::vector<double> sweep_us;
    std::vector<SweepLayers> split;
    for (int r = 0; r < kLayerReps; ++r) {
      stats::VectorStream out;
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(
          sim::simulate_activities(w->mod.netlist, w->in, &out, opts));
      sweep_us.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
      split.push_back(time_sweep_layers(*w, block_w));
    }
    const auto [p50, p25, p75] = quartiles(sweep_us);
    SweepLayers m;
    for (double SweepLayers::*f :
         {&SweepLayers::setup, &SweepLayers::transpose_in, &SweepLayers::eval,
          &SweepLayers::toggles, &SweepLayers::count,
          &SweepLayers::transpose_out}) {
      std::vector<double> v;
      for (const SweepLayers& l : split) v.push_back(l.*f);
      m.*f = quartiles(v)[0];
    }
    const double ratio = p50 > 0.0 ? m.sum() / p50 : 0.0;
    std::printf("%14s %8.1f [%.1f, %.1f] %7.1f %7.1f %7.1f %7.1f %7.1f %7.1f "
                "%8.1f %6.2f%s\n",
                w->name.c_str(), p50, p25, p75, m.setup, m.transpose_in,
                m.eval, m.toggles, m.count, m.transpose_out, m.sum(), ratio,
                std::abs(ratio - 1.0) <= 0.10 ? "" : "  (outside 10%)");
    sweep_layers.push_back(benchjson::Object{
        {"name", w->name},
        {"block_words", block_w},
        {"cycles", w->in.words.size()},
        {"runs", kLayerReps},
        {"sweep_us_p50", p50},
        {"sweep_us_p25", p25},
        {"sweep_us_p75", p75},
        {"setup_us", m.setup},
        {"input_transpose_us", m.transpose_in},
        {"gate_eval_us", m.eval},
        {"temporal_toggles_us", m.toggles},
        {"toggle_count_us", m.count},
        {"output_transpose_us", m.transpose_out},
        {"layer_sum_us", m.sum()},
        {"sum_over_sweep", ratio},
    });
  }

  // Sharded Monte Carlo: pairs/sec per lane-shard thread count. Results
  // are bit-identical across rows (chunked claim order + per-chunk seeds);
  // only throughput may differ, and on a single-core host it will not.
  benchjson::Array shards;
  {
    auto mod = netlist::multiplier_module(8);
    core::ShardedMcOptions so;
    so.total_pairs = 200000;
    so.chunk_pairs = 4096;
    so.epsilon = 0.0;  // exhaustive: fixed work per row
    std::printf("\nsharded Monte Carlo (%s, %zu pairs)\n", "multiplier8",
                so.total_pairs);
    using clock = std::chrono::steady_clock;
    for (int threads : {1, 2, 4, 8}) {
      so.threads = threads;
      double best = 0.0;
      double mean = 0.0;
      for (int r = 0; r < 3; ++r) {
        auto t0 = clock::now();
        auto out = core::monte_carlo_power_sharded(mod, 7, so);
        auto t1 = clock::now();
        double secs = std::chrono::duration<double>(t1 - t0).count();
        if (secs > 0.0)
          best = std::max(best,
                          static_cast<double>(out->pairs) / secs);
        mean = out->mean_energy;
      }
      std::printf("  threads %d: %12.3e pairs/sec (mean %.6g)\n", threads,
                  best, mean);
      shards.push_back(benchjson::Object{
          {"threads", threads},
          {"pairs_per_sec", best},
          {"mean_energy", mean},
      });
    }
  }

  benchjson::Object root{
      {"bench", "simengine"},
      {"machine", benchjson::machine()},
      {"metric", "gate_evals_per_sec"},
      {"engines", benchjson::Array{"scalar", "packed", "block"}},
      {"dispatch", sim::to_string(sim::active_dispatch())},
      {"default_block_words", block_w},
      {"circuits", std::move(circuits)},
      {"block_widths", std::move(widths)},
      {"kernel_widening", kernel_widening},
      {"sweep_layers", std::move(sweep_layers)},
      {"sharded_monte_carlo", std::move(shards)},
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
    benchmark::RegisterBenchmark(("BM_Sweep_scalar/" + w.name).c_str(),
                                 [&w](benchmark::State& st) {
                                   BM_Sweep(st, w, kScalar);
                                 });
    benchmark::RegisterBenchmark(("BM_Sweep_packed/" + w.name).c_str(),
                                 [&w](benchmark::State& st) {
                                   BM_Sweep(st, w, 0);
                                 });
  }
  benchmark::RunSpecifiedBenchmarks();
  const char* path = "BENCH_simengine.json";
  if (argc > 1 && argv[1][0] != '-') path = argv[1];
  write_report(path);
  return 0;
}
