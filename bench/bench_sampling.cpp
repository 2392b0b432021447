// E10 — Sampling-based power co-simulation (Section II-C2, Hsieh et al.
// [46]).
//
// Paper claims:
//  * sampler macro-modeling: ~50x efficiency over census at ~1% error;
//  * census of a biased macro-model: ~30% error vs. gate level;
//  * adaptive macro-modeling: ~5% error using few gate-level cycles.
//
// The wall-clock part is measured with google-benchmark; the accuracy part
// is printed as a table.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_json.hpp"
#include "core/compaction.hpp"
#include "core/sampling_power.hpp"
#include "netlist/generators.hpp"
#include "sim/block_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/streams.hpp"
#include "sim/toggle_energy.hpp"
#include "stats/descriptive.hpp"
#include "stats/exact_moments.hpp"

namespace {

using namespace hlp;
using namespace hlp::core;

struct Setup {
  netlist::Module mod = netlist::adder_module(8);
  ModuleCharacterization train, eval;
  InputOutputModel io;

  explicit Setup(double hold) {
    stats::Rng rng(5);
    auto train_in = sim::random_stream(16, 3000, 0.5, rng);
    train = characterize(mod, train_in);
    io.fit(train);
    auto eval_in = hold > 0.0
                       ? sim::correlated_stream(16, 20000, hold, rng)
                       : sim::random_stream(16, 20000, 0.5, rng);
    eval = characterize(mod, eval_in);
  }
  MacroFn model() const {
    return [this](const ModuleCharacterization& c, std::size_t t) {
      return io.predict_cycle(c.in_activity[t], c.out_activity[t]);
    };
  }
};

Setup& unbiased() {
  static Setup s(0.0);
  return s;
}
Setup& biased() {
  static Setup s(0.9);
  return s;
}

void BM_CensusEstimate(benchmark::State& state) {
  auto& s = unbiased();
  auto m = s.model();
  for (auto _ : state) {
    auto est = census_estimate(s.eval, m);
    benchmark::DoNotOptimize(est.mean_energy);
  }
  state.counters["macro_evals"] =
      static_cast<double>(s.eval.transitions());
}
BENCHMARK(BM_CensusEstimate);

void BM_SamplerEstimate(benchmark::State& state) {
  auto& s = unbiased();
  auto m = s.model();
  auto n_samples = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(11);
  for (auto _ : state) {
    auto est = sampler_estimate(s.eval, m, 30, n_samples, rng);
    benchmark::DoNotOptimize(est.mean_energy);
  }
  state.counters["macro_evals"] = static_cast<double>(30 * n_samples);
}
BENCHMARK(BM_SamplerEstimate)->Arg(1)->Arg(4)->Arg(13);

void BM_AdaptiveEstimate(benchmark::State& state) {
  auto& s = biased();
  auto m = s.model();
  stats::Rng rng(13);
  for (auto _ : state) {
    auto est = adaptive_estimate(s.eval, m, 100, rng);
    benchmark::DoNotOptimize(est.mean_energy);
  }
}
BENCHMARK(BM_AdaptiveEstimate);

void print_accuracy_tables() {
  std::printf("\nE10 — estimator accuracy (adder-8, 20k evaluation "
              "cycles)\n\n");
  {
    auto& s = unbiased();
    auto census = census_estimate(s.eval, s.model());
    std::printf("sampler vs census (in-distribution data):\n");
    std::printf("%10s %12s %12s %10s\n", "samples", "evals", "speedup",
                "err-vs-census");
    for (std::size_t k : {1, 2, 4, 8, 13}) {
      stats::RunningStats err;
      for (std::uint64_t seed = 0; seed < 20; ++seed) {
        stats::Rng rng(seed);
        auto est = sampler_estimate(s.eval, s.model(), 30, k, rng);
        err.add(std::abs(est.mean_energy - census.mean_energy) /
                census.mean_energy);
      }
      std::printf("%10zu %12zu %11.1fx %9.2f%%\n", k, 30 * k,
                  static_cast<double>(s.eval.transitions()) /
                      static_cast<double>(30 * k),
                  100.0 * err.mean());
    }
    std::printf("(paper: ~50x efficiency at ~1%% error; 13 samples of 30 "
                "= 390 evals over 20k cycles ~ 51x)\n\n");
  }
  {
    auto& s = biased();
    double ref = gate_level_mean(s.eval);
    auto census = census_estimate(s.eval, s.model());
    double census_err =
        std::abs(census.mean_energy - ref) / ref;
    stats::RunningStats aerr;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      stats::Rng rng(100 + seed);
      auto est = adaptive_estimate(s.eval, s.model(), 100, rng);
      aerr.add(std::abs(est.mean_energy - ref) / ref);
    }
    std::printf("biased macro-model (trained on white noise, evaluated on "
                "correlated data):\n");
    std::printf("  census error vs gate level:   %6.1f%%   (paper: ~30%%)\n",
                100.0 * census_err);
    std::printf("  adaptive error vs gate level: %6.1f%%   (paper: ~5%%), "
                "using 100 gate-level cycles of %zu\n",
                100.0 * aerr.mean(), s.eval.transitions());
  }

  // Monte Carlo gate-level estimation with CI stopping (Burch et al. [32]).
  std::printf("\nMonte Carlo gate-level estimation (II-C step 4, [32]):\n");
  std::printf("%10s %10s %12s %12s\n", "epsilon", "pairs", "estimate",
              "ref-error");
  {
    auto mod = netlist::adder_module(8);
    stats::Rng rr(3);
    auto chr = characterize(mod, sim::random_stream(16, 20000, 0.5, rr));
    double ref = chr.mean_energy();
    for (double eps : {0.10, 0.05, 0.02, 0.01}) {
      stats::Rng vg(17);
      auto res = monte_carlo_power(
          mod, [&] { return vg.uniform_bits(16); }, eps);
      std::printf("%10.2f %10zu %12.2f %11.2f%%\n", eps, res.pairs,
                  res.mean_energy,
                  100.0 * std::abs(res.mean_energy - ref) / ref);
    }
    std::printf("(pairs needed grow ~1/eps^2; each run replaces a 20k-cycle "
                "census)\n");
  }

  // Sequence compaction (Marculescu et al. [36]-[38]).
  std::printf("\nAutomata-based sequence compaction ([36]-[38]):\n");
  std::printf("%12s %12s %12s %12s %12s\n", "compaction", "q-err", "act-err",
              "power-err", "");
  {
    auto mod = netlist::alu_module(6);
    stats::Rng rr(9);
    auto original = sim::correlated_stream(mod.total_input_bits(), 40000,
                                           0.85, rr);
    auto chr_full = characterize(mod, original);
    for (std::size_t target : {8000, 2000, 500}) {
      auto compacted = compact_stream(original, target, 11);
      auto fid = compaction_fidelity(original, compacted);
      auto chr_cmp = characterize(mod, compacted);
      std::printf("%11zux %12.4f %12.4f %11.2f%%\n",
                  original.words.size() / target, fid.signal_prob_error,
                  fid.activity_error,
                  100.0 *
                      std::abs(chr_cmp.mean_energy() - chr_full.mean_energy()) /
                      chr_full.mean_energy());
    }
    std::printf("(paper: compacted sequences preserve the statistics power "
                "simulation depends on at large simulation speedups)\n");
  }
}

/// One design's Monte Carlo pair loop split into its layers, in ns/pair:
/// the stages the estimator runs per batch (core/sampling_power.cpp
/// `PairSampler`), each under its own clock. The designs use the default
/// capacitance model, so the run keeps exact integer moments: `readout` is
/// the counter's integer readout and `stop` the integer stop rule.
struct Layers {
  double draw = 0, transpose = 0, eval = 0, swap = 0, count = 0, readout = 0,
         stop = 0;
  double sum() const {
    return draw + transpose + eval + swap + count + readout + stop;
  }
  static constexpr double Layers::*kFields[] = {
      &Layers::draw,  &Layers::transpose, &Layers::eval, &Layers::swap,
      &Layers::count, &Layers::readout,   &Layers::stop};
};

Layers time_layers(const netlist::Module& mod, std::size_t pairs) {
  using clock = std::chrono::steady_clock;
  const auto& nl = mod.netlist;
  const int n_in = mod.total_input_bits();
  const sim::LoadClasses classes(nl.loads());
  if (!classes.narrow()) std::abort();  // the default model always passes
  sim::BlockSimulator bs(nl, 0);
  sim::ToggleEnergy energy(classes, bs.words());
  const auto lanes = static_cast<std::size_t>(bs.lane_count());
  std::vector<std::uint64_t> drawn(2 * lanes), w1(lanes), w2(lanes), q(lanes);
  stats::Rng rng(23);
  stats::ExactMoments m;
  const stats::RelativeCiRule rule(1e-9, 0.95);
  std::uint64_t next_test = 30;  // as the estimator: min_pairs, then skips
  bool converged = false;
  Layers t;
  auto timed = [](double& acc, auto&& stage) {
    const auto t0 = clock::now();
    stage();
    acc += std::chrono::duration<double, std::nano>(clock::now() - t0).count();
  };
  for (std::size_t done = 0; done < pairs;) {
    const std::size_t batch = std::min(lanes, pairs - done);
    timed(t.draw, [&] {
      rng.fill_packed(std::span(drawn).first(2 * batch), n_in);
      for (std::size_t k = 0; k < batch; ++k) {
        w1[k] = drawn[2 * k];
        w2[k] = drawn[2 * k + 1];
      }
    });
    timed(t.transpose,
          [&] { bs.set_inputs_from_cycles(std::span(w1).first(batch)); });
    timed(t.eval, [&] { bs.eval(); });
    timed(t.swap, [&] { bs.swap_lanes(); });
    timed(t.transpose,
          [&] { bs.set_inputs_from_cycles(std::span(w2).first(batch)); });
    timed(t.eval, [&] { bs.eval(); });
    timed(t.count, [&] { energy.count(bs.previous_lanes(), bs.lanes()); });
    timed(t.readout, [&] { energy.quanta(batch, q.data()); });
    timed(t.stop, [&] {
      // The estimator's loop: add up to the next pair worth testing, then
      // test it.
      for (std::span<const std::uint64_t> qs(q.data(), batch);
           !qs.empty() && !converged;) {
        const std::size_t k = std::min<std::uint64_t>(
            qs.size(), next_test > m.count() ? next_test - m.count() : 1);
        m.add(qs.first(k));
        qs = qs.subspan(k);
        if (m.count() < next_test) break;
        converged = rule(m);
        if (!converged)
          next_test = rule.next_candidate(m, classes.quanta_bound());
      }
    });
    done += batch;
  }
  benchmark::DoNotOptimize(m);
  for (double Layers::*f : Layers::kFields) t.*f /= static_cast<double>(pairs);
  return t;
}

/// Monte Carlo cost per vector pair at the default block width on the two
/// designs the perfbench campaign samples (mult:8, random:24:2000:8) and
/// two more, with each design's per-layer split, plus the scalar vs packed
/// throughput row on the 8x8 multiplier, written to BENCH_sampling.json
/// with the host it ran on.
void write_engine_report(const char* path) {
  using clock = std::chrono::steady_clock;
  // One Monte Carlo run of `pairs` pairs through the Rng overload (epsilon
  // too small to stop early, so every pair also pays the stop-rule test);
  // returns seconds.
  auto run = [](const netlist::Module& mod, std::size_t pairs) {
    stats::Rng vg(23);
    auto t0 = clock::now();
    auto res = monte_carlo_power_budgeted(mod, vg, {}, 1e-9, 0.95, 30, pairs);
    auto t1 = clock::now();
    benchmark::DoNotOptimize(res->mean_energy);
    return std::chrono::duration<double>(t1 - t0).count();
  };
  // The scalar baseline: the same pairs and stop rule on `sim::Simulator`,
  // one pair per step, energy summed over the gates that toggled and kept
  // as exact integer moments.
  auto run_scalar = [](const netlist::Module& mod, std::size_t pairs) {
    const auto& nl = mod.netlist;
    const auto loads = nl.loads();
    const int n_in = mod.total_input_bits();
    const int scale = sim::LoadClasses(loads).scale();
    stats::Rng vg(23);
    sim::Simulator s(nl);
    std::vector<std::uint8_t> prev(nl.gate_count());
    stats::ExactMoments m;
    const stats::RelativeCiRule rule(1e-9, 0.95);
    auto t0 = clock::now();
    for (std::size_t k = 0; k < pairs; ++k) {
      s.set_all_inputs(vg.uniform_bits(n_in));
      s.eval();
      for (netlist::GateId g = 0; g < nl.gate_count(); ++g)
        prev[g] = s.value(g) ? 1 : 0;
      s.set_all_inputs(vg.uniform_bits(n_in));
      s.eval();
      double e = 0.0;
      for (netlist::GateId g = 0; g < nl.gate_count(); ++g)
        if ((s.value(g) ? 1 : 0) != prev[g]) e += loads[g];
      m.add(static_cast<std::uint64_t>(std::ldexp(e, scale)));
      if (m.count() >= 30 && rule(m)) break;
    }
    auto t1 = clock::now();
    benchmark::DoNotOptimize(m);
    return std::chrono::duration<double>(t1 - t0).count();
  };

  constexpr int kReps = 9;
  // Median [p25, p75] of kReps sorted samples.
  auto quartiles = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return std::array<double, 3>{v[kReps / 2], v[kReps / 4],
                                 v[kReps - 1 - kReps / 4]};
  };

  // Each engine's throughput is the median of kReps runs, and every run
  // lasts at least 50 ms so scheduler noise cannot swing it: the pair
  // count doubles from 20000 until one run takes that long.
  auto mult8 = netlist::multiplier_module(8);
  struct Throughput {
    std::size_t pairs = 20000;
    std::array<double, 3> evals{};  // gate-evals/sec: median, p25, p75
  };
  auto measure = [&](auto&& run_once) {
    Throughput t;
    while (run_once(mult8, t.pairs) < 0.05 && t.pairs < (std::size_t{1} << 26))
      t.pairs *= 2;
    const double gate_evals = static_cast<double>(
        mult8.netlist.logic_gate_count() * t.pairs * 2);  // two per pair
    std::vector<double> v;
    for (int r = 0; r < kReps; ++r)
      v.push_back(gate_evals / run_once(mult8, t.pairs));
    t.evals = quartiles(std::move(v));
    return t;
  };
  const Throughput scalar = measure(run_scalar);
  const Throughput packed = measure(run);
  const double speedup = packed.evals[0] / scalar.evals[0];
  std::printf("\nMonte Carlo engine throughput (multiplier8, gate-evals/sec, "
              "median [p25, p75] of %d runs): scalar %.3e [%.3e, %.3e] over "
              "%zu pairs, packed %.3e [%.3e, %.3e] over %zu pairs (%.1fx)\n",
              kReps, scalar.evals[0], scalar.evals[1], scalar.evals[2],
              scalar.pairs, packed.evals[0], packed.evals[1], packed.evals[2],
              packed.pairs, speedup);

  struct Design {
    const char* name;
    netlist::Module mod;
  };
  const Design designs[] = {
      {"mult:8", netlist::multiplier_module(8)},
      {"mult:16", netlist::multiplier_module(16)},
      {"adder:16", netlist::adder_module(16)},
      {"random:24:2000:8", netlist::random_logic_module(24, 2000, 8, 8)},
  };
  std::printf("\nMonte Carlo ns/pair (packed, W=%d, median [p25, p75] of "
              "%d runs of at least 50 ms each), and its layers (medians; "
              "sum/total should read within 10%% of 1):\n",
              sim::default_block_words(), kReps);
  std::printf("%18s %6s %8s %8s %22s %6s %6s %6s %6s %6s %6s %6s %7s %6s\n",
              "design", "gates", "pairs", "l-pairs", "total", "draw",
              "trans", "eval", "swap", "count", "read", "stop", "sum",
              "ratio");
  benchjson::Array per_pair, layers;
  // The pair count of a run doubles from 65536 until one run lasts at
  // least 50 ms, so a burst of host load cannot move a whole quartile.
  auto sized = [](auto&& run_once) {
    std::size_t pairs = 65536;
    while (run_once(pairs) < 0.05 && pairs < (std::size_t{1} << 26))
      pairs *= 2;
    return pairs;
  };
  for (const Design& d : designs) {
    // Whole runs and layer splits are sized apart (the layer clocks cost
    // time of their own) and alternate, so both see the same host.
    const std::size_t mc_pairs =
        sized([&](std::size_t n) { return run(d.mod, n); });
    const std::size_t layer_pairs = sized([&](std::size_t n) {
      const auto t0 = clock::now();
      time_layers(d.mod, n);
      return std::chrono::duration<double>(clock::now() - t0).count();
    });
    std::vector<double> ns;
    std::vector<Layers> split;
    for (int r = 0; r < kReps; ++r) {
      ns.push_back(run(d.mod, mc_pairs) * 1e9 /
                   static_cast<double>(mc_pairs));
      split.push_back(time_layers(d.mod, layer_pairs));
    }
    const auto [p50, p25, p75] = quartiles(ns);
    Layers m;
    for (double Layers::*f : Layers::kFields) {
      std::vector<double> v;
      for (const Layers& l : split) v.push_back(l.*f);
      m.*f = quartiles(v)[0];
    }
    const double ratio = p50 > 0.0 ? m.sum() / p50 : 0.0;
    std::printf("%18s %6zu %8zu %8zu %9.1f [%.1f, %.1f] %6.1f %6.1f %6.1f "
                "%6.1f %6.1f %6.1f %6.1f %7.1f %6.2f%s\n",
                d.name, d.mod.netlist.gate_count(), mc_pairs, layer_pairs,
                p50, p25, p75, m.draw, m.transpose, m.eval, m.swap, m.count,
                m.readout, m.stop, m.sum(), ratio,
                std::abs(ratio - 1.0) <= 0.10 ? "" : "  (outside 10%)");
    per_pair.push_back(benchjson::Object{
        {"design", d.name},
        {"gates", d.mod.netlist.gate_count()},
        {"pairs", mc_pairs},
        {"layer_pairs", layer_pairs},
        {"ns_per_pair_p50", p50},
        {"ns_per_pair_p25", p25},
        {"ns_per_pair_p75", p75},
    });
    layers.push_back(benchjson::Object{
        {"design", d.name},
        {"draw", m.draw},
        {"input_transpose", m.transpose},
        {"gate_eval", m.eval},
        {"lane_swap", m.swap},
        {"count", m.count},
        {"readout", m.readout},
        {"stop_rule", m.stop},
        {"layer_sum", m.sum()},
        {"total_p50", p50},
        {"sum_over_total", ratio},
    });
  }

  benchjson::Object root{
      {"bench", "sampling"},
      {"machine", benchjson::machine()},
      {"metric", "gate_evals_per_sec"},
      {"engines", benchjson::Array{"scalar", "packed"}},
      {"circuits",
       benchjson::Array{benchjson::Object{
           {"name", "multiplier8_monte_carlo"},
           {"gates", mult8.netlist.logic_gate_count()},
           {"runs", kReps},
           {"scalar_pairs", scalar.pairs},
           {"scalar_gate_evals_per_sec", scalar.evals[0]},
           {"scalar_gate_evals_per_sec_p25", scalar.evals[1]},
           {"scalar_gate_evals_per_sec_p75", scalar.evals[2]},
           {"packed_pairs", packed.pairs},
           {"packed_gate_evals_per_sec", packed.evals[0]},
           {"packed_gate_evals_per_sec_p25", packed.evals[1]},
           {"packed_gate_evals_per_sec_p75", packed.evals[2]},
           {"speedup", speedup},
       }}},
      {"block_words", sim::default_block_words()},
      {"monte_carlo_ns_per_pair", std::move(per_pair)},
      {"monte_carlo_layers_ns_per_pair", std::move(layers)},
  };
  if (benchjson::save(path, root)) std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_accuracy_tables();
  write_engine_report("BENCH_sampling.json");
  return 0;
}
