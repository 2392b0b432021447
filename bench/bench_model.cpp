// E-MODEL — Learned power macromodels: predicted-tier latency, fit cost,
// and held-out accuracy (src/model, DESIGN.md §12).
//
// Three questions decide whether the predicted serve tier earns its keep:
//
//  1. Latency: p50/p99 of a warm predicted answer (Service::handle_line
//     with an accuracy field, features memoized) against the cold symbolic
//     kernel the model replaces. The acceptance bar is >= 1000x: a
//     macromodel evaluation is an inner product plus a quadratic form, so
//     it must price in microseconds what the BDD kernel prices in tens of
//     milliseconds.
//
//  2. Fit cost: wall time of fit_macromodel (stepwise selection + strict
//     inference refit) as the characterization campaign grows. Fitting is
//     offline, but it sits inside hlp_fit's edit-compile loop, so the
//     trend with campaign size matters more than the constant.
//
//  3. Accuracy: held-out MAPE of a model trained on a real adder-family
//     characterization (symbolic labels at p = 0.5 crossed with biased-MC
//     labels off-center) — the number an operator reads before deciding a
//     family is safe to serve from the model at all.
//
// Results go to BENCH_model.json (cwd, or argv[1] after the
// google-benchmark flags).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "jobs/kernels.hpp"
#include "model/artifact.hpp"
#include "model/characterize.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace {

using namespace hlp;
using clock_type = std::chrono::steady_clock;

std::string accuracy_line(const std::string& design, double accuracy) {
  serve::Request rq;
  rq.op = serve::Op::Estimate;
  rq.kind = jobs::JobKind::Symbolic;
  rq.design = design;
  rq.has_accuracy = true;
  rq.accuracy = accuracy;
  return rq.serialize();
}

/// Train the adder-family model once for the whole report.
model::FitReport train_adder_model() {
  model::SweepSpec spec;
  spec.family = "adder";
  spec.kind = jobs::JobKind::Symbolic;
  spec.params = {4, 6, 8, 10, 12};
  spec.input_p = {0.3, 0.5, 0.7};
  jobs::RunnerOptions ropts;
  ropts.workers = 4;
  const model::Characterization ch = model::characterize(spec, ropts);
  return model::fit_macromodel(ch.rows, "adder", "symbolic");
}

/// Synthetic characterization rows for the fit-scaling curve (the fit cost
/// depends on row count and feature count, not on where rows came from).
std::vector<model::Row> synthetic_rows(std::size_t n) {
  std::vector<model::Row> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < model::kFeatureCount; ++f)
      rows[i].x.v[f] = 0.01 * static_cast<double>((i * (f + 2) + f) % 101);
    rows[i].power = 5.0 + 3.0 * rows[i].x.v[0] - 1.5 * rows[i].x.v[4] +
                    0.25 * rows[i].x.v[7];
  }
  return rows;
}

void BM_PredictedHandleLine(benchmark::State& st) {
  const model::FitReport rep = train_adder_model();
  const std::string path = "BENCH_model_tmp.hlpm";
  std::string err;
  const std::vector<model::Macromodel> models = {rep.model};
  if (!model::save_models_file(path, models, err)) {
    st.SkipWithError("save_models_file failed");
    return;
  }
  serve::ServiceOptions opts;
  opts.workers = 0;
  opts.model_path = path;
  serve::Service service(opts);
  const std::string line = accuracy_line("adder:8", 0.5);
  benchmark::DoNotOptimize(service.handle_line(line));  // memoize features
  for (auto _ : st) benchmark::DoNotOptimize(service.handle_line(line));
  std::remove(path.c_str());
}

void write_report(const std::string& path) {
  std::printf("\n--- BENCH_model report ---\n");

  // --- Train on the real family sweep ------------------------------------
  const auto fit_t0 = clock_type::now();
  const model::FitReport rep = train_adder_model();
  const double train_wall =
      std::chrono::duration<double>(clock_type::now() - fit_t0).count();
  std::printf("trained adder|symbolic on 15 grid points in %.2f s: "
              "R^2 %.5f, held-out MAPE %.4f, %zu features\n",
              train_wall, rep.train_r2, rep.holdout_mape,
              rep.selected_names.size());

  const std::string model_file = "BENCH_model_tmp.hlpm";
  std::string err;
  const std::vector<model::Macromodel> models = {rep.model};
  if (!model::save_models_file(model_file, models, err)) {
    std::fprintf(stderr, "bench_model: %s\n", err.c_str());
    return;
  }

  // --- Predicted tier p50/p99 vs cold symbolic kernel --------------------
  serve::ServiceOptions opts;
  opts.workers = 0;  // inline: measure the tier, not pool handoff
  opts.model_path = model_file;
  serve::Service service(opts);

  const std::string hot_line = accuracy_line("adder:12", 0.5);
  service.handle_line(hot_line);  // memoize the feature vector

  constexpr int kPredictedReps = 5000;
  std::vector<double> predicted_us(kPredictedReps);
  for (int i = 0; i < kPredictedReps; ++i) {
    const auto t0 = clock_type::now();
    service.handle_line(hot_line);
    predicted_us[i] =
        std::chrono::duration<double>(clock_type::now() - t0).count() * 1e6;
  }
  std::sort(predicted_us.begin(), predicted_us.end());
  const double pred_p50 = predicted_us[kPredictedReps / 2];
  const double pred_p99 = predicted_us[kPredictedReps * 99 / 100];

  // Cold kernel: distinct seeds force distinct cache keys, so every line
  // runs the full BDD build the model replaces.
  constexpr int kColdReps = 5;
  double cold_total_us = 0.0;
  for (int i = 0; i < kColdReps; ++i) {
    serve::Request rq;
    rq.op = serve::Op::Estimate;
    rq.kind = jobs::JobKind::Symbolic;
    rq.design = "adder:12";
    rq.has_seed = true;
    rq.seed = 9000 + static_cast<std::uint64_t>(i);
    const auto t0 = clock_type::now();
    service.handle_line(rq.serialize());
    cold_total_us +=
        std::chrono::duration<double>(clock_type::now() - t0).count() * 1e6;
  }
  const double cold_us = cold_total_us / kColdReps;
  const double speedup = cold_us / pred_p50;
  std::printf("predicted (adder:12, warm): p50 %.2f us, p99 %.2f us\n",
              pred_p50, pred_p99);
  std::printf("cold symbolic kernel:       %.0f us/req\n", cold_us);
  std::printf("cold/predicted p50 speedup: %.0fx %s\n", speedup,
              speedup >= 1000.0 ? "(>= 1000x bar met)" : "(BELOW 1000x bar)");

  // --- Fit wall time vs campaign size ------------------------------------
  benchjson::Array fit_curve;
  std::printf("fit time vs campaign size:\n");
  for (std::size_t n : {100u, 1000u, 10000u}) {
    const std::vector<model::Row> rows = synthetic_rows(n);
    const auto t0 = clock_type::now();
    const model::FitReport r = model::fit_macromodel(rows, "synthetic", "mc");
    const double wall =
        std::chrono::duration<double>(clock_type::now() - t0).count();
    std::printf("  %6zu rows: %8.2f ms (R^2 %.6f)\n", n, wall * 1e3,
                r.train_r2);
    fit_curve.push_back(benchjson::Object{
        {"rows", static_cast<std::uint64_t>(n)},
        {"fit_ms", wall * 1e3},
        {"train_r2", r.train_r2},
    });
  }

  std::remove(model_file.c_str());

  const benchjson::Object root{
      {"experiment", "E-MODEL"},
      {"machine", benchjson::machine()},
      {"design_family", "adder"},
      {"train",
       benchjson::Object{
           {"grid_points", 15},
           {"wall_seconds", train_wall},
           {"train_r2", rep.train_r2},
           {"holdout_mape", rep.holdout_mape},
           {"selected_features", static_cast<std::uint64_t>(
                                     rep.selected_names.size())},
           {"condition", rep.condition},
       }},
      {"predicted_tier",
       benchjson::Object{
           {"design", "adder:12"},
           {"p50_us", pred_p50},
           {"p99_us", pred_p99},
           {"cold_symbolic_us", cold_us},
           {"speedup_p50", speedup},
           {"bar_1000x_met", speedup >= 1000.0},
       }},
      {"fit_scaling", std::move(fit_curve)},
  };
  if (benchjson::save(path, root))
    std::printf("\nwrote %s\n", path.c_str());
  else
    std::printf("\nfailed to write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RegisterBenchmark("BM_PredictedHandleLine", BM_PredictedHandleLine)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RunSpecifiedBenchmarks();
  const char* path = "BENCH_model.json";
  if (argc > 1 && argv[1][0] != '-') path = argv[1];
  write_report(path);
  return 0;
}
