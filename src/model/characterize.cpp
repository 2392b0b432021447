#include "model/characterize.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "jobs/kernels.hpp"
#include "stats/descriptive.hpp"
#include "stats/regression.hpp"
#include "stats/rng.hpp"

namespace hlp::model {

namespace {

std::string format_double(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, end) : std::string("?");
}

/// Biased Monte Carlo label: vectors drawn with per-bit probability p.
/// One uniform_real draw per input bit per vector, so the stream is a pure
/// function of (seed, width) and a resumed attempt can fast-forward by
/// replaying the generator — the same discipline run_kernel uses for its
/// uniform streams.
jobs::AttemptOutcome biased_mc_label(const std::string& design, double p,
                                     std::uint64_t seed, const SweepSpec& spec,
                                     const exec::Budget& budget,
                                     const core::MonteCarloCheckpoint* ckpt) {
  const netlist::Module mod = jobs::make_module(design);
  const int width = mod.total_input_bits();
  stats::Rng rng(seed);
  auto gen = [&rng, width, p]() {
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i)
      if (rng.uniform_real() < p) v |= std::uint64_t{1} << i;
    return v;
  };
  core::MonteCarloCheckpoint resume;
  if (ckpt && ckpt->valid()) {
    resume = *ckpt;
    // Fast-forward: the checkpointed pairs consumed 2 vectors each.
    for (std::size_t i = 0; i < 2 * resume.count; ++i) (void)gen();
  }
  const exec::Outcome<core::MonteCarloResult> out =
      core::monte_carlo_power_budgeted(mod, gen, budget, spec.epsilon,
                                       spec.confidence, spec.min_pairs,
                                       spec.max_pairs, {}, {}, resume);
  return jobs::sampled_attempt(out, "biased monte-carlo",
                               "p=" + format_double(p) + ", ");
}

}  // namespace

std::string sweep_design(const SweepSpec& spec, std::size_t param_index) {
  if (spec.params.empty()) return spec.family;
  return spec.family + ":" + std::to_string(spec.params.at(param_index));
}

std::string sweep_job_id(const SweepSpec& spec, const std::string& design,
                         double input_p) {
  return "model|" + design + "|" + jobs::to_string(spec.kind) +
         "|p=" + format_double(input_p);
}

std::vector<jobs::Job> sweep_jobs(const SweepSpec& spec) {
  if (spec.kind != jobs::JobKind::Symbolic &&
      spec.kind != jobs::JobKind::MonteCarlo)
    throw std::invalid_argument(
        "characterization supports symbolic or monte-carlo label kernels");
  if (spec.input_p.empty())
    throw std::invalid_argument("input_p grid must not be empty");
  for (double p : spec.input_p)
    if (!(p >= 0.0 && p <= 1.0))
      throw std::invalid_argument("input probability must be in [0, 1]");

  const std::size_t designs =
      spec.params.empty() ? 1 : spec.params.size();
  std::vector<jobs::Job> out;
  out.reserve(designs * spec.input_p.size());
  for (std::size_t d = 0; d < designs; ++d) {
    const std::string design = sweep_design(spec, d);
    (void)jobs::make_module(design);  // validate the spec before enqueueing
    for (double p : spec.input_p) {
      jobs::Job job;
      job.id = sweep_job_id(spec, design, p);
      job.kind = jobs::JobKind::Custom;
      job.design = design;
      job.attempt_deadline_seconds = spec.attempt_deadline_seconds;
      job.epsilon = spec.epsilon;
      job.confidence = spec.confidence;
      job.min_pairs = spec.min_pairs;
      job.max_pairs = spec.max_pairs;
      const std::uint64_t seed = jobs::job_seed(job.id);
      const SweepSpec spec_copy = spec;
      if (spec.kind == jobs::JobKind::Symbolic && p == 0.5) {
        // Uniform inputs: the BDD sat-fraction kernel is exact here, and
        // run_kernel already owns its degradation-to-sampled path.
        job.custom = [design, seed, spec_copy](
                         const exec::Budget& budget, bool degraded,
                         const core::MonteCarloCheckpoint* ckpt) {
          jobs::KernelRequest kr;
          kr.kind = jobs::JobKind::Symbolic;
          kr.design = design;
          kr.seed = seed;
          kr.degraded = degraded;
          kr.epsilon = spec_copy.epsilon;
          kr.confidence = spec_copy.confidence;
          kr.min_pairs = spec_copy.min_pairs;
          kr.max_pairs = spec_copy.max_pairs;
          kr.resume = ckpt;
          return jobs::run_kernel(kr, budget);
        };
      } else {
        job.custom = [design, p, seed, spec_copy](
                         const exec::Budget& budget, bool /*degraded*/,
                         const core::MonteCarloCheckpoint* ckpt) {
          return biased_mc_label(design, p, seed, spec_copy, budget, ckpt);
        };
      }
      out.push_back(std::move(job));
    }
  }
  return out;
}

Characterization characterize(const SweepSpec& spec,
                              const jobs::RunnerOptions& ropts, bool resume) {
  Characterization ch;
  const std::vector<jobs::Job> jobs = sweep_jobs(spec);
  jobs::Runner runner(ropts);
  ch.campaign = resume ? runner.resume(jobs) : runner.run(jobs);

  // Rebuild rows from completed results. Features are recomputed here
  // because extract_features is pure in (design, input_p): a label read
  // back from the ledger pairs with exactly the features a fresh run
  // would have computed.
  const std::size_t designs = spec.params.empty() ? 1 : spec.params.size();
  std::size_t j = 0;
  for (std::size_t d = 0; d < designs; ++d) {
    const std::string design = sweep_design(spec, d);
    for (double p : spec.input_p) {
      const jobs::JobResult& r = ch.campaign.results.at(j);
      ++j;
      if (r.status != jobs::JobStatus::Completed) continue;
      Row row;
      row.design = design;
      row.input_p = p;
      row.x = extract_features(design, p);
      row.power = r.value;
      ch.rows.push_back(std::move(row));
    }
  }
  return ch;
}

FitReport fit_macromodel(std::span<const Row> rows, const std::string& family,
                         const std::string& kind, const FitOptions& opts) {
  if (rows.size() < 3)
    throw std::invalid_argument(
        "fit_macromodel: need at least 3 characterization rows, got " +
        std::to_string(rows.size()));

  // Deterministic every-k-th-row holdout — no RNG, so refitting the same
  // rows reproduces the same split and the same model bit for bit.
  std::size_t k = 0;
  if (opts.holdout_frac > 0.0 && rows.size() >= 4) {
    k = static_cast<std::size_t>(std::llround(1.0 / opts.holdout_frac));
    if (k < 2) k = 2;
  }
  std::vector<std::size_t> train_ix, hold_ix;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (k && i % k == k - 1)
      hold_ix.push_back(i);
    else
      train_ix.push_back(i);
  }
  if (train_ix.size() < 3) {  // tiny campaigns: train on everything
    train_ix.resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) train_ix[i] = i;
    hold_ix.clear();
  }

  stats::Matrix x;
  std::vector<double> y;
  x.reserve(train_ix.size());
  y.reserve(train_ix.size());
  for (std::size_t i : train_ix) {
    x.emplace_back(rows[i].x.v.begin(), rows[i].x.v.end());
    y.push_back(rows[i].power);
  }

  const stats::StepwiseResult sel =
      stats::forward_select(x, y, opts.f_enter, opts.max_vars);

  // Strict refit on the selected columns: full-rank or a typed error —
  // never a ridge-smoothed inverse that would understate the intervals.
  const stats::Matrix xs = stats::select_columns(x, sel.selected);
  const stats::OlsInference inf = stats::ols_inference(xs, y);

  FitReport rep;
  Macromodel& m = rep.model;
  m.family = family;
  m.kind = kind;
  m.selected = sel.selected;
  m.beta = inf.fit.beta;
  m.intercept = inf.fit.intercept;
  m.n = train_ix.size();
  const std::size_t p = sel.selected.size() + 1;
  if (train_ix.size() <= p)
    throw std::invalid_argument(
        "fit_macromodel: no residual degrees of freedom");
  m.dof = train_ix.size() - p;
  m.sigma2 = inf.fit.rss / static_cast<double>(m.dof);
  m.r2 = inf.fit.r2;
  m.condition = inf.fit.condition;
  m.xtx_inv = inf.xtx_inv;
  // Training-domain hull over every characterized row: the campaign grid
  // is the domain the model is allowed to answer for.
  for (std::size_t f = 0; f < kFeatureCount; ++f) {
    m.hull_lo[f] = rows[0].x.v[f];
    m.hull_hi[f] = rows[0].x.v[f];
  }
  for (const Row& r : rows) {
    for (std::size_t f = 0; f < kFeatureCount; ++f) {
      if (r.x.v[f] < m.hull_lo[f]) m.hull_lo[f] = r.x.v[f];
      if (r.x.v[f] > m.hull_hi[f]) m.hull_hi[f] = r.x.v[f];
    }
  }

  rep.train_rows = train_ix.size();
  rep.holdout_rows = hold_ix.size();
  rep.train_r2 = inf.fit.r2;
  rep.condition = inf.fit.condition;
  rep.condition_warning = inf.fit.condition > 1e8;
  for (std::size_t c : sel.selected)
    rep.selected_names.emplace_back(feature_name(c));

  if (!hold_ix.empty()) {
    std::vector<double> est, ref;
    est.reserve(hold_ix.size());
    ref.reserve(hold_ix.size());
    for (std::size_t i : hold_ix) {
      est.push_back(m.predict(rows[i].x));
      ref.push_back(rows[i].power);
    }
    rep.holdout_mape = stats::mean_abs_rel_error(est, ref);
  }
  return rep;
}

}  // namespace hlp::model
