#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "core/macromodel.hpp"
#include "exec/exec.hpp"
#include "sim/engine.hpp"
#include "stats/descriptive.hpp"
#include "stats/exact_moments.hpp"
#include "stats/rng.hpp"

namespace hlp::core {

/// Section II-C2: power co-simulation estimators layered on a macro-model.
///
/// The "RT-level simulator" is our functional simulator; the estimators
/// differ in how often they collect input statistics and evaluate the
/// macro-model (census = every cycle, sampler = sampled cycles) and whether
/// they correct macro-model bias with a small number of gate-level cycle
/// simulations (adaptive).

/// A macro-model evaluated at transition t of a characterization set.
using MacroFn =
    std::function<double(const ModuleCharacterization&, std::size_t)>;

struct CosimEstimate {
  double mean_energy = 0.0;       ///< estimated switched cap per cycle
  std::size_t macro_evals = 0;    ///< data collections + model evaluations
  std::size_t gate_cycle_sims = 0;///< gate-level cycles simulated
};

/// Census macro-modeling [46]: evaluate the macro-model at every cycle.
CosimEstimate census_estimate(const ModuleCharacterization& eval_set,
                              const MacroFn& model);

/// Sampler macro-modeling [46]: `n_samples` simple random samples of
/// `sample_size` cycles each (>= 30 for normality); the estimate is the
/// mean of sample means.
CosimEstimate sampler_estimate(const ModuleCharacterization& eval_set,
                               const MacroFn& model, std::size_t sample_size,
                               std::size_t n_samples, stats::Rng& rng);

/// Adaptive macro-modeling [46]: the macro-model is used as a *predictor*
/// for the gate-level power; a small random subsample of cycles is simulated
/// at gate level and a ratio estimator maps the census macro mean onto the
/// gate-level scale, removing training-set bias.
CosimEstimate adaptive_estimate(const ModuleCharacterization& eval_set,
                                const MacroFn& model,
                                std::size_t gate_sample_size,
                                stats::Rng& rng);

/// Stratified sampling (Ding et al. [33]): the cycle axis is split into
/// contiguous strata and each is sampled, which cuts the estimator variance
/// when power drifts over the trace (program phases).
CosimEstimate stratified_estimate(const ModuleCharacterization& eval_set,
                                  const MacroFn& model, std::size_t strata,
                                  std::size_t per_stratum, stats::Rng& rng);

/// Gate-level reference mean (full census of reference energies).
double gate_level_mean(const ModuleCharacterization& eval_set);

/// Monte Carlo gate-level power estimation with confidence-interval
/// stopping (Burch et al. [32], the paper's II-C step 4 speedup): simulate
/// random vector *pairs* drawn from the generator until the relative CI
/// half-width of mean switched cap falls below `epsilon`.
///
/// Every module (at most 64 input bits) simulates 64·W independent vector
/// pairs per block step, one pair per bit lane of a W-word block (W =
/// SimOptions::block_words). The sequential-sampling stop rule is
/// evaluated per pair in draw order, so the estimate, pair count, and CI
/// are bit-identical to a one-pair-per-step scalar loop at every width and
/// dispatch level. The only observable difference is that `vector_gen`
/// may be drawn up to one block (<= 64·W pairs) ahead of a convergence
/// stopping point; a *step-quota* stop never over-draws (the batch size is
/// capped by the remaining quota and the meter is charged before the block
/// is drawn), so quota-stopped runs can be resumed against the same
/// generator with no divergence.
///
/// Registers are never clocked: every pair evaluates v1 and v2 with each
/// DFF at its `dff_init` value, so the estimate ignores state-dependent
/// switching on registered netlists. Clocking them on the replica lanes is
/// an open ROADMAP item ("Sequential Monte Carlo").
///
/// Moments: when every load is a nonnegative multiple of 2^-k with
/// Σm < 2^32 (`sim::LoadClasses::narrow()`, which the default
/// `CapacitanceModel` passes), a pair's energy is the integer q = e·2^k and
/// the run keeps n, S1 = Σq and S2 = Σq² exactly (`stats::ExactMoments`):
/// the stop rule is `stats::RelativeCiRule`, which has no divide, and the
/// mean and half-width are computed once, at the end, from the integers.
/// Every other load model keeps Welford's running mean and M2
/// (`stats::RunningStats`) with `ci_converged`. Both rules are the same
/// inequality, hw <= epsilon · mean.
///
/// Resume token: the full state of the running moments. A stopped run's
/// checkpoint, fed back into monte_carlo_power_budgeted together with the
/// *same, un-rewound* vector generator, continues the estimate exactly
/// where it left off. A checkpoint of the other form — a Welford
/// checkpoint for a run that keeps exact moments, or one recorded at
/// another scale — is never mixed in: the run restarts at pair 0, so a
/// caller that fast-forwards its generator asks `monte_carlo_resumes`
/// first.
struct MonteCarloCheckpoint {
  enum class Form : std::uint8_t { Welford, Exact };
  Form form = Form::Welford;
  std::size_t count = 0;
  /// Exact form: S1 and S2 of the pairs' energies in units of 2^-scale.
  int scale = 0;
  stats::u128 s1 = 0;
  stats::u128 s2 = 0;
  /// Welford form: running mean and M2.
  double mean = 0.0;
  double m2 = 0.0;
  bool valid() const { return count > 0; }
  bool operator==(const MonteCarloCheckpoint&) const = default;

  /// Canonical text form: `"exact <scale> <count> <s1> <s2>"` (decimal
  /// integers) or `"<count> <mean> <m2>"`. Doubles are rendered by
  /// std::to_chars shortest-round-trip, so serialize → parse → serialize is
  /// byte-identical and parse(serialize(c)) reconstructs c bit-for-bit —
  /// the property the hlp::jobs crash-safe ledger relies on to resume an
  /// interrupted estimate with no drift. Locale-independent.
  std::string serialize() const;
  /// Strict inverse: exactly the fields of one form, space-separated and
  /// fully consumed, and for the exact form sums that some stream of
  /// `count` values below 2^32 could have (`ExactMoments::plausible`).
  /// Returns false (leaving `out` untouched) on any malformation.
  static bool parse(std::string_view text, MonteCarloCheckpoint& out);
};

struct MonteCarloResult {
  double mean_energy = 0.0;   ///< switched cap per transition
  std::size_t pairs = 0;      ///< vector pairs simulated (incl. resumed)
  double ci_halfwidth = 0.0;  ///< absolute, at the requested confidence
  bool converged = false;     ///< == (stop_reason == Converged)

  /// Why sampling stopped — unambiguous, unlike the old converged=false
  /// which conflated pair exhaustion with every other cause.
  enum class StopReason : std::uint8_t {
    Converged,          ///< CI half-width criterion met
    MaxPairsExhausted,  ///< max_pairs simulated without meeting the CI
    BudgetExhausted,    ///< exec budget tripped (see the Outcome's diag)
  };
  StopReason stop_reason = StopReason::MaxPairsExhausted;

  /// Always filled; pass to monte_carlo_power_budgeted to resume.
  MonteCarloCheckpoint checkpoint;
};
MonteCarloResult monte_carlo_power(
    const netlist::Module& mod,
    const std::function<std::uint64_t()>& vector_gen, double epsilon,
    double confidence = 0.95, std::size_t min_pairs = 30,
    std::size_t max_pairs = 100000,
    const netlist::CapacitanceModel& cap = {},
    const sim::SimOptions& opts = {});

/// Budgeted Monte Carlo power: one meter step per vector pair, charged in
/// block-sized batches (the whole block's pair count in one `Meter` probe,
/// before the block is drawn) so budget accounting costs O(1) per 64·W
/// pairs instead of per pair. Deadline and cancel responsiveness is
/// therefore one block, and a step-quota trip lands on exactly the quota's
/// pair at every block width (the batch never exceeds the remaining
/// quota). When the budget trips mid-run the outcome carries
/// the partial estimate (mean, CI over the pairs actually simulated) with
/// stop_reason = BudgetExhausted and a resume checkpoint — exhausted
/// budgets return resumable partial estimates instead of hanging or
/// pretending to have converged. Pass a previous run's `resume` checkpoint
/// (and keep drawing from the same generator sequence) to continue;
/// `max_pairs` counts resumed pairs too.
exec::Outcome<MonteCarloResult> monte_carlo_power_budgeted(
    const netlist::Module& mod,
    const std::function<std::uint64_t()>& vector_gen,
    const exec::Budget& budget, double epsilon, double confidence = 0.95,
    std::size_t min_pairs = 30, std::size_t max_pairs = 100000,
    const netlist::CapacitanceModel& cap = {},
    const sim::SimOptions& opts = {},
    const MonteCarloCheckpoint& resume = {});

/// The same estimator drawing its vectors as `rng.uniform_bits(width)`,
/// width = mod.total_input_bits(): one `Rng::fill_packed` per batch instead
/// of one generator call per vector. The stream is the same, so it returns
/// what the overload above returns for `[&] { return
/// rng.uniform_bits(width); }` and leaves `rng` at the same position.
exec::Outcome<MonteCarloResult> monte_carlo_power_budgeted(
    const netlist::Module& mod, stats::Rng& rng, const exec::Budget& budget,
    double epsilon, double confidence = 0.95, std::size_t min_pairs = 30,
    std::size_t max_pairs = 100000, const netlist::CapacitanceModel& cap = {},
    const sim::SimOptions& opts = {}, const MonteCarloCheckpoint& resume = {});

/// True when `resume` would continue a Monte Carlo run on `mod` under
/// `cap` rather than be ignored: it is valid and of the form (and scale)
/// that run keeps. Builds the run's load classes, so call it only with a
/// checkpoint in hand.
bool monte_carlo_resumes(const netlist::Module& mod,
                         const MonteCarloCheckpoint& resume,
                         const netlist::CapacitanceModel& cap = {});

/// The Welford-path stop rule `ci_halfwidth(rs, confidence) <= epsilon ·
/// mean` with mean > 0, evaluated for every pair past min_pairs. A squared
/// pre-test with a 1e-9 relative margin, far wider than the few ulps the
/// two sides can round by, rejects the unconverged majority without the two
/// square roots; whenever it cannot reject, the original expression
/// decides, so the stopping pair is exactly that of the plain rule.
inline bool ci_converged(const stats::RunningStats& rs, double epsilon,
                         double confidence) {
  const double mean = rs.mean();
  if (!(mean > 0.0)) return false;
  const double z = stats::normal_quantile_two_sided(confidence);
  const double target = epsilon * mean;
  if (z * z * rs.variance() / static_cast<double>(rs.count()) >
      target * target * (1.0 + 1e-9))
    return false;
  return stats::ci_halfwidth(rs, confidence) <= target;
}

/// Sharded Monte Carlo: the pair stream is decomposed into fixed-size
/// *chunks* that are independent of the thread count — chunk c draws its
/// pairs from `Rng(stats::shard_seed(seed, c))` — so every (threads,
/// resume-point) configuration simulates exactly the same pairs. Workers
/// claim chunks in index order and the supervisor merges completed chunks
/// strictly in chunk order — integer addition on the exact path,
/// `RunningStats::merge` on the Welford one — which makes the merged
/// moments deterministic: serial, threaded, and resumed runs return
/// bit-identical moments, mean and CI.
struct ShardedMcOptions {
  std::size_t total_pairs = 100000;  ///< campaign size (upper bound on pairs)
  std::size_t chunk_pairs = 4096;    ///< pairs per chunk (determinism unit)
  int threads = 1;                   ///< worker count; <= 0 -> hw concurrency
  /// Relative CI target evaluated on the merged chunk-order prefix after
  /// each chunk completes; 0 disables early stopping (run all pairs).
  double epsilon = 0.0;
  double confidence = 0.95;
  std::size_t min_pairs = 30;
  sim::SimOptions sim;
};

/// Budgeted sharded Monte Carlo. The meter is charged a chunk's whole pair
/// count at claim time (under the scheduler lock, in chunk order), so a
/// step-quota stop cuts the campaign at a chunk boundary that depends only
/// on the quota — not on the thread schedule — and the partial result is
/// bit-identical across thread counts. The returned checkpoint covers the
/// contiguous prefix of completed chunks (checkpoint.count is a multiple of
/// chunk_pairs unless total_pairs cuts the last chunk short); pass it back
/// as `resume` with the same seed/chunk_pairs to continue. Chunks after a
/// convergence point are discarded, so the converged statistics match a
/// serial chunk-order run exactly.
exec::Outcome<MonteCarloResult> monte_carlo_power_sharded(
    const netlist::Module& mod, std::uint64_t seed,
    const ShardedMcOptions& opts = {}, const exec::Budget& budget = {},
    const netlist::CapacitanceModel& cap = {},
    const MonteCarloCheckpoint& resume = {});

}  // namespace hlp::core
