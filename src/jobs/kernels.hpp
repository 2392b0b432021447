#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "cdfg/cdfg.hpp"
#include "core/sampling_power.hpp"
#include "exec/exec.hpp"
#include "netlist/generators.hpp"

namespace hlp::jobs {

/// --- Estimator kernels behind the job runner -------------------------------
///
/// A job names a kernel *kind* and a *design spec* instead of holding live
/// objects, so a campaign is fully described by text (spec files, ledger
/// records) and every run of the same job is bit-identical: the kernel
/// rebuilds the design from the spec and derives its RNG seed from the job
/// id — never from the thread schedule or wall clock.

enum class JobKind : std::uint8_t {
  Symbolic,    ///< exact switched-cap expectation via BDD sat-fractions
  MonteCarlo,  ///< Burch-style sampled power with CI stopping (resumable)
  Markov,      ///< STG steady-state power iteration (edge entropy)
  Schedule,    ///< activity-driven list scheduling (latency)
  Static,      ///< zero-simulation dataflow estimate with guaranteed bounds
               ///< (hlp::analysis); escalates to MonteCarlo when the bound
               ///< spread exceeds the requested epsilon
  Custom,      ///< caller-supplied kernel (tests / embedders); not in specs
};

const char* to_string(JobKind k);
bool parse_job_kind(std::string_view s, JobKind& out);

/// What a successful kernel run produced (plus any resumable state a
/// failed run left behind).
struct KernelOutput {
  double value = 0.0;   ///< the job's scalar estimate
  std::string detail;   ///< human-readable method/effort summary
  bool degraded = false;
  std::string degraded_from;  ///< e.g. "bdd-sat-fraction"
  std::string degraded_to;    ///< e.g. "monte-carlo"
  bool has_checkpoint = false;
  core::MonteCarloCheckpoint checkpoint;  ///< resumable partial estimate
};

/// One attempt's result. `ok == false` means the budget stopped the kernel
/// (stop + detail say how); invalid designs/parameters throw
/// std::invalid_argument instead, and symbolic blow-ups surface as
/// exec::BudgetExceeded — the runner classifies all three differently.
struct AttemptOutcome {
  bool ok = false;
  exec::StopReason stop = exec::StopReason::None;
  std::string detail;
  KernelOutput out;  ///< value valid when ok; checkpoint filled either way
};

/// One attempt from a sampled (Monte Carlo) estimator's outcome. A budget
/// stop fails with "<method> stopped at N pairs (<reason>)"; otherwise the
/// mean succeeds with "<method> <params>N pairs, converged" (or
/// "pair-budget exhausted"). The resume checkpoint is kept either way.
AttemptOutcome sampled_attempt(
    const exec::Outcome<core::MonteCarloResult>& out, std::string_view method,
    std::string_view params = {});

/// Kernel invocation, decoupled from the scheduling-side Job so the kernel
/// layer has no dependency on the runner.
struct KernelRequest {
  JobKind kind = JobKind::MonteCarlo;
  std::string design;
  std::uint64_t seed = 0;  ///< derive via job_seed(job id)
  bool degraded = false;   ///< run the downgraded (sampled) path directly
  /// Monte Carlo / sampled-fallback parameters.
  double epsilon = 0.02;
  double confidence = 0.95;
  std::size_t min_pairs = 30;
  std::size_t max_pairs = 20000;
  /// mc_threads > 0 selects the chunk-sharded estimator (bit-identical
  /// across thread counts); 0 keeps the sequential path and its values.
  int mc_threads = 0;
  std::size_t mc_chunk_pairs = 4096;
  /// Markov parameters.
  int max_iters = 2000;
  /// Resume state from a previous attempt's checkpoint (nullptr = fresh).
  const core::MonteCarloCheckpoint* resume = nullptr;
};

/// Execute one metered kernel attempt under `budget`. Deterministic in
/// (kind, design, seed, degraded, resume) — two calls with equal requests
/// return bit-identical values regardless of thread or process.
AttemptOutcome run_kernel(const KernelRequest& rq, const exec::Budget& budget);

/// Deterministic per-job seed: FNV-1a over the job id, finalized with a
/// splitmix64 mix. Depends only on the id string, so serial, parallel, and
/// resumed runs of the same campaign draw identical vector streams.
std::uint64_t job_seed(std::string_view job_id);

/// Design-spec factories (exposed for tests and the lint/CLI layers).
/// Netlist specs: adder:N, mult:N, alu:N, parity:N, comparator:N, max:N,
/// mux:SEL, mulred:N:TREES, random:IN:GATES:OUT:SEED, c17.
/// Throws std::invalid_argument (with the offending spec) on unknown names,
/// bad arity, unparsable or out-of-range arguments (total input bits are
/// capped at 64 — the width of a simulation vector).
netlist::Module make_module(const std::string& design);
/// CDFG specs: poly:ORDER, horner:ORDER, fir:TAPS, expr:LEAVES:SEED,
/// branching:BRANCHES:CONE:SEED, opshare:VARS:COEFS.
cdfg::Cdfg make_cdfg(const std::string& design);

}  // namespace hlp::jobs
