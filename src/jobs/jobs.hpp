#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/exec.hpp"
#include "jobs/kernels.hpp"
#include "jobs/ledger.hpp"
#include "stats/descriptive.hpp"

namespace hlp::jobs {

/// --- Supervised parallel job runner ----------------------------------------
///
/// The paper's experimental method is batch-shaped: every table is "run N
/// estimators over M designs and compare". `jobs` runs such a campaign on a
/// fixed worker pool with each job isolated at its boundary — all
/// exceptions caught and classified, per-attempt wall deadlines enforced by
/// a supervisor thread through `exec::CancelToken`, failed attempts retried
/// with exponential backoff (and optionally *downgraded* to a cheaper
/// estimator via the PR 3 degradation paths) — while appending every state
/// transition to a crash-consistent ledger so a killed process loses at
/// most its in-flight attempts. See DESIGN.md §8.
///
/// Determinism guarantee: per-job RNG seeds derive from the job id alone
/// (job_seed), never from the thread schedule, and results merge in job
/// submission order — a serial run, a parallel run, and a resumed run of
/// the same campaign produce bit-identical estimates.

/// Structured failure taxonomy. Every exception a kernel can raise is
/// classified into exactly one of these at the job boundary.
enum class ErrorClass : std::uint8_t {
  None = 0,
  InvalidInput,     ///< bad design spec/parameters — retrying cannot help
  BudgetExhausted,  ///< budget or supervisor wall deadline tripped — retryable
  Internal,         ///< unexpected exception / allocation failure — retryable
  Cancelled,        ///< campaign-level cancellation — not an error, no retry
};

const char* to_string(ErrorClass e);
bool parse_error_class(std::string_view s, ErrorClass& out);
/// Classify the in-flight exception (call inside a catch block). The
/// Cancelled/BudgetExhausted split for a tripped CancelToken is decided by
/// the runner, which knows *who* tripped it; this helper maps every
/// cancellation trip to BudgetExhausted-or-Cancelled via `campaign_cancel`.
ErrorClass classify_current_exception(bool campaign_cancelled);

/// One unit of campaign work: an estimator kernel + design + per-attempt
/// budget. Copyable; the runner never mutates it.
struct Job {
  std::string id;  ///< unique within the campaign; seeds the kernel RNG
  JobKind kind = JobKind::MonteCarlo;
  std::string design;
  /// Per-attempt resource budget. `budget.cancel` is ignored — the runner
  /// installs a fresh token per attempt (cancellation is sticky, and a
  /// retried attempt must not start pre-cancelled).
  exec::Budget budget;
  /// Supervisor-enforced wall ceiling per attempt (0 = none). Unlike
  /// `budget.deadline_seconds` (observed cooperatively by the meter), this
  /// is enforced from outside the worker via CancelToken, so it also
  /// bounds kernels that are stuck between meter steps.
  double attempt_deadline_seconds = 0.0;

  /// Monte Carlo / sampled-fallback parameters.
  double epsilon = 0.02;
  double confidence = 0.95;
  std::size_t min_pairs = 30;
  std::size_t max_pairs = 20000;
  /// Sharded Monte Carlo: mc_threads > 0 runs the kernel on the
  /// chunk-sharded estimator with that many lane-shard threads (results are
  /// bit-identical across thread counts and resumes; see
  /// core::monte_carlo_power_sharded). 0 keeps the sequential estimator,
  /// preserving the historical per-job values exactly.
  int mc_threads = 0;
  std::size_t mc_chunk_pairs = 4096;  ///< determinism unit when sharded
  /// Markov parameters.
  int max_iters = 2000;

  /// JobKind::Custom body (tests / embedders). Receives the attempt budget
  /// (with the runner's per-attempt token installed), whether this is a
  /// downgraded retry, and any checkpoint from a prior attempt.
  std::function<AttemptOutcome(const exec::Budget&, bool degraded,
                               const core::MonteCarloCheckpoint*)>
      custom;
};

/// Exponential backoff with deterministic jitter. `delay_seconds` is a pure
/// function of (job id, attempt) so retry schedules are reproducible and
/// testable without a clock.
struct RetryPolicy {
  int max_attempts = 3;
  double base_delay_seconds = 0.05;
  double multiplier = 2.0;
  double max_delay_seconds = 2.0;
  /// Jitter amplitude as a fraction of the backoff delay; the sign and
  /// magnitude are hashed from (job id, attempt), spreading simultaneous
  /// retries without sacrificing reproducibility.
  double jitter_frac = 0.25;
  /// On a budget-exhausted failure of a Symbolic job, rerun the retry with
  /// the sampled fallback kernel (degraded = true).
  bool downgrade_on_budget = true;

  bool retryable(ErrorClass e) const {
    return e == ErrorClass::BudgetExhausted || e == ErrorClass::Internal;
  }
  /// Backoff before attempt `failed_attempts + 1`:
  /// min(base * multiplier^(failed_attempts-1), max) * (1 ± jitter).
  double delay_seconds(std::string_view job_id, int failed_attempts) const;
};

enum class JobStatus : std::uint8_t { Completed, Failed, Cancelled };
const char* to_string(JobStatus s);

struct JobResult {
  std::string id;
  JobStatus status = JobStatus::Cancelled;
  ErrorClass error = ErrorClass::None;  ///< set when status != Completed
  int attempts = 0;                     ///< attempts actually executed
  bool degraded = false;
  double value = 0.0;
  std::string detail;
  /// True when the value was read back from a prior run's ledger rather
  /// than recomputed (Runner::resume skipping a completed job).
  bool from_ledger = false;
};

struct RunnerOptions {
  int workers = 1;
  RetryPolicy retry;
  /// JSON-lines ledger path; empty disables durability (pure in-memory
  /// campaign). `run` truncates, `resume` appends.
  std::string ledger_path;
  /// Campaign-level cancellation: trip it (from any thread) to stop the
  /// campaign — in-flight attempts are cancelled through their tokens,
  /// queued jobs are not started, and no retries are scheduled.
  exec::CancelToken campaign_cancel;
  /// Kernel execution hook for spec-driven (non-Custom) jobs: empty runs
  /// run_kernel in-process; hlp_run's --isolate wires
  /// sandbox::run_kernel_isolated here so each attempt forks a rlimit-
  /// capped child. The hook must keep run_kernel's contract: ok=false for
  /// budget stops, std::invalid_argument / other exceptions for the
  /// classifier (resource-kill crashes surface as ok=false outcomes, so
  /// retry-with-downgrade applies to them too).
  std::function<AttemptOutcome(const KernelRequest&, const exec::Budget&)>
      kernel_executor;
  /// Backoff sleep hook; tests inject a fake clock here. Default: real
  /// std::this_thread::sleep_for.
  std::function<void(double)> sleep_fn;
};

struct CampaignResult {
  /// One result per submitted job, in submission order.
  std::vector<JobResult> results;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t retries = 0;   ///< retry transitions across all jobs
  std::size_t degraded = 0;  ///< jobs whose value came from a fallback
  /// Moments of completed-job values, merged in submission order
  /// (deterministic regardless of worker count).
  stats::RunningStats value_stats;
  /// Warnings from ledger scanning on resume (skipped lines etc.).
  std::vector<std::string> warnings;

  bool all_completed() const { return completed == results.size(); }
};

/// Lifecycle transition counters, monotone over a Runner's lifetime and
/// queryable at any moment — including from another thread while
/// run()/resume() is executing (each cell is an independent atomic, so a
/// mid-campaign snapshot may be momentarily inconsistent across cells but
/// every cell is exact). Counts *transitions*, mirroring the ledger record
/// kinds: `retried` counts retry transitions, `degraded` counts
/// symbolic→sampled downgrades, `completed`/`failed`/`cancelled` count
/// terminal outcomes reached by this process, and `served_from_ledger`
/// counts resume-skips whose value was read back instead of recomputed.
struct RunnerCounters {
  std::size_t enqueued = 0;
  std::size_t attempts_started = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t retried = 0;
  std::size_t degraded = 0;
  std::size_t served_from_ledger = 0;
};

/// Supervised campaign executor. One Runner per campaign invocation.
class Runner {
 public:
  explicit Runner(RunnerOptions opts = {});

  /// Run a fresh campaign. Truncates the ledger (if configured). Throws
  /// std::invalid_argument on duplicate job ids.
  CampaignResult run(const std::vector<Job>& jobs);

  /// Resume a campaign from its ledger: jobs with a `completed` record are
  /// skipped (their recorded value is returned, bit-identical thanks to
  /// round-trip-exact serialization), jobs with a `checkpoint` record
  /// restart from the checkpoint, and everything else re-runs from
  /// scratch. The ledger is appended to, never rewritten. With no ledger
  /// configured (or none on disk) this is identical to run().
  CampaignResult resume(const std::vector<Job>& jobs);

  /// Snapshot of the lifecycle counters (thread-safe; see RunnerCounters).
  RunnerCounters counters() const;

 private:
  CampaignResult run_impl(const std::vector<Job>& jobs, bool resuming);
  RunnerOptions opts_;
  std::shared_ptr<struct RunnerCounterCells> cells_;  ///< atomic cells
};

}  // namespace hlp::jobs
