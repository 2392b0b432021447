#include "jobs/jobs.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

namespace hlp::jobs {

const char* to_string(ErrorClass e) {
  switch (e) {
    case ErrorClass::None: return "none";
    case ErrorClass::InvalidInput: return "invalid-input";
    case ErrorClass::BudgetExhausted: return "budget-exhausted";
    case ErrorClass::Internal: return "internal";
    case ErrorClass::Cancelled: return "cancelled";
  }
  return "unknown";
}

bool parse_error_class(std::string_view s, ErrorClass& out) {
  for (ErrorClass e : {ErrorClass::None, ErrorClass::InvalidInput,
                       ErrorClass::BudgetExhausted, ErrorClass::Internal,
                       ErrorClass::Cancelled}) {
    if (s == to_string(e)) {
      out = e;
      return true;
    }
  }
  return false;
}

const char* to_string(JobStatus s) {
  switch (s) {
    case JobStatus::Completed: return "completed";
    case JobStatus::Failed: return "failed";
    case JobStatus::Cancelled: return "cancelled";
  }
  return "unknown";
}

ErrorClass classify_current_exception(bool campaign_cancelled) {
  try {
    throw;
  } catch (const exec::BudgetExceeded& e) {
    if (e.reason() == exec::StopReason::Cancelled)
      // Only two parties ever trip an attempt token: the campaign (a real
      // cancellation) and the supervisor's wall deadline (a resource
      // limit, hence retryable budget exhaustion).
      return campaign_cancelled ? ErrorClass::Cancelled
                                : ErrorClass::BudgetExhausted;
    return ErrorClass::BudgetExhausted;
  } catch (const std::invalid_argument&) {
    return ErrorClass::InvalidInput;
  } catch (const std::bad_alloc&) {
    return ErrorClass::Internal;
  } catch (...) {
    return ErrorClass::Internal;
  }
}

double RetryPolicy::delay_seconds(std::string_view job_id,
                                  int failed_attempts) const {
  if (failed_attempts < 1) failed_attempts = 1;
  double d = base_delay_seconds;
  for (int i = 1; i < failed_attempts; ++i) {
    d *= multiplier;
    if (d >= max_delay_seconds) break;
  }
  d = std::min(d, max_delay_seconds);
  // Deterministic jitter in [-jitter_frac, +jitter_frac): hashed from the
  // (job, attempt) pair, so two runs of the same campaign back off on the
  // same schedule while distinct jobs de-synchronize.
  std::uint64_t h = job_seed(job_id) ^
                    (0x9e3779b97f4a7c15ull *
                     static_cast<std::uint64_t>(failed_attempts));
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  d *= 1.0 + jitter_frac * (2.0 * u - 1.0);
  return d > 0.0 ? d : 0.0;
}

/// Atomic counter cells behind RunnerCounters. Relaxed ordering throughout:
/// each cell is an independent monotone event count, and a reader wants
/// exact per-cell values, not a consistent cross-cell cut.
struct RunnerCounterCells {
  std::atomic<std::size_t> enqueued{0};
  std::atomic<std::size_t> attempts_started{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> cancelled{0};
  std::atomic<std::size_t> retried{0};
  std::atomic<std::size_t> degraded{0};
  std::atomic<std::size_t> served_from_ledger{0};

  void bump(std::atomic<std::size_t>& cell) {
    cell.fetch_add(1, std::memory_order_relaxed);
  }
};

RunnerCounters Runner::counters() const {
  const RunnerCounterCells& c = *cells_;
  RunnerCounters out;
  out.enqueued = c.enqueued.load(std::memory_order_relaxed);
  out.attempts_started = c.attempts_started.load(std::memory_order_relaxed);
  out.completed = c.completed.load(std::memory_order_relaxed);
  out.failed = c.failed.load(std::memory_order_relaxed);
  out.cancelled = c.cancelled.load(std::memory_order_relaxed);
  out.retried = c.retried.load(std::memory_order_relaxed);
  out.degraded = c.degraded.load(std::memory_order_relaxed);
  out.served_from_ledger = c.served_from_ledger.load(std::memory_order_relaxed);
  return out;
}

namespace {

using Clock = std::chrono::steady_clock;
/// Supervisor poll period for attempt deadlines and campaign cancellation.
constexpr std::chrono::milliseconds kSupervisorPoll{2};

/// Per-worker in-flight attempt, observed by the supervisor. `tripped` is
/// written (release) *before* the token is signalled, so a worker that
/// observes the cancellation (acquire) also observes why — see the
/// CancelToken memory-order contract in exec.hpp.
struct Inflight {
  exec::CancelToken token;
  std::shared_ptr<std::atomic<bool>> deadline_tripped;
  Clock::time_point deadline{};
  bool has_deadline = false;
  bool active = false;
};

struct Shared {
  std::mutex mu;  ///< guards ledger/seq/inflight; never held during a kernel
  LedgerWriter* ledger = nullptr;
  std::uint64_t seq = 0;
  std::vector<Inflight> inflight;
  exec::CancelToken campaign;
  RunnerCounterCells* counters = nullptr;
  bool stop_supervisor = false;
  std::condition_variable cv;

  /// Write-ahead append: sequence-stamped, durable before returning. The
  /// sequence is stamped under `mu` but the durable write happens outside
  /// it, so workers completing records concurrently share fsyncs through
  /// the ledger's group commit instead of serializing on this mutex.
  /// (`ledger` is set once before workers start and LedgerWriter is itself
  /// thread-safe, so the unlocked call is safe.)
  void append(LedgerRecord rec) {
    {
      std::lock_guard<std::mutex> lk(mu);
      rec.seq = ++seq;
    }
    if (ledger) ledger->append(rec);
  }

  /// Batch variant for bursts (campaign enqueue): stamps each record, then
  /// retires the whole burst with a single group-committed fsync.
  void append_batch(std::vector<LedgerRecord>& recs) {
    {
      std::lock_guard<std::mutex> lk(mu);
      for (LedgerRecord& rec : recs) rec.seq = ++seq;
    }
    if (ledger) ledger->append_batch(recs);
  }
};

/// Mutable per-job execution state (one owner worker at a time).
struct Slot {
  const Job* job = nullptr;
  JobResult result;
  core::MonteCarloCheckpoint ckpt;
  bool have_ckpt = false;
  bool degraded_mode = false;  ///< a prior retry downgraded this job
  int prior_attempts = 0;      ///< attempts recorded by an earlier process
  bool done = false;           ///< completed in a prior process (skip)
  std::size_t retries = 0;
};

LedgerRecord make_record(RecordKind kind, const std::string& job_id) {
  LedgerRecord r;
  r.kind = kind;
  r.job = job_id;
  return r;
}

void execute_job(const Job& job, Slot& slot, Shared& sh,
                 const RunnerOptions& opts, int worker) {
  JobResult& r = slot.result;
  r.id = job.id;
  int attempt = slot.prior_attempts;
  bool degraded_mode = slot.degraded_mode;
  const std::uint64_t seed = job_seed(job.id);

  for (;;) {
    if (sh.campaign.cancel_requested()) {
      r.status = JobStatus::Cancelled;
      r.error = ErrorClass::Cancelled;
      r.attempts = attempt;
      r.detail = "campaign cancelled before attempt";
      sh.counters->bump(sh.counters->cancelled);
      return;
    }
    ++attempt;
    sh.counters->bump(sh.counters->attempts_started);
    {
      LedgerRecord rec = make_record(RecordKind::Started, job.id);
      rec.attempt = attempt;
      sh.append(rec);
    }

    // Fresh token per attempt: cancellation is sticky, and a retry must
    // not start pre-cancelled.
    exec::CancelToken token;
    auto tripped = std::make_shared<std::atomic<bool>>(false);
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      Inflight& inf = sh.inflight[static_cast<std::size_t>(worker)];
      inf.token = token;
      inf.deadline_tripped = tripped;
      inf.has_deadline = job.attempt_deadline_seconds > 0.0;
      if (inf.has_deadline)
        inf.deadline = Clock::now() +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               job.attempt_deadline_seconds));
      inf.active = true;
    }
    exec::Budget budget = job.budget;
    budget.cancel = token;

    AttemptOutcome ao;
    ErrorClass err = ErrorClass::None;
    std::string fail_detail;
    try {
      if (job.kind == JobKind::Custom) {
        if (!job.custom)
          throw std::invalid_argument("jobs: custom job '" + job.id +
                                      "' has no callable");
        ao = job.custom(budget, degraded_mode,
                        slot.have_ckpt ? &slot.ckpt : nullptr);
      } else {
        KernelRequest rq;
        rq.kind = job.kind;
        rq.design = job.design;
        rq.seed = seed;
        rq.degraded = degraded_mode;
        rq.epsilon = job.epsilon;
        rq.confidence = job.confidence;
        rq.min_pairs = job.min_pairs;
        rq.max_pairs = job.max_pairs;
        rq.mc_threads = job.mc_threads;
        rq.mc_chunk_pairs = job.mc_chunk_pairs;
        rq.max_iters = job.max_iters;
        rq.resume = slot.have_ckpt ? &slot.ckpt : nullptr;
        ao = opts.kernel_executor ? opts.kernel_executor(rq, budget)
                                  : run_kernel(rq, budget);
      }
      if (!ao.ok) {
        err = ao.stop == exec::StopReason::Cancelled &&
                      sh.campaign.cancel_requested()
                  ? ErrorClass::Cancelled
                  : ErrorClass::BudgetExhausted;
        fail_detail = ao.detail;
      }
    } catch (const std::exception& e) {
      err = classify_current_exception(sh.campaign.cancel_requested());
      fail_detail = e.what();
    } catch (...) {
      err = ErrorClass::Internal;
      fail_detail = "non-standard exception";
    }
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      sh.inflight[static_cast<std::size_t>(worker)].active = false;
    }
    if (err == ErrorClass::BudgetExhausted &&
        tripped->load(std::memory_order_acquire))
      fail_detail += " [supervisor wall deadline]";

    if (err == ErrorClass::None) {
      LedgerRecord rec = make_record(RecordKind::Completed, job.id);
      rec.attempts = attempt;
      rec.degraded = ao.out.degraded;
      rec.value = ao.out.value;
      rec.detail = ao.out.detail;
      sh.append(rec);
      r.status = JobStatus::Completed;
      r.error = ErrorClass::None;
      r.attempts = attempt;
      r.degraded = ao.out.degraded;
      r.value = ao.out.value;
      r.detail = ao.out.detail;
      sh.counters->bump(sh.counters->completed);
      return;
    }

    {
      LedgerRecord rec = make_record(RecordKind::AttemptFailed, job.id);
      rec.attempt = attempt;
      rec.error = to_string(err);
      rec.detail = fail_detail;
      sh.append(rec);
    }
    if (ao.out.has_checkpoint) {
      // Durable resumable state: a later attempt (this process or the
      // next) continues the estimate instead of restarting it.
      slot.ckpt = ao.out.checkpoint;
      slot.have_ckpt = true;
      LedgerRecord rec = make_record(RecordKind::Checkpoint, job.id);
      rec.attempt = attempt;
      rec.checkpoint = slot.ckpt.serialize();
      sh.append(rec);
    }

    if (err == ErrorClass::Cancelled || sh.campaign.cancel_requested()) {
      r.status = JobStatus::Cancelled;
      r.error = ErrorClass::Cancelled;
      r.attempts = attempt;
      r.detail = fail_detail;
      sh.counters->bump(sh.counters->cancelled);
      return;
    }
    const bool out_of_attempts =
        attempt >= slot.prior_attempts + opts.retry.max_attempts;
    if (!opts.retry.retryable(err) || out_of_attempts) {
      r.status = JobStatus::Failed;
      r.error = err;
      r.attempts = attempt;
      r.detail = fail_detail;
      sh.counters->bump(sh.counters->failed);
      return;
    }

    const double delay = opts.retry.delay_seconds(job.id, attempt);
    {
      LedgerRecord rec = make_record(RecordKind::Retried, job.id);
      rec.attempt = attempt + 1;
      rec.delay_seconds = delay;
      sh.append(rec);
    }
    if (opts.retry.downgrade_on_budget && err == ErrorClass::BudgetExhausted &&
        !degraded_mode &&
        (job.kind == JobKind::Symbolic || job.kind == JobKind::Custom)) {
      degraded_mode = true;
      LedgerRecord rec = make_record(RecordKind::Degraded, job.id);
      rec.attempt = attempt + 1;
      rec.from = job.kind == JobKind::Symbolic ? "bdd-sat-fraction" : "primary";
      rec.to = job.kind == JobKind::Symbolic ? "monte-carlo" : "fallback";
      sh.append(rec);
      sh.counters->bump(sh.counters->degraded);
    }
    ++slot.retries;
    sh.counters->bump(sh.counters->retried);
    if (delay > 0.0) opts.sleep_fn(delay);
  }
}

}  // namespace

Runner::Runner(RunnerOptions opts)
    : opts_(std::move(opts)),
      cells_(std::make_shared<RunnerCounterCells>()) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (!opts_.sleep_fn)
    opts_.sleep_fn = [](double seconds) {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    };
}

CampaignResult Runner::run(const std::vector<Job>& jobs) {
  return run_impl(jobs, /*resuming=*/false);
}

CampaignResult Runner::resume(const std::vector<Job>& jobs) {
  return run_impl(jobs, /*resuming=*/true);
}

CampaignResult Runner::run_impl(const std::vector<Job>& jobs, bool resuming) {
  {
    std::unordered_set<std::string_view> ids;
    for (const Job& j : jobs) {
      if (j.id.empty())
        throw std::invalid_argument("jobs: job with empty id");
      if (!ids.insert(j.id).second)
        throw std::invalid_argument("jobs: duplicate job id '" + j.id + "'");
    }
  }

  CampaignResult cr;
  cr.results.resize(jobs.size());

  LedgerScan scan;
  std::unique_ptr<LedgerWriter> writer;
  if (!opts_.ledger_path.empty()) {
    if (resuming) scan = read_ledger(opts_.ledger_path);
    writer = std::make_unique<LedgerWriter>(opts_.ledger_path,
                                            /*truncate=*/!resuming);
  }
  for (const std::string& w : scan.warnings)
    cr.warnings.push_back("ledger: " + w);
  if (scan.malformed_lines > scan.warnings.size())
    cr.warnings.push_back("ledger: " +
                          std::to_string(scan.malformed_lines) +
                          " malformed lines skipped in total");

  // Fold the prior process's ledger into per-job starting state.
  std::vector<Slot> slots(jobs.size());
  std::unordered_map<std::string_view, std::size_t> index;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    slots[i].job = &jobs[i];
    index.emplace(jobs[i].id, i);
  }
  std::size_t unknown_ledger_jobs = 0;
  for (const LedgerRecord& rec : scan.records) {
    auto it = index.find(rec.job);
    if (it == index.end()) {
      ++unknown_ledger_jobs;
      continue;
    }
    Slot& slot = slots[it->second];
    switch (rec.kind) {
      case RecordKind::Completed:
        if (!slot.done) cells_->bump(cells_->served_from_ledger);
        slot.done = true;
        slot.result.id = rec.job;
        slot.result.status = JobStatus::Completed;
        slot.result.error = ErrorClass::None;
        slot.result.attempts = rec.attempts;
        slot.result.degraded = rec.degraded;
        slot.result.value = rec.value;
        slot.result.detail = rec.detail;
        slot.result.from_ledger = true;
        break;
      case RecordKind::Started:
        slot.prior_attempts = std::max(slot.prior_attempts, rec.attempt);
        break;
      case RecordKind::Checkpoint:
        if (core::MonteCarloCheckpoint ck;
            core::MonteCarloCheckpoint::parse(rec.checkpoint, ck)) {
          slot.ckpt = ck;
          slot.have_ckpt = true;
        } else {
          cr.warnings.push_back("ledger: unparsable checkpoint for job '" +
                                rec.job + "' ignored");
        }
        break;
      case RecordKind::Degraded:
        // The symbolic path already proved too expensive once; a resumed
        // run keeps the downgrade instead of re-discovering it.
        slot.degraded_mode = true;
        break;
      default: break;
    }
  }
  if (unknown_ledger_jobs)
    cr.warnings.push_back("ledger: " + std::to_string(unknown_ledger_jobs) +
                          " records for jobs not in this campaign");

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (!slots[i].done) pending.push_back(i);

  const int workers =
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(opts_.workers),
          std::max<std::size_t>(pending.size(), 1)));

  Shared sh;
  sh.ledger = writer.get();
  sh.seq = scan.max_seq();
  sh.campaign = opts_.campaign_cancel;
  sh.counters = cells_.get();
  sh.inflight.resize(static_cast<std::size_t>(workers));

  {
    std::vector<LedgerRecord> burst;
    burst.reserve(pending.size());
    for (std::size_t i : pending) {
      LedgerRecord rec = make_record(RecordKind::Enqueued, jobs[i].id);
      rec.job_kind = to_string(jobs[i].kind);
      rec.design = jobs[i].design;
      burst.push_back(std::move(rec));
      sh.counters->bump(sh.counters->enqueued);
    }
    sh.append_batch(burst);
  }

  // Supervisor: enforces per-attempt wall deadlines and fans campaign
  // cancellation out to every in-flight attempt token.
  std::thread supervisor([&sh] {
    std::unique_lock<std::mutex> lk(sh.mu);
    while (!sh.stop_supervisor) {
      sh.cv.wait_for(lk, kSupervisorPoll);
      const bool campaign = sh.campaign.cancel_requested();
      const Clock::time_point now = Clock::now();
      for (Inflight& inf : sh.inflight) {
        if (!inf.active) continue;
        if (campaign) {
          inf.token.request_cancel();
        } else if (inf.has_deadline && now >= inf.deadline) {
          // Reason first, then signal: release/acquire on the token
          // guarantees the worker that sees the cancellation also sees
          // the deadline flag.
          inf.deadline_tripped->store(true, std::memory_order_release);
          inf.token.request_cancel();
        }
      }
    }
  });

  std::atomic<std::size_t> next{0};
  auto worker_fn = [&](int w) {
    for (;;) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= pending.size()) break;
      Slot& slot = slots[pending[k]];
      if (sh.campaign.cancel_requested()) {
        slot.result.id = slot.job->id;
        slot.result.status = JobStatus::Cancelled;
        slot.result.error = ErrorClass::Cancelled;
        slot.result.attempts = slot.prior_attempts;
        slot.result.detail = "campaign cancelled before attempt";
        sh.counters->bump(sh.counters->cancelled);
        continue;
      }
      execute_job(*slot.job, slot, sh, opts_, w);
    }
  };

  if (workers == 1) {
    worker_fn(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(worker_fn, w);
    for (std::thread& t : pool) t.join();
  }
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.stop_supervisor = true;
  }
  sh.cv.notify_all();
  supervisor.join();

  // Deterministic aggregation: submission order, never completion order.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    cr.results[i] = slots[i].result;
    cr.retries += slots[i].retries;
    switch (cr.results[i].status) {
      case JobStatus::Completed: {
        ++cr.completed;
        if (cr.results[i].degraded) ++cr.degraded;
        stats::RunningStats one;
        one.add(cr.results[i].value);
        cr.value_stats.merge(one);
        break;
      }
      case JobStatus::Failed: ++cr.failed; break;
      case JobStatus::Cancelled: ++cr.cancelled; break;
    }
  }
  if (writer && !writer->open())
    cr.warnings.push_back(
        "ledger: write failure mid-campaign; later records were dropped");
  return cr;
}

}  // namespace hlp::jobs
