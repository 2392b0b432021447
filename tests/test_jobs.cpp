#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/sampling_power.hpp"
#include "exec/exec.hpp"
#include "fsm/benchmarks.hpp"
#include "jobs/jobs.hpp"
#include "jobs/kernels.hpp"
#include "jobs/ledger.hpp"
#include "jobs/spec.hpp"
#include "stats/descriptive.hpp"

namespace {

using namespace hlp;
using jobs::ErrorClass;
using jobs::Job;
using jobs::JobKind;
using jobs::JobStatus;
using jobs::LedgerRecord;
using jobs::RecordKind;
using jobs::Runner;
using jobs::RunnerOptions;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "hlp_jobs_" + name;
}

// --- Ledger record round-trips ---------------------------------------------

LedgerRecord sample_record(RecordKind k) {
  LedgerRecord r;
  r.kind = k;
  r.seq = 42;
  r.job = "mult8";
  switch (k) {
    case RecordKind::Enqueued:
      r.job_kind = "symbolic";
      r.design = "mult:8";
      break;
    case RecordKind::Started:
      r.attempt = 2;
      break;
    case RecordKind::AttemptFailed:
      r.attempt = 2;
      r.error = "budget-exhausted";
      r.detail = "budget exceeded (node-cap): 2001 live nodes > cap 2000";
      break;
    case RecordKind::Retried:
      r.attempt = 3;
      r.delay_seconds = 0.07512345678901234;
      break;
    case RecordKind::Degraded:
      r.attempt = 3;
      r.from = "bdd-sat-fraction";
      r.to = "monte-carlo";
      break;
    case RecordKind::Checkpoint:
      r.attempt = 2;
      r.checkpoint = "520 55.08846153846152 1234.5678901234567";
      break;
    case RecordKind::Completed:
      r.attempts = 3;
      r.degraded = true;
      r.value = 184.9897435897433;
      r.detail = "monte-carlo 780 pairs, converged";
      break;
  }
  return r;
}

TEST(Ledger, EveryRecordKindRoundTripsByteIdentically) {
  for (RecordKind k :
       {RecordKind::Enqueued, RecordKind::Started, RecordKind::AttemptFailed,
        RecordKind::Retried, RecordKind::Degraded, RecordKind::Checkpoint,
        RecordKind::Completed}) {
    LedgerRecord r = sample_record(k);
    std::string line = r.serialize();
    LedgerRecord back;
    ASSERT_TRUE(LedgerRecord::parse(line, back)) << line;
    EXPECT_EQ(back, r) << line;
    // serialize(parse(serialize(r))) must be byte-identical: doubles use
    // shortest-round-trip formatting and the field order is canonical.
    EXPECT_EQ(back.serialize(), line);
  }
}

TEST(Ledger, StringFieldsEscapeAndRoundTrip) {
  LedgerRecord r = sample_record(RecordKind::AttemptFailed);
  r.detail = "quote \" backslash \\ tab \t newline \n bell \x07 utf8 \xc3\xa9";
  std::string line = r.serialize();
  LedgerRecord back;
  ASSERT_TRUE(LedgerRecord::parse(line, back));
  EXPECT_EQ(back.detail, r.detail);
  EXPECT_EQ(back.serialize(), line);
}

TEST(Ledger, ParseRejectsMalformedLines) {
  LedgerRecord out;
  out.job = "sentinel";
  const char* bad[] = {
      "",
      "{",
      "not json at all",
      "{\"rec\":\"started\",\"seq\":7}",                 // missing job
      "{\"seq\":7,\"job\":\"a\"}",                       // missing rec
      "{\"rec\":\"nope\",\"seq\":7,\"job\":\"a\"}",      // unknown kind
      "{\"rec\":\"started\",\"seq\":7,\"job\":\"a\"",    // truncated
      "{\"rec\":\"started\",\"seq\":7,\"job\":\"a\",\"bogus\":1}",
      "{\"rec\":\"started\",\"seq\":7,\"job\":\"a\",\"seq\":8}",  // dup key
      "{\"rec\":\"started\",\"seq\":-1,\"job\":\"a\"}",
      "{\"rec\":\"started\",\"seq\":7,\"job\":\"a\"} trailing",
      "{\"rec\":\"started\",\"seq\":7,\"job\":\"\\ud800\"}",  // lone surrogate
  };
  for (const char* line : bad) {
    EXPECT_FALSE(LedgerRecord::parse(line, out)) << line;
    EXPECT_EQ(out.job, "sentinel") << "out mutated by: " << line;
  }
}

TEST(Ledger, ParseRejectsWhatSerializeCannotReproduce) {
  // serialize() writes only the kind's fields, so accepting another one
  // would parse a record that cannot round-trip.
  LedgerRecord out;
  EXPECT_FALSE(LedgerRecord::parse(
      "{\"rec\":\"degraded\",\"seq\":6,\"job\":\"j\",\"attempt\":2,"
      "\"from\":\"a\",\"design\":\"mult:8\"}",
      out));
  EXPECT_FALSE(LedgerRecord::parse(
      "{\"rec\":\"started\",\"seq\":1,\"job\":\"j\",\"value\":1.5}", out));
  EXPECT_FALSE(LedgerRecord::parse(
      "{\"rec\":\"started\",\"seq\":1,\"job\":\"j\",\"attempt\":-1}", out))
      << "a negative count would serialize clamped to 0";
  EXPECT_TRUE(LedgerRecord::parse(
      "{\"rec\":\"started\",\"seq\":1,\"job\":\"j\",\"attempt\":1}", out));
}

TEST(Ledger, ScanSkipsGarbageAndTruncatedFinalLine) {
  std::string text = sample_record(RecordKind::Enqueued).serialize() + "\n" +
                     "garbage line\n" +
                     sample_record(RecordKind::Started).serialize() + "\n" +
                     "{\"rec\":\"completed\",\"seq\":9,\"job\":\"m";  // cut
  jobs::LedgerScan scan = jobs::scan_ledger_text(text);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].kind, RecordKind::Enqueued);
  EXPECT_EQ(scan.records[1].kind, RecordKind::Started);
  EXPECT_EQ(scan.malformed_lines, 2u);
  ASSERT_EQ(scan.warnings.size(), 2u);
  EXPECT_NE(scan.warnings[1].find("truncated final line"), std::string::npos);
  EXPECT_EQ(scan.max_seq(), 42u);
}

TEST(Ledger, MissingFileScansEmpty) {
  jobs::LedgerScan scan = jobs::read_ledger(tmp_path("does_not_exist.ledger"));
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.malformed_lines, 0u);
}

TEST(Ledger, WriterAppendsDurableRecordsReadBackEqual) {
  const std::string path = tmp_path("writer.ledger");
  std::vector<LedgerRecord> recs;
  for (RecordKind k : {RecordKind::Enqueued, RecordKind::Started,
                       RecordKind::Completed})
    recs.push_back(sample_record(k));
  {
    jobs::LedgerWriter w(path, /*truncate=*/true);
    ASSERT_TRUE(w.open());
    for (const LedgerRecord& r : recs) w.append(r);
  }
  jobs::LedgerScan scan = jobs::read_ledger(path);
  EXPECT_EQ(scan.malformed_lines, 0u);
  ASSERT_EQ(scan.records.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i)
    EXPECT_EQ(scan.records[i], recs[i]);
  std::remove(path.c_str());
}

TEST(Ledger, AppendBatchCommitsAllRecordsWithOneFlush) {
  const std::string path = tmp_path("batch.ledger");
  std::vector<LedgerRecord> recs;
  for (std::uint64_t i = 0; i < 32; ++i) {
    LedgerRecord r = sample_record(RecordKind::Enqueued);
    r.seq = i + 1;
    r.job = "job-" + std::to_string(i);
    recs.push_back(std::move(r));
  }
  {
    jobs::LedgerWriter w(path, /*truncate=*/true);
    w.append_batch(recs);
    EXPECT_EQ(w.records_committed(), 32u);
    EXPECT_EQ(w.flush_batches(), 1u);  // the burst costs exactly one fsync
    w.append_batch({});                // empty batch is a no-op
    EXPECT_EQ(w.flush_batches(), 1u);
  }
  jobs::LedgerScan scan = jobs::read_ledger(path);
  EXPECT_EQ(scan.malformed_lines, 0u);
  ASSERT_EQ(scan.records.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i)
    EXPECT_EQ(scan.records[i], recs[i]);
  std::remove(path.c_str());
}

TEST(Ledger, ConcurrentAppendsGroupCommitLoseNothing) {
  const std::string path = tmp_path("group.ledger");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50;
  {
    jobs::LedgerWriter w(path, /*truncate=*/true);
    std::atomic<std::uint64_t> next_seq{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&w, &next_seq, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          LedgerRecord r = sample_record(RecordKind::Started);
          r.seq = next_seq.fetch_add(1, std::memory_order_relaxed) + 1;
          r.job = "t" + std::to_string(t) + "-" + std::to_string(i);
          r.attempt = static_cast<int>(i) + 1;
          w.append(r);  // durable when this returns
        }
      });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(w.records_committed(), kThreads * kPerThread);
    // Group commit is opportunistic: the fsync count can be anywhere from
    // 1 to one-per-record, but never more than the records retired.
    EXPECT_GE(w.flush_batches(), 1u);
    EXPECT_LE(w.flush_batches(), w.records_committed());
  }
  jobs::LedgerScan scan = jobs::read_ledger(path);
  EXPECT_EQ(scan.malformed_lines, 0u);
  ASSERT_EQ(scan.records.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  // Every record survives exactly once, regardless of interleaving.
  std::vector<std::string> jobs_seen;
  for (const auto& r : scan.records) {
    EXPECT_EQ(r.kind, RecordKind::Started);
    jobs_seen.push_back(r.job);
  }
  std::sort(jobs_seen.begin(), jobs_seen.end());
  EXPECT_EQ(std::unique(jobs_seen.begin(), jobs_seen.end()),
            jobs_seen.end());
  // Sequence numbers are a permutation of 1..N even though file order may
  // interleave (seq is campaign-monotone, not file-order-monotone).
  EXPECT_EQ(scan.max_seq(), kThreads * kPerThread);
  std::remove(path.c_str());
}

// --- Monte Carlo checkpoint serialization ----------------------------------

TEST(Checkpoint, SerializeParseIsBitExact) {
  core::MonteCarloCheckpoint c;
  c.count = 12345;
  c.mean = 55.088461538461519;
  c.m2 = 0.1234567890123456789;
  std::string text = c.serialize();
  core::MonteCarloCheckpoint back;
  ASSERT_TRUE(core::MonteCarloCheckpoint::parse(text, back));
  EXPECT_EQ(back.count, c.count);
  // Bit-exact, not approximately equal: resume must not drift.
  EXPECT_EQ(back.mean, c.mean);
  EXPECT_EQ(back.m2, c.m2);
  EXPECT_EQ(back.serialize(), text);
}

TEST(Checkpoint, ParseRejectsMalformedText) {
  core::MonteCarloCheckpoint out;
  out.count = 7;
  for (const char* bad : {"", "1 2", "1 2 3 4", "x 2 3", "1 x 3", "1 2 x",
                          "1  2 3", "1 2 3 ", "-1 2 3"}) {
    EXPECT_FALSE(core::MonteCarloCheckpoint::parse(bad, out)) << bad;
    EXPECT_EQ(out.count, 7u);
  }
}

// --- Seeds and backoff ------------------------------------------------------

TEST(JobSeed, DependsOnlyOnId) {
  EXPECT_EQ(jobs::job_seed("mult8"), jobs::job_seed("mult8"));
  EXPECT_NE(jobs::job_seed("mult8"), jobs::job_seed("mult9"));
  EXPECT_NE(jobs::job_seed("a"), jobs::job_seed("b"));
}

TEST(RetryPolicy, BackoffIsDeterministicBoundedAndClamped) {
  jobs::RetryPolicy p;
  p.base_delay_seconds = 0.05;
  p.multiplier = 2.0;
  p.max_delay_seconds = 0.2;
  p.jitter_frac = 0.25;
  double prev_base = 0.0;
  for (int failed = 1; failed <= 6; ++failed) {
    double d1 = p.delay_seconds("jobA", failed);
    double d2 = p.delay_seconds("jobA", failed);
    EXPECT_EQ(d1, d2) << "delay must be a pure function of (id, attempt)";
    double base = std::min(0.05 * std::pow(2.0, failed - 1), 0.2);
    EXPECT_GE(d1, base * (1.0 - p.jitter_frac));
    EXPECT_LE(d1, base * (1.0 + p.jitter_frac));
    EXPECT_GE(base, prev_base);
    prev_base = base;
  }
  // Different jobs get different jitter (spreads simultaneous retries).
  EXPECT_NE(p.delay_seconds("jobA", 1), p.delay_seconds("jobB", 1));
  p.jitter_frac = 0.0;
  EXPECT_EQ(p.delay_seconds("jobA", 1), 0.05);
  EXPECT_EQ(p.delay_seconds("jobA", 2), 0.1);
  EXPECT_EQ(p.delay_seconds("jobA", 5), 0.2);  // clamped at max
}

// --- Design-spec factories --------------------------------------------------

TEST(DesignSpec, NetlistFactoriesParse) {
  EXPECT_GT(jobs::make_module("adder:8").netlist.gate_count(), 0u);
  EXPECT_GT(jobs::make_module("c17").netlist.gate_count(), 0u);
  EXPECT_GT(jobs::make_module("random:8:40:4:7").netlist.gate_count(), 0u);
  for (const char* bad :
       {"", "adder", "adder:x", "adder:0", "adder:99", "nosuch:3",
        "adder:8:9", "random:8:40:4", "mult:17"}) {
    EXPECT_THROW(jobs::make_module(bad), std::invalid_argument) << bad;
  }
}

TEST(DesignSpec, CdfgFactoriesParse) {
  EXPECT_GT(jobs::make_cdfg("fir:8").size(), 0u);
  EXPECT_GT(jobs::make_cdfg("horner:4").size(), 0u);
  for (const char* bad : {"", "fir", "fir:x", "fir:0", "nosuch:1", "poly"})
    EXPECT_THROW(jobs::make_cdfg(bad), std::invalid_argument) << bad;
}

TEST(DesignSpec, ControllerByNameCoversBenchmarksAndThrows) {
  for (const char* name : {"traffic", "uart-rx", "dma", "elevator"})
    EXPECT_GT(fsm::controller_by_name(name).num_states(), 0u) << name;
  EXPECT_THROW(fsm::controller_by_name("nosuch"), std::invalid_argument);
}

// --- Kernel determinism -----------------------------------------------------

TEST(Kernels, SameRequestIsBitIdenticalAcrossCalls) {
  jobs::KernelRequest rq;
  rq.kind = JobKind::MonteCarlo;
  rq.design = "adder:8";
  rq.seed = jobs::job_seed("det");
  rq.epsilon = 0.05;
  exec::Budget unlimited;
  jobs::AttemptOutcome a = jobs::run_kernel(rq, unlimited);
  jobs::AttemptOutcome b = jobs::run_kernel(rq, unlimited);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.out.value, b.out.value);
  EXPECT_EQ(a.detail, b.detail);
}

// --- Runner: basic campaigns ------------------------------------------------

Job mc_job(const std::string& id, const std::string& design,
           double epsilon = 0.05) {
  Job j;
  j.id = id;
  j.kind = JobKind::MonteCarlo;
  j.design = design;
  j.epsilon = epsilon;
  return j;
}

TEST(Runner, RunsEveryKernelKindAndAggregatesInSubmissionOrder) {
  std::vector<Job> campaign;
  {
    Job j;
    j.id = "sym";
    j.kind = JobKind::Symbolic;
    j.design = "adder:6";
    campaign.push_back(j);
  }
  campaign.push_back(mc_job("mc", "parity:10"));
  {
    Job j;
    j.id = "mkv";
    j.kind = JobKind::Markov;
    j.design = "dma";
    campaign.push_back(j);
  }
  {
    Job j;
    j.id = "sched";
    j.kind = JobKind::Schedule;
    j.design = "fir:8";
    campaign.push_back(j);
  }
  RunnerOptions opts;
  opts.workers = 2;
  jobs::CampaignResult cr = Runner(opts).run(campaign);
  ASSERT_EQ(cr.results.size(), 4u);
  EXPECT_TRUE(cr.all_completed());
  EXPECT_EQ(cr.completed, 4u);
  EXPECT_EQ(cr.failed + cr.cancelled + cr.retries, 0u);
  // Results come back in submission order regardless of worker scheduling.
  EXPECT_EQ(cr.results[0].id, "sym");
  EXPECT_EQ(cr.results[1].id, "mc");
  EXPECT_EQ(cr.results[2].id, "mkv");
  EXPECT_EQ(cr.results[3].id, "sched");
  for (const jobs::JobResult& r : cr.results) {
    EXPECT_EQ(r.status, JobStatus::Completed) << r.id;
    EXPECT_EQ(r.attempts, 1) << r.id;
    EXPECT_GT(r.value, 0.0) << r.id;
  }
  EXPECT_EQ(cr.value_stats.count(), 4u);
}

TEST(Runner, InvalidDesignFailsWithoutRetry) {
  RunnerOptions opts;
  opts.retry.max_attempts = 5;
  jobs::CampaignResult cr =
      Runner(opts).run({mc_job("bad", "nosuch:3")});
  ASSERT_EQ(cr.results.size(), 1u);
  EXPECT_EQ(cr.results[0].status, JobStatus::Failed);
  EXPECT_EQ(cr.results[0].error, ErrorClass::InvalidInput);
  EXPECT_EQ(cr.results[0].attempts, 1);  // invalid input is never retried
  EXPECT_EQ(cr.retries, 0u);
}

TEST(Runner, DuplicateJobIdsThrow) {
  EXPECT_THROW(Runner().run({mc_job("x", "adder:4"), mc_job("x", "adder:6")}),
               std::invalid_argument);
  EXPECT_THROW(Runner().run({mc_job("", "adder:4")}), std::invalid_argument);
}

// --- Retry semantics --------------------------------------------------------

TEST(Runner, FlakyJobSucceedsAfterExactlyNAttempts) {
  const int kAttempts = 3;
  auto calls = std::make_shared<std::atomic<int>>(0);
  Job j;
  j.id = "flaky";
  j.kind = JobKind::Custom;
  j.custom = [calls](const exec::Budget&, bool,
                     const core::MonteCarloCheckpoint*) -> jobs::AttemptOutcome {
    if (calls->fetch_add(1) + 1 < kAttempts)
      throw std::runtime_error("transient fault");
    jobs::AttemptOutcome ao;
    ao.ok = true;
    ao.out.value = 7.25;
    ao.detail = ao.out.detail = "finally";
    return ao;
  };
  RunnerOptions opts;
  opts.retry.max_attempts = kAttempts;
  opts.retry.downgrade_on_budget = false;
  std::vector<double> slept;
  opts.sleep_fn = [&slept](double s) { slept.push_back(s); };  // fake clock
  jobs::CampaignResult cr = Runner(opts).run({j});
  ASSERT_EQ(cr.results.size(), 1u);
  EXPECT_EQ(cr.results[0].status, JobStatus::Completed);
  EXPECT_EQ(cr.results[0].attempts, kAttempts);
  EXPECT_EQ(cr.results[0].value, 7.25);
  EXPECT_EQ(cr.retries, 2u);
  EXPECT_EQ(calls->load(), kAttempts);
  // The fake clock saw exactly the deterministic policy backoffs.
  ASSERT_EQ(slept.size(), 2u);
  EXPECT_EQ(slept[0], opts.retry.delay_seconds("flaky", 1));
  EXPECT_EQ(slept[1], opts.retry.delay_seconds("flaky", 2));
}

TEST(Runner, PersistentFailureExhaustsAttempts) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  Job j;
  j.id = "doomed";
  j.kind = JobKind::Custom;
  j.custom = [calls](const exec::Budget&, bool,
                     const core::MonteCarloCheckpoint*) -> jobs::AttemptOutcome {
    calls->fetch_add(1);
    throw std::runtime_error("always");
  };
  RunnerOptions opts;
  opts.retry.max_attempts = 4;
  opts.retry.base_delay_seconds = 0.0;  // no real sleeping in tests
  jobs::CampaignResult cr = Runner(opts).run({j});
  EXPECT_EQ(cr.results[0].status, JobStatus::Failed);
  EXPECT_EQ(cr.results[0].error, ErrorClass::Internal);
  EXPECT_EQ(cr.results[0].attempts, 4);
  EXPECT_EQ(calls->load(), 4);
  EXPECT_EQ(cr.retries, 3u);
}

TEST(Runner, BudgetExhaustedCustomJobDowngradesOnRetry) {
  const std::string path = tmp_path("downgrade_custom.ledger");
  Job j;
  j.id = "fallbacker";
  j.kind = JobKind::Custom;
  j.custom = [](const exec::Budget&, bool degraded,
                const core::MonteCarloCheckpoint*) -> jobs::AttemptOutcome {
    if (!degraded)
      throw exec::BudgetExceeded(exec::StopReason::StepQuota,
                                 "primary path too expensive");
    jobs::AttemptOutcome ao;
    ao.ok = true;
    ao.out.value = 3.5;
    ao.out.degraded = true;
    ao.out.degraded_from = "primary";
    ao.out.degraded_to = "fallback";
    return ao;
  };
  RunnerOptions opts;
  opts.retry.base_delay_seconds = 0.0;
  opts.ledger_path = path;
  jobs::CampaignResult cr = Runner(opts).run({j});
  ASSERT_EQ(cr.results.size(), 1u);
  EXPECT_EQ(cr.results[0].status, JobStatus::Completed);
  EXPECT_TRUE(cr.results[0].degraded);
  EXPECT_EQ(cr.results[0].attempts, 2);
  EXPECT_EQ(cr.degraded, 1u);

  jobs::LedgerScan scan = jobs::read_ledger(path);
  bool saw_degraded = false, saw_completed = false;
  for (const LedgerRecord& r : scan.records) {
    if (r.kind == RecordKind::Degraded) {
      saw_degraded = true;
      EXPECT_EQ(r.from, "primary");
      EXPECT_EQ(r.to, "fallback");
    }
    if (r.kind == RecordKind::Completed) {
      saw_completed = true;
      EXPECT_TRUE(r.degraded);
    }
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_TRUE(saw_completed);
  std::remove(path.c_str());
}

TEST(Runner, DowngradedSymbolicMatchesDirectSampledEstimate) {
  // A symbolic job whose BDD blows its node cap downgrades to the sampled
  // kernel. Because the fallback derives its seed from the job id exactly
  // like a direct MonteCarlo job, the degraded answer must be bit-identical
  // to running the sampled estimator in the first place.
  Job sym;
  sym.id = "same-id";
  sym.kind = JobKind::Symbolic;
  sym.design = "mult:6";
  sym.budget = exec::Budget::with_node_cap(500);
  sym.epsilon = 0.05;
  RunnerOptions opts;
  opts.retry.base_delay_seconds = 0.0;
  jobs::CampaignResult degraded_run = Runner(opts).run({sym});
  ASSERT_EQ(degraded_run.results.size(), 1u);
  ASSERT_EQ(degraded_run.results[0].status, JobStatus::Completed);
  ASSERT_TRUE(degraded_run.results[0].degraded);
  EXPECT_EQ(degraded_run.results[0].attempts, 2);

  Job mc = mc_job("same-id", "mult:6");
  jobs::CampaignResult direct_run = Runner(opts).run({mc});
  ASSERT_EQ(direct_run.results[0].status, JobStatus::Completed);
  EXPECT_FALSE(direct_run.results[0].degraded);
  EXPECT_EQ(degraded_run.results[0].value, direct_run.results[0].value);
}

TEST(Runner, MemoryCappedSymbolicDowngradesToDirectSampledEstimate) {
  // The BDD manager charges its node vector, unique table, ITE cache and
  // sat memo to the memory cap. mult:6 needs well over 256 KiB of tables,
  // so the symbolic attempt trips memory-cap and the retry's sampled answer
  // equals a direct Monte Carlo job's bit for bit.
  exec::Budget capped;
  capped.memory_cap_bytes = 256 * 1024;
  jobs::KernelRequest rq;
  rq.kind = JobKind::Symbolic;
  rq.design = "mult:6";
  try {
    (void)jobs::run_kernel(rq, capped);
    FAIL() << "mult:6 fit its BDD tables into 256 KiB";
  } catch (const exec::BudgetExceeded& e) {
    EXPECT_EQ(e.reason(), exec::StopReason::MemoryCap);
  }
  EXPECT_TRUE(jobs::run_kernel(rq, {}).ok) << "unlimited budget must not trip";

  Job sym;
  sym.id = "same-id";
  sym.kind = JobKind::Symbolic;
  sym.design = "mult:6";
  sym.budget = capped;
  sym.epsilon = 0.05;
  RunnerOptions opts;
  opts.retry.base_delay_seconds = 0.0;
  jobs::CampaignResult degraded_run = Runner(opts).run({sym});
  ASSERT_EQ(degraded_run.results.size(), 1u);
  ASSERT_EQ(degraded_run.results[0].status, JobStatus::Completed);
  ASSERT_TRUE(degraded_run.results[0].degraded);
  EXPECT_EQ(degraded_run.results[0].attempts, 2);

  jobs::CampaignResult direct_run =
      Runner(opts).run({mc_job("same-id", "mult:6")});
  ASSERT_EQ(direct_run.results[0].status, JobStatus::Completed);
  EXPECT_EQ(degraded_run.results[0].value, direct_run.results[0].value);
}

// --- Determinism across worker counts ---------------------------------------

TEST(Runner, ParallelRunIsBitIdenticalToSerialRun) {
  std::vector<Job> campaign = {
      mc_job("a", "adder:8"),    mc_job("b", "mult:5"),
      mc_job("c", "parity:12"),  mc_job("d", "alu:8"),
      mc_job("e", "comparator:8"), mc_job("f", "max:6"),
  };
  RunnerOptions serial;
  serial.workers = 1;
  jobs::CampaignResult s = Runner(serial).run(campaign);
  RunnerOptions par;
  par.workers = 4;
  jobs::CampaignResult p = Runner(par).run(campaign);
  ASSERT_TRUE(s.all_completed());
  ASSERT_TRUE(p.all_completed());
  ASSERT_EQ(s.results.size(), p.results.size());
  for (std::size_t i = 0; i < s.results.size(); ++i) {
    EXPECT_EQ(s.results[i].id, p.results[i].id);
    EXPECT_EQ(s.results[i].value, p.results[i].value) << s.results[i].id;
  }
  // Submission-order merging makes even the aggregate moments bit-equal.
  EXPECT_EQ(s.value_stats.mean(), p.value_stats.mean());
  EXPECT_EQ(s.value_stats.variance(), p.value_stats.variance());
}

// --- Checkpointed Monte Carlo across attempts -------------------------------

TEST(Runner, MonteCarloResumesFromCheckpointAcrossAttempts) {
  // A per-attempt step quota far below the pairs needed forces several
  // budget-exhausted attempts; each failure checkpoints the Welford state
  // and the retry resumes it. The final estimate must be bit-identical to
  // one uninterrupted run with the same seed.
  Job j = mc_job("ckpt", "adder:8", 0.02);
  j.budget = exec::Budget::with_step_quota(150);
  RunnerOptions opts;
  opts.retry.max_attempts = 10;
  opts.retry.base_delay_seconds = 0.0;
  const std::string path = tmp_path("mc_ckpt.ledger");
  opts.ledger_path = path;
  jobs::CampaignResult cr = Runner(opts).run({j});
  ASSERT_EQ(cr.results.size(), 1u);
  ASSERT_EQ(cr.results[0].status, JobStatus::Completed);
  EXPECT_GT(cr.results[0].attempts, 1);
  EXPECT_FALSE(cr.results[0].degraded);  // resumed, not downgraded

  jobs::KernelRequest rq;
  rq.kind = JobKind::MonteCarlo;
  rq.design = "adder:8";
  rq.seed = jobs::job_seed("ckpt");
  rq.epsilon = 0.02;
  exec::Budget unlimited;
  jobs::AttemptOutcome direct = jobs::run_kernel(rq, unlimited);
  ASSERT_TRUE(direct.ok);
  EXPECT_EQ(cr.results[0].value, direct.out.value);

  std::size_t checkpoints = 0;
  for (const LedgerRecord& r : jobs::read_ledger(path).records)
    if (r.kind == RecordKind::Checkpoint) ++checkpoints;
  EXPECT_GE(checkpoints, 1u);
  std::remove(path.c_str());
}

// --- Supervisor wall deadline -----------------------------------------------

TEST(Runner, SupervisorEnforcesWallDeadlineThroughCancelToken) {
  Job j;
  j.id = "stuck";
  j.kind = JobKind::Custom;
  j.attempt_deadline_seconds = 0.05;
  j.custom = [](const exec::Budget& b, bool,
                const core::MonteCarloCheckpoint*) -> jobs::AttemptOutcome {
    // A kernel stuck in a loop, cancellable only through its token.
    while (!b.cancel.cancel_requested())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    throw exec::BudgetExceeded(exec::StopReason::Cancelled,
                               "cancelled mid-kernel");
  };
  RunnerOptions opts;
  opts.retry.max_attempts = 1;
  jobs::CampaignResult cr = Runner(opts).run({j});
  ASSERT_EQ(cr.results.size(), 1u);
  EXPECT_EQ(cr.results[0].status, JobStatus::Failed);
  // A supervisor trip is a budget problem (retryable), not a campaign
  // cancellation: the runner disambiguates via the deadline-trip flag.
  EXPECT_EQ(cr.results[0].error, ErrorClass::BudgetExhausted);
  EXPECT_NE(cr.results[0].detail.find("supervisor wall deadline"),
            std::string::npos);
}

TEST(Runner, PreCancelledCampaignStartsNothing) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  Job j;
  j.id = "never";
  j.kind = JobKind::Custom;
  j.custom = [calls](const exec::Budget&, bool,
                     const core::MonteCarloCheckpoint*) -> jobs::AttemptOutcome {
    calls->fetch_add(1);
    jobs::AttemptOutcome ao;
    ao.ok = true;
    return ao;
  };
  RunnerOptions opts;
  opts.campaign_cancel.request_cancel();
  jobs::CampaignResult cr = Runner(opts).run({j, mc_job("n2", "adder:4")});
  EXPECT_EQ(cr.cancelled, 2u);
  EXPECT_EQ(cr.completed, 0u);
  EXPECT_EQ(calls->load(), 0);
}

// --- Kill and resume (the acceptance scenario) ------------------------------

TEST(Runner, KillAndResumeCompletesEachJobOnceBitIdentically) {
  const std::string path = tmp_path("kill_resume.ledger");
  std::remove(path.c_str());
  auto armed = std::make_shared<std::atomic<bool>>(true);
  exec::CancelToken campaign_token;

  auto make_campaign = [&]() {
    std::vector<Job> c;
    c.push_back(mc_job("mc-add", "adder:8"));
    c.push_back(mc_job("mc-mult", "mult:5"));
    Job trip;
    trip.id = "tripwire";
    trip.kind = JobKind::Custom;
    trip.custom = [armed, campaign_token](
                      const exec::Budget&, bool,
                      const core::MonteCarloCheckpoint*) -> jobs::AttemptOutcome {
      if (armed->load()) {
        // Simulate the process being killed mid-campaign: trip the
        // campaign token so in-flight work cancels and the queue drains.
        exec::CancelToken t = campaign_token;
        t.request_cancel();
        throw exec::BudgetExceeded(exec::StopReason::Cancelled, "killed");
      }
      jobs::AttemptOutcome ao;
      ao.ok = true;
      ao.out.value = 42.0;
      ao.detail = ao.out.detail = "tripwire disarmed";
      return ao;
    };
    c.push_back(trip);
    c.push_back(mc_job("mc-alu", "alu:8"));
    c.push_back(mc_job("mc-par", "parity:12"));
    {
      Job m;
      m.id = "mkv-dma";
      m.kind = JobKind::Markov;
      m.design = "dma";
      c.push_back(m);
    }
    return c;
  };

  // Golden: uninterrupted serial run, no ledger.
  std::vector<Job> campaign = make_campaign();
  armed->store(false);
  RunnerOptions golden_opts;
  golden_opts.workers = 1;
  jobs::CampaignResult golden = Runner(golden_opts).run(campaign);
  ASSERT_TRUE(golden.all_completed());

  // Interrupted run: tripwire cancels the campaign partway through.
  armed->store(true);
  RunnerOptions first_opts;
  first_opts.workers = 2;
  first_opts.ledger_path = path;
  first_opts.campaign_cancel = campaign_token;
  jobs::CampaignResult interrupted = Runner(first_opts).run(campaign);
  EXPECT_GT(interrupted.cancelled, 0u);
  EXPECT_LT(interrupted.completed, campaign.size());

  // Resume with a fresh runner (fresh campaign token), tripwire disarmed.
  armed->store(false);
  RunnerOptions resume_opts;
  resume_opts.workers = 2;
  resume_opts.ledger_path = path;
  jobs::CampaignResult resumed = Runner(resume_opts).resume(campaign);
  ASSERT_TRUE(resumed.all_completed())
      << "resume must finish every job exactly once";

  // Merged results are bit-identical to the uninterrupted serial run.
  ASSERT_EQ(resumed.results.size(), golden.results.size());
  std::size_t from_ledger = 0;
  for (std::size_t i = 0; i < golden.results.size(); ++i) {
    EXPECT_EQ(resumed.results[i].id, golden.results[i].id);
    EXPECT_EQ(resumed.results[i].value, golden.results[i].value)
        << resumed.results[i].id;
    from_ledger += resumed.results[i].from_ledger ? 1u : 0u;
  }
  EXPECT_EQ(from_ledger, interrupted.completed)
      << "every job the first run completed is served from the ledger";
  EXPECT_EQ(resumed.value_stats.mean(), golden.value_stats.mean());
  EXPECT_EQ(resumed.value_stats.variance(), golden.value_stats.variance());

  // The ledger shows exactly one completed record per job across both runs.
  jobs::LedgerScan scan = jobs::read_ledger(path);
  EXPECT_EQ(scan.malformed_lines, 0u);
  for (const Job& j : campaign) {
    std::size_t completions = 0;
    for (const LedgerRecord& r : scan.records)
      if (r.kind == RecordKind::Completed && r.job == j.id) ++completions;
    EXPECT_EQ(completions, 1u) << j.id;
  }
  std::remove(path.c_str());
}

TEST(Runner, ResumeOfFinishedCampaignRecomputesNothing) {
  const std::string path = tmp_path("resume_noop.ledger");
  std::remove(path.c_str());
  std::vector<Job> campaign = {mc_job("r1", "adder:6"),
                               mc_job("r2", "parity:8")};
  RunnerOptions opts;
  opts.ledger_path = path;
  jobs::CampaignResult first = Runner(opts).run(campaign);
  ASSERT_TRUE(first.all_completed());
  const std::size_t lines_after_run = jobs::read_ledger(path).records.size();

  jobs::CampaignResult again = Runner(opts).resume(campaign);
  ASSERT_TRUE(again.all_completed());
  for (const jobs::JobResult& r : again.results) EXPECT_TRUE(r.from_ledger);
  EXPECT_EQ(again.results[0].value, first.results[0].value);
  EXPECT_EQ(again.results[1].value, first.results[1].value);
  // Nothing ran, so nothing was appended.
  EXPECT_EQ(jobs::read_ledger(path).records.size(), lines_after_run);
  std::remove(path.c_str());
}

TEST(Runner, ResumeWithoutLedgerFileIsAFreshRun) {
  const std::string path = tmp_path("resume_fresh.ledger");
  std::remove(path.c_str());
  RunnerOptions opts;
  opts.ledger_path = path;
  jobs::CampaignResult cr = Runner(opts).resume({mc_job("f1", "adder:6")});
  EXPECT_TRUE(cr.all_completed());
  EXPECT_FALSE(cr.results[0].from_ledger);
  std::remove(path.c_str());
}

// --- Campaign spec files ----------------------------------------------------

TEST(Spec, ParsesDirectivesAndJobLines) {
  jobs::CampaignSpec spec = jobs::parse_campaign_spec(
      "# comment\n"
      "workers 4\n"
      "max-attempts 5\n"
      "base-delay 0.01\n"
      "\n"
      "job add16   symbolic    adder:16  node-cap=20000\n"
      "job mc-alu  monte-carlo alu:12    epsilon=0.01 max-pairs=5000 "
      "mc-threads=4\n"
      "job dma     markov      dma       max-iters=500\n"
      "job sched   schedule    fir:16    wall-deadline=1.5\n");
  EXPECT_EQ(spec.workers, 4);
  EXPECT_EQ(spec.retry.max_attempts, 5);
  EXPECT_EQ(spec.retry.base_delay_seconds, 0.01);
  ASSERT_EQ(spec.jobs.size(), 4u);
  EXPECT_EQ(spec.jobs[0].kind, JobKind::Symbolic);
  EXPECT_EQ(spec.jobs[0].budget.node_cap, 20000u);
  EXPECT_EQ(spec.jobs[1].epsilon, 0.01);
  EXPECT_EQ(spec.jobs[1].max_pairs, 5000u);
  EXPECT_EQ(spec.jobs[1].mc_threads, 4);
  EXPECT_EQ(spec.jobs[2].max_iters, 500);
  EXPECT_EQ(spec.jobs[3].attempt_deadline_seconds, 1.5);
}

TEST(Spec, RejectsMalformedLinesWithLineNumbers) {
  struct Case {
    const char* text;
    int line;
  };
  const Case cases[] = {
      {"bogus directive\n", 1},
      {"workers 0\n", 1},
      {"\njob a custom x\n", 2},                 // custom not allowed in specs
      {"job a monte-carlo\n", 1},                // missing design
      {"job a nosuchkind adder:4\n", 1},
      {"job a monte-carlo adder:4 bogus=1\n", 1},
      {"job a monte-carlo adder:4 epsilon=zero\n", 1},
      {"job a monte-carlo adder:4 confidence=1.5\n", 1},
      {"job a monte-carlo adder:4 mc-threads=-1\n", 1},
      {"job a monte-carlo adder:4\njob a markov dma\n", 2},  // duplicate id
  };
  for (const Case& c : cases) {
    try {
      jobs::parse_campaign_spec(c.text);
      FAIL() << "accepted: " << c.text;
    } catch (const jobs::SpecError& e) {
      EXPECT_EQ(e.line(), c.line) << c.text;
    }
  }
}

// --- Satellite: CancelToken cross-thread publication ------------------------

TEST(CancelToken, PublishesWritesMadeBeforeCancellation) {
  // The supervisor records *why* it cancelled before tripping the token
  // (release); a worker that observes the trip (acquire) must see that
  // write. This is the exact pattern jobs.cpp uses for its deadline flag —
  // run it under TSan and this test also proves the ordering annotations.
  for (int round = 0; round < 50; ++round) {
    exec::CancelToken token;
    int reason = 0;  // plain non-atomic payload, ordered by the token
    std::thread supervisor([&] {
      reason = 1234;
      token.request_cancel();
    });
    exec::CancelToken copy = token;  // copies alias the same flag
    while (!copy.cancel_requested()) std::this_thread::yield();
    EXPECT_EQ(reason, 1234);
    supervisor.join();
  }
}

// --- Satellite: RunningStats::merge -----------------------------------------

TEST(RunningStats, MergeOfSingletonsIsExactAndReproducible) {
  // The runner aggregates per-job values by merging singleton accumulators
  // in submission order — on every code path, which is what makes parallel
  // aggregate moments bit-equal to serial (identical merge sequence, not
  // merge-vs-add equivalence). Check the merge result is reproducible
  // bit-for-bit and agrees with sequential accumulation to rounding.
  const double xs[] = {3.5, -1.25, 55.0884615384615, 0.0, 1e-9, 184.98974};
  stats::RunningStats added;
  stats::RunningStats merged1, merged2;
  for (double x : xs) {
    added.add(x);
    stats::RunningStats one;
    one.add(x);
    merged1.merge(one);
    stats::RunningStats dup;
    dup.add(x);
    merged2.merge(dup);
  }
  EXPECT_EQ(merged1.count(), merged2.count());
  EXPECT_EQ(merged1.mean(), merged2.mean());
  EXPECT_EQ(merged1.variance(), merged2.variance());
  EXPECT_EQ(added.count(), merged1.count());
  EXPECT_DOUBLE_EQ(added.mean(), merged1.mean());
  EXPECT_DOUBLE_EQ(added.variance(), merged1.variance());
}

TEST(RunningStats, MergeCombinesArbitraryHalves) {
  stats::RunningStats whole, left, right;
  for (int i = 0; i < 100; ++i) {
    double x = std::sin(i * 0.37) * 10.0 + i * 0.01;
    whole.add(x);
    (i < 37 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
  // Merging an empty side is the identity in both directions.
  stats::RunningStats empty;
  stats::RunningStats copy = whole;
  copy.merge(empty);
  EXPECT_EQ(copy.count(), whole.count());
  EXPECT_EQ(copy.mean(), whole.mean());
  stats::RunningStats empty2;
  empty2.merge(whole);
  EXPECT_EQ(empty2.count(), whole.count());
  EXPECT_EQ(empty2.mean(), whole.mean());
}


// --- Satellite: spec read errors carry the path and errno text --------------

TEST(Spec, ReadErrorIncludesPathAndErrnoText) {
  const std::string path = "/nonexistent-dir/campaign.jobs";
  try {
    jobs::read_campaign_spec(path);
    FAIL() << "expected a read failure";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(std::strerror(ENOENT)), std::string::npos) << what;
  }
}

// --- Satellite: runner lifecycle counters -----------------------------------

TEST(Runner, CountersTrackMixedOutcomeCampaign) {
  Runner runner;
  jobs::CampaignResult cr = runner.run(
      {mc_job("good-a", "adder:6"), mc_job("good-b", "parity:8"),
       mc_job("bad", "nosuch:3")});
  EXPECT_EQ(cr.completed, 2u);
  EXPECT_EQ(cr.failed, 1u);
  const jobs::RunnerCounters c = runner.counters();
  EXPECT_EQ(c.enqueued, 3u);
  EXPECT_EQ(c.attempts_started, 3u);
  EXPECT_EQ(c.completed, 2u);
  EXPECT_EQ(c.failed, 1u);
  EXPECT_EQ(c.cancelled, 0u);
  EXPECT_EQ(c.retried, 0u);
  EXPECT_EQ(c.degraded, 0u);
  EXPECT_EQ(c.served_from_ledger, 0u);
}

TEST(Runner, CountersTrackRetriesAndResumeSkips) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  Job flaky;
  flaky.id = "flaky";
  flaky.kind = JobKind::Custom;
  flaky.custom = [calls](const exec::Budget&, bool,
                         const core::MonteCarloCheckpoint*)
      -> jobs::AttemptOutcome {
    if (calls->fetch_add(1) == 0) throw std::runtime_error("transient");
    jobs::AttemptOutcome ao;
    ao.ok = true;
    ao.out.value = 2.5;
    return ao;
  };
  RunnerOptions opts;
  opts.retry.base_delay_seconds = 0.0;
  Runner runner(opts);
  ASSERT_TRUE(runner.run({flaky}).all_completed());
  const jobs::RunnerCounters c = runner.counters();
  EXPECT_EQ(c.attempts_started, 2u);
  EXPECT_EQ(c.retried, 1u);
  EXPECT_EQ(c.completed, 1u);

  // A resumed campaign that finds every job completed in the ledger counts
  // them as served_from_ledger and executes nothing.
  const std::string path = tmp_path("counters_resume.ledger");
  RunnerOptions lopts;
  lopts.ledger_path = path;
  Runner(lopts).run({mc_job("r1", "adder:6"), mc_job("r2", "adder:4")});
  Runner resumed(lopts);
  jobs::CampaignResult cr =
      resumed.resume({mc_job("r1", "adder:6"), mc_job("r2", "adder:4")});
  EXPECT_TRUE(cr.all_completed());
  const jobs::RunnerCounters rc = resumed.counters();
  EXPECT_EQ(rc.served_from_ledger, 2u);
  EXPECT_EQ(rc.attempts_started, 0u);
  std::remove(path.c_str());
}

}  // namespace
