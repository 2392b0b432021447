// Process-isolated kernel sandbox (DESIGN.md §11): the fork/rlimit/pipe
// execution path, the typed crash taxonomy, the frame codec, and the
// poison-request quarantine circuit breaker.
//
// Naming note: these suites (Sandbox.*, Quarantine.*) are deliberately
// outside the TSan CI allowlist — TSan cannot follow a fork from a
// multithreaded process. The ASan job runs them in full (children die by
// design; the parent is what the leak check covers).

#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "exec/exec.hpp"
#include "exec/fi.hpp"
#include "jobs/jobs.hpp"
#include "jobs/kernels.hpp"
#include "sandbox/quarantine.hpp"
#include "sandbox/sandbox.hpp"

// Real-rlimit tests are meaningless under ASan: the shadow mappings alone
// exceed any RLIMIT_AS a test would set.
#if defined(__SANITIZE_ADDRESS__)
#define HLP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HLP_ASAN 1
#endif
#endif

namespace {

using namespace hlp;
using sandbox::CrashKind;
using sandbox::CrashReport;
using sandbox::Limits;
using sandbox::Quarantine;
using sandbox::RunResult;

jobs::KernelRequest fake_request() {
  jobs::KernelRequest rq;
  rq.kind = jobs::JobKind::Custom;  // never elaborated by a fake kernel
  rq.design = "fake";
  rq.seed = 7;
  return rq;
}

sandbox::KernelFn value_kernel(double value) {
  return [value](const jobs::KernelRequest&, const exec::Budget&) {
    jobs::AttemptOutcome ao;
    ao.ok = true;
    ao.out.value = value;
    ao.out.detail = "fake-kernel";
    return ao;
  };
}

// --- Frame codec ------------------------------------------------------------

TEST(Sandbox, FrameCodecRoundTripsEveryField) {
  jobs::AttemptOutcome out;
  out.ok = false;
  out.stop = exec::StopReason::StepQuota;
  out.detail = "quota \"tripped\"\nmid-run";  // exercise string escaping
  out.out.value = 0.123456789012345;
  out.out.detail = "method summary";
  out.out.degraded = true;
  out.out.degraded_from = "bdd-sat-fraction";
  out.out.degraded_to = "monte-carlo";
  out.out.has_checkpoint = true;
  out.out.checkpoint.count = 4096;
  out.out.checkpoint.mean = 3.25;
  out.out.checkpoint.m2 = 17.0 / 3.0;

  const std::string payload = sandbox::encode_outcome(
      out, jobs::ErrorClass::Internal, "worker exploded");

  jobs::AttemptOutcome back;
  jobs::ErrorClass caught = jobs::ErrorClass::None;
  std::string caught_detail;
  ASSERT_TRUE(sandbox::decode_outcome(payload, back, caught, caught_detail))
      << payload;
  EXPECT_EQ(back.ok, out.ok);
  EXPECT_EQ(back.stop, out.stop);
  EXPECT_EQ(back.detail, out.detail);
  EXPECT_EQ(back.out.value, out.out.value);
  EXPECT_EQ(back.out.detail, out.out.detail);
  EXPECT_EQ(back.out.degraded, out.out.degraded);
  EXPECT_EQ(back.out.degraded_from, out.out.degraded_from);
  EXPECT_EQ(back.out.degraded_to, out.out.degraded_to);
  ASSERT_TRUE(back.out.has_checkpoint);
  EXPECT_EQ(back.out.checkpoint.count, out.out.checkpoint.count);
  EXPECT_EQ(back.out.checkpoint.mean, out.out.checkpoint.mean);
  EXPECT_EQ(back.out.checkpoint.m2, out.out.checkpoint.m2);
  EXPECT_EQ(caught, jobs::ErrorClass::Internal);
  EXPECT_EQ(caught_detail, "worker exploded");

  // encode(decode(x)) is a fixed point — the ledger/wire discipline.
  EXPECT_EQ(sandbox::encode_outcome(back, caught, caught_detail), payload);
}

TEST(Sandbox, FrameCodecCarriesExactCheckpoints) {
  jobs::AttemptOutcome out;
  out.ok = false;
  out.stop = exec::StopReason::StepQuota;
  out.out.has_checkpoint = true;
  out.out.checkpoint.form = core::MonteCarloCheckpoint::Form::Exact;
  out.out.checkpoint.scale = 2;
  out.out.checkpoint.count = 4096;
  out.out.checkpoint.s1 = stats::u128{4096} * 1000003;
  out.out.checkpoint.s2 = (stats::u128{1} << 100) + 7;
  const std::string payload =
      sandbox::encode_outcome(out, jobs::ErrorClass::None, "");
  jobs::AttemptOutcome back;
  jobs::ErrorClass caught = jobs::ErrorClass::Internal;
  std::string caught_detail;
  ASSERT_TRUE(sandbox::decode_outcome(payload, back, caught, caught_detail))
      << payload;
  ASSERT_TRUE(back.out.has_checkpoint);
  EXPECT_EQ(back.out.checkpoint, out.out.checkpoint);
  EXPECT_EQ(sandbox::encode_outcome(back, caught, caught_detail), payload);
}

TEST(Sandbox, FrameCodecIsClosedAndStrict) {
  jobs::AttemptOutcome out;
  jobs::ErrorClass caught;
  std::string detail;
  const char* bad[] = {
      "",
      "not json",
      "{}",                                  // missing ok
      "{\"ok\":true",                        // unterminated
      "{\"ok\":true}x",                      // trailing garbage
      "{\"ok\":\"yes\"}",                    // wrong type
      "{\"ok\":true,\"zz\":1}",              // unknown key: codec is closed
      "{\"ok\":true,\"stop\":\"nosuch\"}",   // unknown stop reason
      "{\"ok\":true,\"ckpt\":\"garbage\"}",  // unparsable checkpoint
      "{\"ok\":true,\"caught\":\"nosuch\"}",
  };
  for (const char* p : bad) {
    EXPECT_FALSE(sandbox::decode_outcome(p, out, caught, detail)) << p;
  }
}

// --- run_isolated: delivery paths -------------------------------------------

TEST(Sandbox, DeliversAFakeKernelsOutcomeAcrossTheFork) {
  exec::Budget budget;
  const RunResult r =
      sandbox::run_isolated(fake_request(), budget, {}, value_kernel(42.5));
  ASSERT_TRUE(r.delivered) << r.crash.detail;
  EXPECT_EQ(r.crash.kind, CrashKind::None);
  EXPECT_EQ(r.caught, jobs::ErrorClass::None);
  EXPECT_TRUE(r.outcome.ok);
  EXPECT_EQ(r.outcome.out.value, 42.5);
  EXPECT_EQ(r.outcome.out.detail, "fake-kernel");
}

TEST(Sandbox, RealKernelMatchesInProcessExecutionBitForBit) {
  jobs::KernelRequest rq;
  rq.kind = jobs::JobKind::MonteCarlo;
  rq.design = "adder:4";
  rq.seed = 1234;
  rq.epsilon = 0.1;
  rq.max_pairs = 200;
  exec::Budget budget;
  const jobs::AttemptOutcome local = jobs::run_kernel(rq, budget);
  ASSERT_TRUE(local.ok);

  const RunResult r = sandbox::run_isolated(rq, budget, {});
  ASSERT_TRUE(r.delivered) << r.crash.detail;
  ASSERT_TRUE(r.outcome.ok);
  EXPECT_EQ(r.outcome.out.value, local.out.value)
      << "isolation must not change the estimate by a single bit";
  EXPECT_EQ(r.outcome.out.detail, local.out.detail);
}

TEST(Sandbox, ChildCaughtExceptionsComeBackTyped) {
  exec::Budget budget;
  const sandbox::KernelFn invalid = [](const jobs::KernelRequest&,
                                       const exec::Budget&) {
    throw std::invalid_argument("bad design: nope");
    return jobs::AttemptOutcome{};
  };
  RunResult r = sandbox::run_isolated(fake_request(), budget, {}, invalid);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.caught, jobs::ErrorClass::InvalidInput);
  EXPECT_EQ(r.caught_detail, "bad design: nope");

  const sandbox::KernelFn internal = [](const jobs::KernelRequest&,
                                        const exec::Budget&) {
    throw std::runtime_error("kernel bug");
    return jobs::AttemptOutcome{};
  };
  r = sandbox::run_isolated(fake_request(), budget, {}, internal);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.caught, jobs::ErrorClass::Internal);
  EXPECT_EQ(r.caught_detail, "kernel bug");
}

TEST(Sandbox, CheckpointSurvivesTheCrossingBothWays) {
  // A budget-stopped kernel's resumable checkpoint must transport back to
  // the parent intact — the property hlp_run --isolate --resume rides on.
  exec::Budget budget;
  const sandbox::KernelFn stopped = [](const jobs::KernelRequest&,
                                       const exec::Budget&) {
    jobs::AttemptOutcome ao;
    ao.ok = false;
    ao.stop = exec::StopReason::StepQuota;
    ao.out.has_checkpoint = true;
    ao.out.checkpoint.count = 999;
    ao.out.checkpoint.mean = 1.5;
    ao.out.checkpoint.m2 = 0.25;
    return ao;
  };
  const RunResult r =
      sandbox::run_isolated(fake_request(), budget, {}, stopped);
  ASSERT_TRUE(r.delivered);
  EXPECT_FALSE(r.outcome.ok);
  EXPECT_EQ(r.outcome.stop, exec::StopReason::StepQuota);
  ASSERT_TRUE(r.outcome.out.has_checkpoint);
  EXPECT_EQ(r.outcome.out.checkpoint.count, 999u);
  EXPECT_EQ(r.outcome.out.checkpoint.mean, 1.5);
  EXPECT_EQ(r.outcome.out.checkpoint.m2, 0.25);
}

// --- run_isolated: crash paths ----------------------------------------------

TEST(Sandbox, InjectedSegvIsATypedSignalCrashAndOneShot) {
  fi::disarm_serve_faults();
  fi::arm_serve_fault(fi::ServeFault::ChildSegv, 0);
  exec::Budget budget;
  const RunResult r =
      sandbox::run_isolated(fake_request(), budget, {}, value_kernel(1.0));
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.crash.kind, CrashKind::Signal) << r.crash.detail;
  EXPECT_EQ(r.crash.signal, SIGSEGV);
  EXPECT_EQ(sandbox::error_class_for(r.crash), jobs::ErrorClass::Internal);

  // The fault is a one-shot claimed by the parent before fork: the very
  // next attempt is clean.
  const RunResult again =
      sandbox::run_isolated(fake_request(), budget, {}, value_kernel(1.0));
  EXPECT_TRUE(again.delivered) << again.crash.detail;
  fi::disarm_serve_faults();
}

TEST(Sandbox, InjectedOomKillIsTypedAndRetryable) {
  fi::disarm_serve_faults();
  fi::arm_serve_fault(fi::ServeFault::ChildOom, 0);
  exec::Budget budget;
  const RunResult r =
      sandbox::run_isolated(fake_request(), budget, {}, value_kernel(1.0));
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.crash.kind, CrashKind::OomKill) << r.crash.detail;
  EXPECT_EQ(sandbox::error_class_for(r.crash),
            jobs::ErrorClass::BudgetExhausted)
      << "an OOM kill must be retryable-with-downgrade";
  fi::disarm_serve_faults();
}

TEST(Sandbox, WedgedChildIsKilledAtTheWallDeadline) {
  fi::disarm_serve_faults();
  fi::arm_serve_fault(fi::ServeFault::ChildWedge, 0);
  Limits lim;
  lim.wall_deadline_seconds = 0.3;
  exec::Budget budget;
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r =
      sandbox::run_isolated(fake_request(), budget, lim, value_kernel(1.0));
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.crash.kind, CrashKind::WallTimeout) << r.crash.detail;
  EXPECT_EQ(sandbox::error_class_for(r.crash),
            jobs::ErrorClass::BudgetExhausted);
  EXPECT_GE(waited, 0.29) << "must actually wait out the wall deadline";
  EXPECT_LT(waited, 10.0) << "a wedged child must not wedge the parent";
  fi::disarm_serve_faults();
}

TEST(Sandbox, CancellationKillsTheChildPromptly) {
  const sandbox::KernelFn sleepy = [](const jobs::KernelRequest&,
                                      const exec::Budget&) {
    std::this_thread::sleep_for(std::chrono::seconds(30));
    return jobs::AttemptOutcome{};
  };
  exec::CancelToken cancel;
  cancel.request_cancel();  // pre-tripped: the wait must notice immediately
  exec::Budget budget;
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r =
      sandbox::run_isolated(fake_request(), budget, {}, sleepy, &cancel);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.crash.kind, CrashKind::Cancelled) << r.crash.detail;
  EXPECT_EQ(sandbox::error_class_for(r.crash), jobs::ErrorClass::Cancelled);
  EXPECT_LT(waited, 5.0);
}

TEST(Sandbox, ChildExitWithoutAFrameIsExitNonzero) {
  const sandbox::KernelFn exiting = [](const jobs::KernelRequest&,
                                       const exec::Budget&) {
    _exit(7);  // models a library calling exit() behind the kernel's back
    return jobs::AttemptOutcome{};
  };
  exec::Budget budget;
  const RunResult r =
      sandbox::run_isolated(fake_request(), budget, {}, exiting);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.crash.kind, CrashKind::ExitNonzero) << r.crash.detail;
  EXPECT_EQ(r.crash.exit_code, 7);
  EXPECT_EQ(sandbox::error_class_for(r.crash), jobs::ErrorClass::Internal);
}

TEST(Sandbox, RlimitAsTurnsAnAllocationStormIntoAllocFailure) {
#ifdef HLP_ASAN
  GTEST_SKIP() << "RLIMIT_AS is meaningless under ASan's shadow mappings";
#endif
  Limits lim;
  lim.rlimit_as_bytes = 256u << 20;
  lim.wall_deadline_seconds = 20.0;  // backstop only
  const sandbox::KernelFn storm = [](const jobs::KernelRequest&,
                                     const exec::Budget&) {
    // Allocate far past the cap, touching pages so the reservation is real.
    std::vector<std::vector<char>> hoard;
    for (;;) {
      hoard.emplace_back(16u << 20);
      for (std::size_t i = 0; i < hoard.back().size(); i += 4096)
        hoard.back()[i] = 1;
    }
    return jobs::AttemptOutcome{};
  };
  exec::Budget budget;
  const RunResult r = sandbox::run_isolated(fake_request(), budget, lim, storm);
  // A throwing allocation is caught in the child and delivered as a typed
  // AllocFailure outcome; a noexcept-context failure dies as a crash. Both
  // are contained — the parent must never be the process that dies.
  if (r.delivered) {
    EXPECT_FALSE(r.outcome.ok);
    EXPECT_EQ(r.outcome.stop, exec::StopReason::AllocFailure);
  } else {
    EXPECT_NE(r.crash.kind, CrashKind::None);
    EXPECT_NE(r.crash.kind, CrashKind::WallTimeout) << r.crash.detail;
  }
}

TEST(Sandbox, RlimitCpuKillsABusyLoopAsCpuLimit) {
#ifdef HLP_ASAN
  GTEST_SKIP() << "rlimit timing under ASan instrumentation is unreliable";
#endif
  Limits lim;
  lim.rlimit_cpu_seconds = 1.0;
  lim.wall_deadline_seconds = 30.0;  // backstop: the test must not hang
  const sandbox::KernelFn burner = [](const jobs::KernelRequest&,
                                      const exec::Budget&) {
    for (volatile std::uint64_t spin = 0;;) spin = spin + 1;
    return jobs::AttemptOutcome{};
  };
  exec::Budget budget;
  const RunResult r =
      sandbox::run_isolated(fake_request(), budget, lim, burner);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.crash.kind, CrashKind::CpuLimit) << r.crash.detail;
  EXPECT_EQ(sandbox::error_class_for(r.crash),
            jobs::ErrorClass::BudgetExhausted);
}

TEST(Sandbox, ErrorClassTableMatchesTheDesign) {
  const struct {
    CrashKind kind;
    jobs::ErrorClass want;
  } table[] = {
      {CrashKind::None, jobs::ErrorClass::None},
      {CrashKind::Signal, jobs::ErrorClass::Internal},
      {CrashKind::OomKill, jobs::ErrorClass::BudgetExhausted},
      {CrashKind::CpuLimit, jobs::ErrorClass::BudgetExhausted},
      {CrashKind::WallTimeout, jobs::ErrorClass::BudgetExhausted},
      {CrashKind::Cancelled, jobs::ErrorClass::Cancelled},
      {CrashKind::ExitNonzero, jobs::ErrorClass::Internal},
      {CrashKind::PipeError, jobs::ErrorClass::Internal},
  };
  for (const auto& row : table) {
    CrashReport cr;
    cr.kind = row.kind;
    EXPECT_EQ(sandbox::error_class_for(cr), row.want)
        << sandbox::to_string(row.kind);
  }
}

// --- run_kernel_isolated: jobs-layer semantics ------------------------------

TEST(Sandbox, RunKernelIsolatedMapsResourceKillsToRetryableOutcomes) {
  jobs::KernelRequest rq;
  rq.kind = jobs::JobKind::MonteCarlo;
  rq.design = "adder:4";
  rq.epsilon = 0.1;
  rq.max_pairs = 100;

  // A wedge dies at the wall deadline derived from the cooperative budget
  // and surfaces as ok=false/Deadline — the retry-with-downgrade shape.
  fi::disarm_serve_faults();
  fi::arm_serve_fault(fi::ServeFault::ChildWedge, 0);
  exec::Budget budget;
  budget.deadline_seconds = 0.2;
  jobs::AttemptOutcome out = sandbox::run_kernel_isolated(rq, budget, {});
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.stop, exec::StopReason::Deadline) << out.detail;

  // An OOM kill surfaces as AllocFailure (same downgrade path as a thrown
  // bad_alloc, even though the kill was uncatchable in the child).
  fi::arm_serve_fault(fi::ServeFault::ChildOom, 0);
  out = sandbox::run_kernel_isolated(rq, budget, {});
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.stop, exec::StopReason::AllocFailure) << out.detail;

  // A segfault is an Internal crash: rethrown for the runner's classifier.
  fi::arm_serve_fault(fi::ServeFault::ChildSegv, 0);
  EXPECT_THROW(sandbox::run_kernel_isolated(rq, budget, {}),
               std::runtime_error);
  fi::disarm_serve_faults();

  // Clean run: delivered outcome passes through unchanged.
  out = sandbox::run_kernel_isolated(rq, budget, {});
  EXPECT_TRUE(out.ok) << out.detail;
}

TEST(Sandbox, RunKernelIsolatedRethrowsChildInvalidInput) {
  jobs::KernelRequest rq;
  rq.kind = jobs::JobKind::MonteCarlo;
  rq.design = "nosuch:99";
  exec::Budget budget;
  EXPECT_THROW(sandbox::run_kernel_isolated(rq, budget, {}),
               std::invalid_argument);
}

// --- Quarantine circuit breaker ---------------------------------------------

Quarantine::Clock::time_point at(int seconds) {
  return Quarantine::Clock::time_point{} + std::chrono::seconds(seconds);
}

TEST(Quarantine, TripsAfterExactlyKHardFailures) {
  Quarantine::Options opts;
  opts.threshold = 3;
  opts.base_expiry = std::chrono::seconds(30);
  Quarantine q(opts);
  const std::uint64_t fp = 0xfeed;

  EXPECT_EQ(q.admit(fp, at(0)), Quarantine::Decision::Admit);
  EXPECT_FALSE(q.record_failure(fp, at(1)));
  EXPECT_EQ(q.admit(fp, at(1)), Quarantine::Decision::Admit)
      << "one failure short of K must still admit";
  EXPECT_FALSE(q.record_failure(fp, at(2)));
  EXPECT_EQ(q.admit(fp, at(2)), Quarantine::Decision::Admit);
  EXPECT_TRUE(q.record_failure(fp, at(3))) << "the K-th failure trips";
  EXPECT_EQ(q.admit(fp, at(3)), Quarantine::Decision::Quarantined);
  EXPECT_TRUE(q.is_open(fp, at(3)));
  // 30s expiry not yet reached at t=32; past it the breaker half-opens.
  EXPECT_EQ(q.admit(fp, at(32)), Quarantine::Decision::Quarantined);
  EXPECT_EQ(q.admit(fp, at(34)), Quarantine::Decision::Probe);

  const Quarantine::Counters c = q.counters();
  EXPECT_EQ(c.trips, 1u);
  EXPECT_EQ(c.served_open, 2u);  // the t=3 and t=32 quarantined admits
  EXPECT_EQ(c.open_now, 1u);
}

TEST(Quarantine, DeliveredOutcomeResetsTheFailureCount) {
  Quarantine q({.threshold = 2});
  const std::uint64_t fp = 1;
  q.record_failure(fp, at(0));
  q.record_success(fp);  // delivered outcome: streak broken
  EXPECT_FALSE(q.record_failure(fp, at(1)))
      << "the streak restarted; one failure must not trip a threshold of 2";
  EXPECT_TRUE(q.record_failure(fp, at(2)));
}

TEST(Quarantine, ExpiryAdmitsExactlyOneProbe) {
  Quarantine q({.threshold = 1, .base_expiry = std::chrono::seconds(10)});
  const std::uint64_t fp = 2;
  ASSERT_TRUE(q.record_failure(fp, at(0)));
  EXPECT_EQ(q.admit(fp, at(5)), Quarantine::Decision::Quarantined);

  // Past expiry: the first caller is the probe, every other concurrent
  // request keeps being served degraded until the probe resolves.
  EXPECT_EQ(q.admit(fp, at(11)), Quarantine::Decision::Probe);
  EXPECT_EQ(q.admit(fp, at(11)), Quarantine::Decision::Quarantined);
  EXPECT_EQ(q.admit(fp, at(12)), Quarantine::Decision::Quarantined);
  EXPECT_EQ(q.counters().probes, 1u);
}

TEST(Quarantine, ProbeSuccessRehabilitates) {
  Quarantine q({.threshold = 1, .base_expiry = std::chrono::seconds(10)});
  const std::uint64_t fp = 3;
  q.record_failure(fp, at(0));
  ASSERT_EQ(q.admit(fp, at(11)), Quarantine::Decision::Probe);
  q.record_success(fp);
  EXPECT_EQ(q.admit(fp, at(11)), Quarantine::Decision::Admit)
      << "a rehabilitated fingerprint executes normally again";
  EXPECT_FALSE(q.is_open(fp, at(11)));
  const Quarantine::Counters c = q.counters();
  EXPECT_EQ(c.rehabilitated, 1u);
  EXPECT_EQ(c.open_now, 0u);
  // Fresh start: rehabilitation erased the entry, so the failure streak
  // begins at zero, not at K-1.
  EXPECT_TRUE(q.record_failure(fp, at(12)));  // threshold 1 trips again
  EXPECT_EQ(q.counters().trips, 2u);
}

TEST(Quarantine, ProbeFailureReopensWithDoubledExpiry) {
  Quarantine q({.threshold = 1, .base_expiry = std::chrono::seconds(10)});
  const std::uint64_t fp = 4;
  q.record_failure(fp, at(0));  // open until 10
  ASSERT_EQ(q.admit(fp, at(11)), Quarantine::Decision::Probe);
  EXPECT_TRUE(q.record_failure(fp, at(11)))
      << "a failed probe re-opens the breaker";
  EXPECT_EQ(q.counters().reopens, 1u);
  // Doubled expiry: open from t=11 for 20s.
  EXPECT_EQ(q.admit(fp, at(30)), Quarantine::Decision::Quarantined);
  EXPECT_EQ(q.admit(fp, at(32)), Quarantine::Decision::Probe);
  // A second failed probe doubles again: 40s from t=32.
  EXPECT_TRUE(q.record_failure(fp, at(32)));
  EXPECT_EQ(q.admit(fp, at(70)), Quarantine::Decision::Quarantined);
  EXPECT_EQ(q.admit(fp, at(73)), Quarantine::Decision::Probe);
}

TEST(Quarantine, ExpiryIsCappedAtMax) {
  Quarantine q({.threshold = 1,
                .base_expiry = std::chrono::seconds(10),
                .max_expiry = std::chrono::seconds(35)});
  const std::uint64_t fp = 5;
  int t = 0;
  q.record_failure(fp, at(t));
  // Drive many reopen cycles; expiry must saturate at max_expiry instead
  // of overflowing or growing without bound.
  for (int i = 0; i < 40; ++i) {
    t += 100;  // always past any capped expiry
    ASSERT_EQ(q.admit(fp, at(t)), Quarantine::Decision::Probe) << i;
    q.record_failure(fp, at(t));
  }
  EXPECT_EQ(q.admit(fp, at(t + 34)), Quarantine::Decision::Quarantined);
  EXPECT_EQ(q.admit(fp, at(t + 36)), Quarantine::Decision::Probe)
      << "expiry must be capped at max_expiry";
}

TEST(Quarantine, StragglersWhileOpenDoNotCorruptTheState) {
  Quarantine q({.threshold = 2, .base_expiry = std::chrono::seconds(10)});
  const std::uint64_t fp = 6;
  q.record_failure(fp, at(0));
  ASSERT_TRUE(q.record_failure(fp, at(1)));  // open until 11
  // In-flight attempts admitted before the trip resolve late: neither a
  // straggler failure nor a straggler success may move the state machine.
  EXPECT_FALSE(q.record_failure(fp, at(2)));
  q.record_success(fp);
  EXPECT_TRUE(q.is_open(fp, at(5)));
  EXPECT_EQ(q.counters().trips, 1u);
  EXPECT_EQ(q.counters().rehabilitated, 0u);
}

TEST(Quarantine, FingerprintsAreIndependent) {
  Quarantine q({.threshold = 1});
  q.record_failure(10, at(0));
  EXPECT_EQ(q.admit(10, at(1)), Quarantine::Decision::Quarantined);
  EXPECT_EQ(q.admit(11, at(1)), Quarantine::Decision::Admit)
      << "a poison design must not quarantine its neighbors";
  EXPECT_EQ(q.counters().open_now, 1u);
}

}  // namespace
