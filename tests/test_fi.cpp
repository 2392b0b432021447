#include <gtest/gtest.h>

#include <new>

#include "bdd/netlist_bdd.hpp"
#include "core/sampling_power.hpp"
#include "exec/fi.hpp"
#include "fsm/markov.hpp"
#include "netlist/generators.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace hlp;
using exec::StopReason;

/// Every test leaves the thread-local FI state disarmed even on failure.
struct FiGuard {
  FiGuard() { fi::disarm(); }
  ~FiGuard() { fi::disarm(); }
};

// --- Harness mechanics -------------------------------------------------------

TEST(FaultInjection, AllocCheckpointFiresAtExactIndex) {
  FiGuard guard;
  fi::alloc_checkpoint();
  fi::alloc_checkpoint();
  EXPECT_EQ(fi::alloc_checkpoints(), 2u);  // counted even while disarmed

  fi::arm_alloc_failure(1);
  EXPECT_NO_THROW(fi::alloc_checkpoint());               // index 0
  EXPECT_THROW(fi::alloc_checkpoint(), std::bad_alloc);  // index 1: fires
  EXPECT_NO_THROW(fi::alloc_checkpoint());               // single-shot
}

TEST(FaultInjection, CancelCheckpointIsStickyFromArmedStep) {
  FiGuard guard;
  fi::arm_cancel_at_step(2);
  exec::CancelToken tok;
  fi::step_checkpoint(tok);
  fi::step_checkpoint(tok);
  EXPECT_FALSE(tok.cancel_requested());
  fi::step_checkpoint(tok);  // step 2: fires
  EXPECT_TRUE(tok.cancel_requested());
  exec::CancelToken late;  // later kernels keep getting cancelled
  fi::step_checkpoint(late);
  EXPECT_TRUE(late.cancel_requested());
}

// --- BDD kernel: allocation-failure sweep ------------------------------------

TEST(FaultInjection, BddManagerSurvivesAllocFailureSweep) {
  FiGuard guard;
  auto mod = netlist::multiplier_module(3);  // 6 inputs: full truth check
  const netlist::GateId out0 = mod.netlist.outputs()[0];

  // Discovery run: count the injection points one construction passes.
  {
    bdd::Manager ref;
    (void)bdd::build_bdds(ref, mod.netlist);
  }
  const std::uint64_t n = fi::alloc_checkpoints();
  ASSERT_GT(n, 0u);

  sim::Simulator s(mod.netlist);
  auto truth_check = [&](bdd::Manager& m, bdd::NodeRef f) {
    for (std::uint64_t a = 0; a < 64; ++a) {
      s.set_all_inputs(a);
      s.eval();
      ASSERT_EQ(m.eval(f, a), s.value(out0)) << "assignment " << a;
    }
  };

  std::uint64_t injected = 0;
  for (std::uint64_t i = 0; i < n; i += 7) {
    bdd::Manager m;
    fi::arm_alloc_failure(i);
    bool threw = false;
    try {
      (void)bdd::build_bdds(m, mod.netlist);
    } catch (const std::bad_alloc&) {
      threw = true;
      ++injected;
    }
    fi::disarm();
    if (!threw) continue;
    // Strong guarantee: the manager that just lost an allocation mid-ITE
    // must still be fully usable — rebuild in it and truth-check.
    auto bdds = bdd::build_bdds(m, mod.netlist);
    truth_check(m, bdds.fn[out0]);
  }
  EXPECT_GT(injected, 0u);
}

// --- Markov kernel: cancellation sweep ---------------------------------------

TEST(FaultInjection, MarkovCancellationSweepKeepsDistributionValid) {
  FiGuard guard;
  auto stg = fsm::random_fsm(32, 2, 2, 5);

  auto full = fsm::analyze_markov_budgeted(stg, exec::Budget{});
  ASSERT_TRUE(full->converged);
  const std::uint64_t n = fi::step_checkpoints();
  ASSERT_GT(n, 0u);

  const std::uint64_t stride = n > 40 ? n / 40 : 1;
  for (std::uint64_t i = 0; i < n; i += stride) {
    fi::arm_cancel_at_step(i);
    exec::Budget b;  // fresh token per injection
    auto out = fsm::analyze_markov_budgeted(stg, b);
    fi::disarm();
    EXPECT_EQ(out.diag.stop, StopReason::Cancelled) << "inject at " << i;
    EXPECT_FALSE(out->converged);
    EXPECT_LE(out->iterations, static_cast<int>(i));
    // The abandoned iterate is still a probability distribution.
    ASSERT_EQ(out->state_prob.size(), stg.num_states());
    double sum = 0.0;
    for (double p : out->state_prob) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "inject at " << i;
  }

  // No residue: a clean rerun converges to the same steady state.
  auto again = fsm::analyze_markov_budgeted(stg, exec::Budget{});
  ASSERT_TRUE(again->converged);
  for (std::size_t s = 0; s < stg.num_states(); ++s)
    EXPECT_DOUBLE_EQ(again->state_prob[s], full->state_prob[s]);
}

TEST(FaultInjection, MarkovAllocFailureSweepLosesNoExceptions) {
  FiGuard guard;
  auto stg = fsm::random_fsm(16, 1, 1, 7);
  (void)fsm::analyze_markov(stg);
  const std::uint64_t n = fi::alloc_checkpoints();
  ASSERT_GT(n, 0u);
  for (std::uint64_t i = 0; i < n; ++i) {
    fi::arm_alloc_failure(i);
    // Every armed index must surface as std::bad_alloc — never swallowed,
    // never converted (a catch(...) in the kernel would break this).
    EXPECT_THROW((void)fsm::analyze_markov(stg), std::bad_alloc)
        << "inject at " << i;
    fi::disarm();
  }
  auto clean = fsm::analyze_markov(stg);
  EXPECT_TRUE(clean.converged);
}

// --- Monte Carlo kernel: both fault kinds ------------------------------------

TEST(FaultInjection, MonteCarloAllocFailureSweepIsClean) {
  FiGuard guard;
  auto mod = netlist::adder_module(6);
  auto run = [&] {
    stats::Rng rng(3);
    return core::monte_carlo_power(
        mod, [&] { return rng.uniform_bits(12); }, 0.05, 0.95, 30, 500);
  };
  (void)run();
  const std::uint64_t n = fi::alloc_checkpoints();
  ASSERT_GT(n, 0u);
  for (std::uint64_t i = 0; i < n; ++i) {
    fi::arm_alloc_failure(i);
    EXPECT_THROW((void)run(), std::bad_alloc) << "inject at " << i;
    fi::disarm();
  }
  auto clean = run();
  EXPECT_GT(clean.pairs, 0u);
}

TEST(FaultInjection, MonteCarloCancellationCountsOnlyPaidPairs) {
  FiGuard guard;
  auto mod = netlist::adder_module(6);
  for (std::uint64_t i : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{63}, std::uint64_t{64},
                          std::uint64_t{100}}) {
    // The meter is charged one block of pairs per probe, so a cancellation
    // inside a block rejects that whole (not yet drawn) block — only
    // fully-paid blocks survive, and the count is the largest block
    // boundary at or below i.
    fi::arm_cancel_at_step(i);
    stats::Rng rng(3);
    exec::Budget b;
    sim::SimOptions opts;
    opts.block_words = 1;  // 64-pair blocks
    auto out = core::monte_carlo_power_budgeted(
        mod, [&] { return rng.uniform_bits(12); }, b, 1e-6, 0.95, 30, 400,
        {}, opts);
    fi::disarm();
    EXPECT_EQ(out.diag.stop, StopReason::Cancelled) << "inject at " << i;
    EXPECT_EQ(out->stop_reason,
              core::MonteCarloResult::StopReason::BudgetExhausted);
    EXPECT_EQ(out->pairs, i / 64 * 64) << "inject at " << i;
    EXPECT_EQ(out->checkpoint.count, i / 64 * 64);
  }
}

}  // namespace
