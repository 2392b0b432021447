#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/macromodel.hpp"
#include "core/sampling_power.hpp"
#include "jobs/kernels.hpp"
#include "netlist/generators.hpp"
#include "scalar_reference.hpp"
#include "sim/block_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/streams.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hlp;
using netlist::GateKind;
using netlist::Netlist;

/// Every test leaves the programmatic dispatch cap wide open even on
/// failure (Avx512 = "no cap"; the hardware/env caps still apply).
struct DispatchGuard {
  ~DispatchGuard() { sim::set_dispatch_cap(sim::SimDispatch::Avx512); }
};

// --- width resolution and dispatch plumbing -------------------------------

TEST(BlockDispatch, ResolveBlockWordsClampsAndDefaults) {
  EXPECT_EQ(sim::resolve_block_words(0), sim::default_block_words());
  EXPECT_EQ(sim::resolve_block_words(-5), sim::default_block_words());
  EXPECT_EQ(sim::resolve_block_words(5), 5);
  EXPECT_EQ(sim::resolve_block_words(64), 64);
  EXPECT_EQ(sim::resolve_block_words(1000), 64);
  EXPECT_GE(sim::default_block_words(), 1);
  EXPECT_LE(sim::default_block_words(), 64);
}

TEST(BlockDispatch, CapIsMonotoneAndNamed) {
  DispatchGuard guard;
  EXPECT_STREQ(sim::to_string(sim::SimDispatch::Portable), "portable");
  EXPECT_STREQ(sim::to_string(sim::SimDispatch::Avx2), "avx2");
  EXPECT_STREQ(sim::to_string(sim::SimDispatch::Avx512), "avx512");
  sim::set_dispatch_cap(sim::SimDispatch::Portable);
  EXPECT_EQ(sim::active_dispatch(), sim::SimDispatch::Portable);
  sim::set_dispatch_cap(sim::SimDispatch::Avx512);
  // Whatever the host supports, the cap no longer constrains it.
  const sim::SimDispatch best = sim::active_dispatch();
  sim::set_dispatch_cap(best);
  EXPECT_EQ(sim::active_dispatch(), best);
}

TEST(BlockDispatch, KernelSelectionHonoursWidthDivisibility) {
  DispatchGuard guard;
  auto mod = netlist::adder_module(8);
  // W=1 can never use a 256/512-bit kernel; W=8 uses the best available.
  sim::BlockSimulator narrow(mod.netlist, 1);
  EXPECT_EQ(narrow.dispatch(), sim::SimDispatch::Portable);
  sim::set_dispatch_cap(sim::SimDispatch::Portable);
  sim::BlockSimulator capped(mod.netlist, 8);
  EXPECT_EQ(capped.dispatch(), sim::SimDispatch::Portable);
}

// --- forced-dispatch identity: every kernel computes the same bits --------

TEST(BlockDispatch, PortableAndBestKernelsAreBitIdentical) {
  DispatchGuard guard;
  auto mod = netlist::random_logic_module(16, 120, 8, 3);
  stats::Rng rng(17);
  auto in = sim::random_stream(mod.total_input_bits(), 300, 0.5, rng);

  sim::SimOptions packed;
  packed.block_words = 8;  // divisible by 4 and 8: widest kernel eligible

  auto best_out = sim::simulate_outputs(mod.netlist, in, packed);
  auto best_act = sim::simulate_activities(mod.netlist, in, nullptr, packed);

  sim::set_dispatch_cap(sim::SimDispatch::Portable);
  auto port_out = sim::simulate_outputs(mod.netlist, in, packed);
  auto port_act = sim::simulate_activities(mod.netlist, in, nullptr, packed);

  EXPECT_EQ(best_out.words, port_out.words);
  ASSERT_EQ(best_act.size(), port_act.size());
  for (std::size_t g = 0; g < best_act.size(); ++g)
    EXPECT_EQ(best_act[g], port_act[g]) << "gate " << g;
}

// --- compiled gate ops: every kind and arity against eval_gate -----------

TEST(BlockOps, EveryKindAndArityMatchesEvalGate) {
  DispatchGuard guard;
  constexpr int kInputs = 6;  // 64 patterns: one lane word covers them all
  Netlist nl;
  std::vector<netlist::GateId> in;
  for (int i = 0; i < kInputs; ++i) in.push_back(nl.add_input());
  const auto add = [&](GateKind k, std::vector<netlist::GateId> f) {
    return nl.add_gate(k, f);
  };
  for (GateKind k : {GateKind::And, GateKind::Nand, GateKind::Or,
                     GateKind::Nor, GateKind::Xor, GateKind::Xnor}) {
    add(k, {});
    add(k, {in[0]});
    add(k, {in[1], in[2]});
    add(k, {in[0], in[3], in[5]});
    add(k, {in[4], in[1], in[4], in[2], in[0]});  // repeated fanin
  }
  for (GateKind k : {GateKind::Buf, GateKind::Not}) {
    add(k, {in[3]});
    add(k, {in[1], in[2], in[5]});  // only fanin 0 counts
  }
  add(GateKind::Mux, {in[0], in[1], in[2]});
  add(GateKind::Mux, {in[2], in[2], in[3]});  // sel == d0
  add(GateKind::Mux, {in[4], in[5], in[5]});  // d0 == d1
  add(GateKind::Mux, {in[1], in[0], in[1]});  // sel == d1
  const auto chain = add(GateKind::Nor, {in[0], in[2], in[3], in[5]});
  const auto sel = add(GateKind::Mux, {chain, in[1], in[4]});
  add(GateKind::Xnor, {sel, chain, in[3]});

  // Reference: each gate's value under each of the 64 patterns.
  std::vector<std::vector<std::uint8_t>> ref(64);
  for (std::uint64_t pat = 0; pat < 64; ++pat) {
    auto& v = ref[pat];
    v.assign(nl.gate_count(), 0);
    for (int i = 0; i < kInputs; ++i) v[in[i]] = (pat >> i) & 1;
    for (netlist::GateId g : nl.topo_order()) {
      if (!netlist::is_logic(nl.gate(g).kind)) continue;
      std::vector<std::uint8_t> fv;
      for (netlist::GateId f : nl.gate(g).fanins) fv.push_back(v[f]);
      v[g] = netlist::eval_gate(nl.gate(g).kind, fv) ? 1 : 0;
    }
  }

  for (sim::SimDispatch cap : {sim::SimDispatch::Portable,
                               sim::SimDispatch::Avx2,
                               sim::SimDispatch::Avx512}) {
    sim::set_dispatch_cap(cap);
    for (int W : {1, 3, 4, 8, 16, 64}) {
      sim::BlockSimulator bs(nl, W);
      // Lane k of word w carries pattern (k + 7w) mod 64.
      const auto pattern = [](int w, int k) {
        return static_cast<std::uint64_t>((k + 7 * w) % 64);
      };
      for (int i = 0; i < kInputs; ++i) {
        std::vector<std::uint64_t> words(static_cast<std::size_t>(W), 0);
        for (int w = 0; w < W; ++w)
          for (int k = 0; k < 64; ++k)
            words[w] |= ((pattern(w, k) >> i) & 1) << k;
        bs.set_input_lanes(in[i], words);
      }
      bs.eval();
      for (netlist::GateId g = kInputs; g < nl.gate_count(); ++g) {
        const auto lw = bs.lane_words(g);
        for (int w = 0; w < W; ++w)
          for (int k = 0; k < 64; ++k)
            ASSERT_EQ((lw[w] >> k) & 1, ref[pattern(w, k)][g])
                << "cap " << sim::to_string(cap) << " W=" << W << " gate "
                << g << " word " << w << " lane " << k;
      }
    }
  }
}

// --- block width differential: scalar vs packed at W in {1,2,4,8} ---------

void expect_width_equivalence(const Netlist& nl, int n_in, std::size_t cycles,
                              std::uint64_t seed) {
  stats::Rng rng(seed);
  auto in = sim::random_stream(n_in, cycles, 0.5, rng);

  ASSERT_TRUE(sim::temporal_packable(nl));
  stats::VectorStream out_s;
  auto act_s = scalar_ref::activities(nl, in, &out_s);

  for (int w : {1, 2, 4, 8}) {
    sim::SimOptions packed;
    packed.block_words = w;
    stats::VectorStream out_p;
    auto act_p = sim::simulate_activities(nl, in, &out_p, packed);
    ASSERT_EQ(act_s.size(), act_p.size());
    for (std::size_t g = 0; g < act_s.size(); ++g)
      EXPECT_EQ(act_s[g], act_p[g]) << "W=" << w << " gate " << g;
    EXPECT_EQ(out_s.words, out_p.words) << "W=" << w;
    auto po = sim::simulate_outputs(nl, in, packed);
    EXPECT_EQ(out_s.words, po.words) << "W=" << w;
  }
}

TEST(BlockDifferential, RandomDagsAcrossWidths) {
  for (std::uint64_t seed : {1u, 42u}) {
    auto mod = netlist::random_logic_module(16, 120, 8, seed);
    // 700 cycles spans a full 8-word block plus a partial second one.
    expect_width_equivalence(mod.netlist, mod.total_input_bits(), 700,
                             seed + 100);
  }
}

TEST(BlockDifferential, ArithmeticAcrossWidths) {
  auto add = netlist::adder_module(12);
  expect_width_equivalence(add.netlist, add.total_input_bits(), 500, 3);
  auto mul = netlist::multiplier_module(5);
  expect_width_equivalence(mul.netlist, mul.total_input_bits(), 300, 5);
}

TEST(BlockDifferential, PartialBlockBoundaries) {
  auto mod = netlist::alu_module(6);
  // Lengths straddling sub-word and block boundaries of a W=2..8 block.
  for (std::size_t cycles :
       {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{128}, std::size_t{129}, std::size_t{512},
        std::size_t{513}}) {
    expect_width_equivalence(mod.netlist, mod.total_input_bits(), cycles, 7);
  }
}

TEST(BlockDifferential, CharacterizeAcrossWidths) {
  auto mod = netlist::multiplier_module(4);
  stats::Rng rng(31);
  auto in = sim::random_stream(mod.total_input_bits(), 520, 0.5, rng);
  auto cs = scalar_ref::characterize(mod, in);
  for (int w : {1, 2, 3, 4, 8, 16, 64}) {
    sim::SimOptions packed;
    packed.block_words = w;
    auto cp = core::characterize(mod, in, {}, packed);
    ASSERT_EQ(cs.transitions(), cp.transitions()) << "W=" << w;
    EXPECT_EQ(cs.total_cap, cp.total_cap);
    for (std::size_t t = 0; t < cs.transitions(); ++t) {
      EXPECT_EQ(cs.energy[t], cp.energy[t]) << "W=" << w << " t=" << t;
      EXPECT_EQ(cs.cur_word[t], cp.cur_word[t]) << "W=" << w << " t=" << t;
      EXPECT_EQ(cs.prev_word[t], cp.prev_word[t]) << "W=" << w << " t=" << t;
      EXPECT_EQ(cs.pin_toggle[t], cp.pin_toggle[t]) << "W=" << w;
    }
  }
}

// --- replica lanes on the block simulator (sequential, W > 1) -------------

// Runs 64*W independent input streams of a serial-in parity accumulator
// (q' = q xor in; y = q or in) as replica lanes of one BlockSimulator and
// checks outputs and summed per-gate toggles against one scalar run per lane.
void expect_replica_lanes_match_scalar_runs(const int W) {
  Netlist nl;
  auto in = nl.add_input("in");
  auto q = nl.add_dff();
  auto x = nl.add_binary(GateKind::Xor, q, in);
  nl.set_dff_input(q, x);
  auto y = nl.add_binary(GateKind::Or, q, in);
  nl.mark_output(y);

  const std::size_t cycles = 40;
  stats::Rng rng(77);
  std::vector<std::vector<std::uint64_t>> lane_words(cycles);
  for (auto& w : lane_words) {
    w.resize(W);
    for (auto& word : w) word = rng.uniform_bits(64);
  }

  // Replica lanes: per-gate toggles summed over every lane.
  sim::BlockSimulator bs(nl, W);
  std::vector<std::vector<std::uint64_t>> block_y(cycles);
  std::vector<std::uint64_t> prev(nl.gate_count() * W, 0);
  std::uint64_t block_toggles = 0;
  for (std::size_t c = 0; c < cycles; ++c) {
    bs.set_input_lanes(in, lane_words[c]);
    bs.eval();
    for (netlist::GateId g = 0; g < nl.gate_count(); ++g)
      for (int w = 0; w < W; ++w) {
        const std::uint64_t cur = bs.lane_words(g)[w];
        std::uint64_t& p = prev[g * W + w];
        if (c > 0)
          block_toggles += static_cast<std::uint64_t>(std::popcount(cur ^ p));
        p = cur;
      }
    auto lw = bs.lane_words(y);
    block_y[c].assign(lw.begin(), lw.end());
    bs.tick();
  }

  // Reference: one scalar run per lane.
  std::uint64_t scalar_toggles = 0;
  for (int lane = 0; lane < 64 * W; ++lane) {
    const int w = lane / 64, k = lane % 64;
    sim::Simulator s(nl);
    sim::ActivityCollector col(nl);
    for (std::size_t c = 0; c < cycles; ++c) {
      s.set_input(in, (lane_words[c][w] >> k) & 1u);
      s.eval();
      col.record(s);
      EXPECT_EQ(static_cast<std::uint64_t>(s.value(y)),
                (block_y[c][w] >> k) & 1u)
          << "W=" << W << " lane " << lane << " cycle " << c;
      s.tick();
    }
    for (std::uint64_t t : col.toggles()) scalar_toggles += t;
  }
  EXPECT_EQ(block_toggles, scalar_toggles) << "W=" << W;
}

// W=1: the single-word 64-lane engine.
TEST(PackedReplicaLanes, SequentialFsmMatches64ScalarRuns) {
  expect_replica_lanes_match_scalar_runs(1);
}

// W=2: the replica lanes span two lane words.
TEST(BlockReplicaLanes, SequentialFsmMatches128ScalarRuns) {
  expect_replica_lanes_match_scalar_runs(2);
}

// --- Second lane buffer ----------------------------------------------------

// A simulator that swaps lane buffers before every evaluation tracks one
// that never swaps: registers carry over, constants hold, and the previous
// buffer is what the other simulator held at the swap.
TEST(BlockSwapLanes, RegistersAndConstantsCarryOver) {
  Netlist nl;
  auto in = nl.add_input("in");
  auto one = nl.add_const(true);
  auto q = nl.add_dff(netlist::kNullGate, true);
  auto x = nl.add_binary(GateKind::Xor, q, in);
  nl.set_dff_input(q, x);
  auto y = nl.add_binary(GateKind::And, one, x);
  nl.mark_output(y);

  const int W = 2;
  sim::BlockSimulator ref(nl, W), sw(nl, W);
  EXPECT_TRUE(sw.previous_lanes().empty());
  stats::Rng rng(5);
  std::vector<std::uint64_t> words(W);
  for (int cycle = 0; cycle < 12; ++cycle) {
    if (cycle == 6) {
      ref.reset();
      sw.reset();
    }
    const std::vector<std::uint64_t> before(ref.lanes().begin(),
                                            ref.lanes().end());
    sw.swap_lanes();
    ASSERT_TRUE(std::equal(before.begin(), before.end(),
                           sw.previous_lanes().begin(),
                           sw.previous_lanes().end()))
        << "cycle " << cycle;
    for (auto& w : words) w = rng.uniform_bits(64);
    ref.set_input_lanes(in, words);
    sw.set_input_lanes(in, words);
    ref.eval();
    sw.eval();
    ASSERT_TRUE(std::equal(ref.lanes().begin(), ref.lanes().end(),
                           sw.lanes().begin(), sw.lanes().end()))
        << "cycle " << cycle;
    ref.tick();
    sw.tick();
  }
}

// --- Monte Carlo: widths bit-identical, quota trips on the same pair ------
// W=16 is the AVX-512 default; 3 and 64 take the portable toggle counter
// with an odd and the widest block.

TEST(BlockMonteCarlo, WidthsBitIdenticalToScalar) {
  auto mod = netlist::multiplier_module(4);
  const int n_in = mod.total_input_bits();
  auto rs = scalar_ref::plain_rule_monte_carlo(mod, 9, 0.05, 30, 4000);
  for (int w : {1, 2, 3, 4, 8, 16, 64}) {
    stats::Rng rng_p(9);
    sim::SimOptions packed;
    packed.block_words = w;
    auto rp = core::monte_carlo_power(
        mod, [&] { return rng_p.uniform_bits(n_in); }, 0.05, 0.95, 30, 4000,
        {}, packed);
    EXPECT_EQ(rs.mean_energy, rp.mean_energy) << "W=" << w;
    EXPECT_EQ(rs.pairs, rp.pairs) << "W=" << w;
    EXPECT_EQ(rs.ci_halfwidth, rp.ci_halfwidth) << "W=" << w;
    EXPECT_EQ(rs.converged, rp.converged) << "W=" << w;
  }
}

TEST(BlockMonteCarlo, QuotaTripsOnTheSamePairAcrossWidths) {
  auto mod = netlist::adder_module(6);
  const int n_in = mod.total_input_bits();
  // 97 is mid-block for every width, the default (0) included: the final
  // block must be clipped to the remaining quota, never charged past it.
  const std::size_t quota = 97;
  const auto ref = scalar_ref::plain_rule_monte_carlo(mod, 4, 1e-9, 30, quota);
  ASSERT_EQ(ref.pairs, quota);
  for (int w : {0, 1, 2, 3, 4, 8, 16, 64}) {
    stats::Rng rng_p(4);
    sim::SimOptions packed;
    packed.block_words = w;
    auto bp = exec::Budget::with_step_quota(quota);
    auto out_p = core::monte_carlo_power_budgeted(
        mod, [&] { return rng_p.uniform_bits(n_in); }, bp, 1e-9, 0.95, 30,
        4000, {}, packed);
    EXPECT_EQ(out_p->pairs, quota) << "W=" << w;
    EXPECT_EQ(out_p->mean_energy, ref.mean_energy) << "W=" << w;
    EXPECT_EQ(out_p->checkpoint.count, ref.checkpoint.count) << "W=" << w;
    EXPECT_EQ(out_p->checkpoint.m2, ref.checkpoint.m2) << "W=" << w;
    EXPECT_EQ(out_p->stop_reason,
              core::MonteCarloResult::StopReason::BudgetExhausted);
  }
}

// --- sharded Monte Carlo: thread counts and resume are bit-identical ------

TEST(ShardedMonteCarlo, ThreadCountsBitIdentical) {
  auto mod = netlist::multiplier_module(4);
  core::ShardedMcOptions opts;
  opts.total_pairs = 2000;
  opts.chunk_pairs = 256;
  opts.epsilon = 0.0;  // exhaustive: every chunk must be simulated
  auto ref = core::monte_carlo_power_sharded(mod, 11, opts);
  EXPECT_EQ(ref->pairs, 2000u);
  for (int threads : {2, 8}) {
    core::ShardedMcOptions o = opts;
    o.threads = threads;
    auto r = core::monte_carlo_power_sharded(mod, 11, o);
    EXPECT_EQ(ref->mean_energy, r->mean_energy) << "threads " << threads;
    EXPECT_EQ(ref->pairs, r->pairs) << "threads " << threads;
    EXPECT_EQ(ref->ci_halfwidth, r->ci_halfwidth) << "threads " << threads;
  }
}

TEST(ShardedMonteCarlo, ConvergenceIndependentOfThreadSchedule) {
  auto mod = netlist::adder_module(10);
  core::ShardedMcOptions opts;
  opts.total_pairs = 50000;
  opts.chunk_pairs = 512;
  opts.epsilon = 0.03;  // realistic CI stop: lands mid-campaign
  auto ref = core::monte_carlo_power_sharded(mod, 5, opts);
  ASSERT_TRUE(ref->converged);
  ASSERT_LT(ref->pairs, opts.total_pairs);
  for (int threads : {2, 8}) {
    core::ShardedMcOptions o = opts;
    o.threads = threads;
    auto r = core::monte_carlo_power_sharded(mod, 5, o);
    EXPECT_TRUE(r->converged) << "threads " << threads;
    EXPECT_EQ(ref->pairs, r->pairs) << "threads " << threads;
    EXPECT_EQ(ref->mean_energy, r->mean_energy) << "threads " << threads;
  }
}

TEST(ShardedMonteCarlo, ScalarEngineShardsIdentically) {
  // The scalar reference, one chunk after another, draws the same
  // per-chunk streams, so every thread count and width agrees with it
  // bit for bit.
  auto mod = netlist::adder_module(8);
  const auto ref = scalar_ref::sharded_monte_carlo(mod, 21, 1024, 128);
  core::ShardedMcOptions opts;
  opts.total_pairs = 1024;
  opts.chunk_pairs = 128;
  opts.epsilon = 0.0;
  for (int words : {1, 0}) {
    opts.sim.block_words = words;
    for (int threads : {1, 4}) {
      opts.threads = threads;
      auto r = core::monte_carlo_power_sharded(mod, 21, opts);
      EXPECT_EQ(r->pairs, ref.count()) << "W=" << words << " x" << threads;
      EXPECT_EQ(r->mean_energy, ref.mean()) << "W=" << words << " x"
                                            << threads;
      EXPECT_EQ(r->checkpoint.m2, ref.m2()) << "W=" << words << " x"
                                            << threads;
    }
  }
}

TEST(ShardedMonteCarlo, ResumeMidCampaignBitIdentical) {
  auto mod = netlist::multiplier_module(4);
  core::ShardedMcOptions opts;
  opts.total_pairs = 2048;
  opts.chunk_pairs = 256;
  opts.epsilon = 0.0;
  opts.threads = 2;
  auto full = core::monte_carlo_power_sharded(mod, 33, opts);
  ASSERT_EQ(full->pairs, 2048u);

  // Quota pays for exactly three chunks; the fourth claim trips.
  auto b = exec::Budget::with_step_quota(3 * 256);
  auto part = core::monte_carlo_power_sharded(mod, 33, opts, b);
  EXPECT_EQ(part->pairs, 768u);
  EXPECT_EQ(part->stop_reason,
            core::MonteCarloResult::StopReason::BudgetExhausted);

  for (int threads : {1, 8}) {
    core::ShardedMcOptions o = opts;
    o.threads = threads;
    auto resumed = core::monte_carlo_power_sharded(mod, 33, o, {}, {},
                                                   part->checkpoint);
    EXPECT_EQ(full->pairs, resumed->pairs) << "threads " << threads;
    EXPECT_EQ(full->mean_energy, resumed->mean_energy) << "threads "
                                                       << threads;
    EXPECT_EQ(full->ci_halfwidth, resumed->ci_halfwidth) << "threads "
                                                         << threads;
  }
}

// --- jobs kernel: shard-count identity ------------------------------------

TEST(ShardedMonteCarlo, JobsKernelValueIndependentOfThreadCount) {
  jobs::KernelRequest rq;
  rq.kind = jobs::JobKind::MonteCarlo;
  rq.design = "adder:12";
  rq.seed = jobs::job_seed("shard-identity");
  rq.epsilon = 0.02;
  rq.max_pairs = 20000;
  rq.mc_chunk_pairs = 512;
  rq.mc_threads = 1;
  auto a = jobs::run_kernel(rq, exec::Budget{});
  ASSERT_TRUE(a.ok);
  for (int threads : {2, 4}) {
    rq.mc_threads = threads;
    auto b2 = jobs::run_kernel(rq, exec::Budget{});
    ASSERT_TRUE(b2.ok) << "threads " << threads;
    EXPECT_EQ(a.out.value, b2.out.value) << "threads " << threads;
  }
}

}  // namespace
