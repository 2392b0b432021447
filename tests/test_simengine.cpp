#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/macromodel.hpp"
#include "core/sampling_power.hpp"
#include "netlist/generators.hpp"
#include "scalar_reference.hpp"
#include "sim/simulator.hpp"
#include "sim/streams.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hlp;
using netlist::GateKind;
using netlist::Netlist;

// --- transpose64 ---------------------------------------------------------

TEST(Transpose64, MovesBitAcrossTheDiagonal) {
  std::uint64_t m[64] = {};
  m[3] = std::uint64_t{1} << 17;  // element (row 3, col 17)
  sim::transpose64(m);
  for (int r = 0; r < 64; ++r)
    EXPECT_EQ(m[r], r == 17 ? std::uint64_t{1} << 3 : 0u) << "row " << r;
}

TEST(Transpose64, IsAnInvolutionOnRandomMatrices) {
  stats::Rng rng(99);
  std::uint64_t m[64], orig[64];
  for (int i = 0; i < 64; ++i) m[i] = orig[i] = rng.uniform_bits(64);
  sim::transpose64(m);
  // Spot-check the defining property on a few elements.
  for (int r = 0; r < 64; r += 7)
    for (int c = 0; c < 64; c += 5)
      EXPECT_EQ((m[c] >> r) & 1u, (orig[r] >> c) & 1u);
  sim::transpose64(m);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(m[i], orig[i]);
}

// --- backend selection ---------------------------------------------------

TEST(TemporalPacking, CombinationalNetlistsPack) {
  auto mod = netlist::adder_module(8);
  EXPECT_TRUE(sim::temporal_packable(mod.netlist));
}

TEST(TemporalPacking, RegisteredNetlistsDoNot) {
  Netlist nl;
  auto q = nl.add_dff();
  auto nq = nl.add_unary(GateKind::Not, q);
  nl.set_dff_input(q, nq);
  nl.mark_output(nq);
  EXPECT_FALSE(sim::temporal_packable(nl));
}

// --- packed vs scalar differential: activities and outputs ---------------

void expect_exact_equivalence(const Netlist& nl, int n_in,
                              std::size_t cycles, std::uint64_t seed) {
  stats::Rng rng(seed);
  auto in = sim::random_stream(n_in, cycles, 0.5, rng);

  ASSERT_TRUE(sim::temporal_packable(nl));
  stats::VectorStream out_s, out_p;
  auto act_s = scalar_ref::activities(nl, in, &out_s);
  auto act_p = sim::simulate_activities(nl, in, &out_p);

  ASSERT_EQ(act_s.size(), act_p.size());
  for (std::size_t g = 0; g < act_s.size(); ++g)
    EXPECT_EQ(act_s[g], act_p[g]) << "activity mismatch at gate " << g;
  ASSERT_EQ(out_s.words.size(), out_p.words.size());
  for (std::size_t t = 0; t < out_s.words.size(); ++t)
    EXPECT_EQ(out_s.words[t], out_p.words[t]) << "output mismatch at " << t;

  auto po = sim::simulate_outputs(nl, in);
  EXPECT_EQ(out_s.words, po.words);
}

TEST(PackedDifferential, RandomDags) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    auto mod = netlist::random_logic_module(16, 120, 8, seed);
    // 130 cycles spans two full blocks plus a partial third.
    expect_exact_equivalence(mod.netlist, mod.total_input_bits(), 130,
                             seed + 100);
  }
}

TEST(PackedDifferential, Adders) {
  for (int n : {4, 8, 16}) {
    auto mod = netlist::adder_module(n);
    expect_exact_equivalence(mod.netlist, mod.total_input_bits(), 200, 3);
  }
}

TEST(PackedDifferential, Multipliers) {
  for (int n : {4, 6}) {
    auto mod = netlist::multiplier_module(n);
    expect_exact_equivalence(mod.netlist, mod.total_input_bits(), 150, 5);
  }
}

TEST(PackedDifferential, AluParityComparatorMuxTree) {
  auto alu = netlist::alu_module(6);
  expect_exact_equivalence(alu.netlist, alu.total_input_bits(), 100, 11);
  auto par = netlist::parity_module(12);
  expect_exact_equivalence(par.netlist, par.total_input_bits(), 100, 12);
  auto cmp = netlist::comparator_module(10);
  expect_exact_equivalence(cmp.netlist, cmp.total_input_bits(), 100, 13);
  auto mux = netlist::mux_tree_module(3);
  expect_exact_equivalence(mux.netlist, mux.total_input_bits(), 100, 14);
}

TEST(PackedDifferential, ShortAndPartialStreams) {
  auto mod = netlist::adder_module(8);
  // Degenerate lengths: empty, one cycle, exactly one block, one over.
  for (std::size_t cycles : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                             std::size_t{63}, std::size_t{64},
                             std::size_t{65}}) {
    expect_exact_equivalence(mod.netlist, mod.total_input_bits(), cycles, 21);
  }
}

// --- Monte Carlo power: packed == scalar reference, bit for bit ----------
// Each packed run sweeps the block width: the default (0), the odd and
// widest portable widths, and the AVX2/AVX-512 widths.

constexpr int kWidths[] = {0, 1, 2, 3, 4, 8, 16, 64};

sim::SimOptions packed_at(int words) {
  sim::SimOptions o;
  o.block_words = words;
  return o;
}

TEST(PackedMonteCarlo, BitIdenticalToScalar) {
  for (std::uint64_t seed : {2u, 9u}) {
    auto mod = netlist::multiplier_module(4);
    const int n_in = mod.total_input_bits();
    auto rs = scalar_ref::plain_rule_monte_carlo(mod, seed, 0.05, 30, 4000);
    for (int w : kWidths) {
      stats::Rng rng_p(seed);
      auto gen_p = [&] { return rng_p.uniform_bits(n_in); };
      auto rp = core::monte_carlo_power(mod, gen_p, 0.05, 0.95, 30, 4000, {},
                                        packed_at(w));
      EXPECT_EQ(rs.mean_energy, rp.mean_energy) << "W=" << w;
      EXPECT_EQ(rs.pairs, rp.pairs) << "W=" << w;
      EXPECT_EQ(rs.ci_halfwidth, rp.ci_halfwidth) << "W=" << w;
      EXPECT_EQ(rs.converged, rp.converged) << "W=" << w;
    }
  }
}

TEST(PackedMonteCarlo, ExhaustsMaxPairsIdentically) {
  auto mod = netlist::adder_module(6);
  const int n_in = mod.total_input_bits();
  // Impossible epsilon: both paths must run to max_pairs (not a multiple
  // of 64, so the last packed block is partial).
  auto rs = scalar_ref::plain_rule_monte_carlo(mod, 4, 1e-9, 30, 100);
  for (int w : kWidths) {
    stats::Rng rng_p(4);
    auto gen_p = [&] { return rng_p.uniform_bits(n_in); };
    auto rp = core::monte_carlo_power(mod, gen_p, 1e-9, 0.95, 30, 100, {},
                                      packed_at(w));
    EXPECT_FALSE(rp.converged) << "W=" << w;
    EXPECT_EQ(rs.pairs, rp.pairs) << "W=" << w;
    EXPECT_EQ(rs.mean_energy, rp.mean_energy) << "W=" << w;
    EXPECT_EQ(rs.ci_halfwidth, rp.ci_halfwidth) << "W=" << w;
  }
}

// --- macro-model characterization: packed == scalar reference ------------

TEST(PackedCharacterize, BitIdenticalToScalar) {
  auto mod = netlist::multiplier_module(4);
  stats::Rng rng(31);
  auto in = sim::random_stream(mod.total_input_bits(), 300, 0.5, rng);
  auto cs = scalar_ref::characterize(mod, in);
  for (int w : kWidths) {
    auto cp = core::characterize(mod, in, {}, packed_at(w));
    ASSERT_EQ(cs.transitions(), cp.transitions()) << "W=" << w;
    EXPECT_EQ(cs.n_in, cp.n_in);
    EXPECT_EQ(cs.n_out, cp.n_out);
    EXPECT_EQ(cs.total_cap, cp.total_cap);
    for (std::size_t t = 0; t < cs.transitions(); ++t) {
      EXPECT_EQ(cs.energy[t], cp.energy[t]) << "W=" << w << " t=" << t;
      EXPECT_EQ(cs.in_activity[t], cp.in_activity[t]);
      EXPECT_EQ(cs.in_prob[t], cp.in_prob[t]);
      EXPECT_EQ(cs.out_activity[t], cp.out_activity[t]);
      EXPECT_EQ(cs.cur_word[t], cp.cur_word[t]);
      EXPECT_EQ(cs.prev_word[t], cp.prev_word[t]);
      EXPECT_EQ(cs.pin_toggle[t], cp.pin_toggle[t]);
    }
  }
}

// --- Rng::fill_packed ----------------------------------------------------

TEST(RngFillPacked, MatchesSequentialUniformBits) {
  stats::Rng a(5), b(5);
  std::vector<std::uint64_t> words(10);
  a.fill_packed(words, 12);
  for (std::uint64_t w : words) EXPECT_EQ(w, b.uniform_bits(12));

  // Bulk fills interleaved with single draws, across and onto the 312-word
  // refill boundary, at every mask shape; width 0 draws nothing.
  const std::size_t fills[] = {300, 20, 312, 0, 313, 1000, 1};
  for (int width : {0, 1, 16, 24, 63, 64}) {
    stats::Rng bulk(9), single(9);
    for (std::size_t n : fills) {
      std::vector<std::uint64_t> block(n);
      bulk.fill_packed(block, width);
      for (std::size_t k = 0; k < n; ++k)
        ASSERT_EQ(block[k], single.uniform_bits(width))
            << "width " << width << " fill " << n << " word " << k;
      for (int i = 0; i < 5; ++i)
        ASSERT_EQ(bulk.uniform_bits(width), single.uniform_bits(width))
            << "width " << width << " after fill " << n;
    }
  }
}

}  // namespace
