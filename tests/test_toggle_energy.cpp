#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/sampling_power.hpp"
#include "netlist/generators.hpp"
#include "scalar_reference.hpp"
#include "sim/block_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/toggle_energy.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hlp;

struct DispatchGuard {
  ~DispatchGuard() { sim::set_dispatch_cap(sim::SimDispatch::Avx512); }
};

// --- the dyadic check and the class layout --------------------------------

TEST(ToggleEnergy, DyadicCheckAcceptsOnlyExactlySummableLoads) {
  auto exact = [](std::vector<double> loads) {
    return sim::LoadClasses(loads).exact();
  };
  EXPECT_TRUE(exact({}));
  EXPECT_TRUE(exact({0.0, 0.0}));
  EXPECT_TRUE(exact({0.5, 1.75, 3.0, 0.25}));
  EXPECT_TRUE(exact({-0.5, 1.75}));
  EXPECT_TRUE(exact({std::ldexp(1.0, 52), 1.0}));  // sum 2^52 + 1 < 2^53
  // Units of 2^52: the sum 2^53 is still exact.
  EXPECT_TRUE(exact({std::ldexp(1.0, 52), std::ldexp(1.0, 52)}));
  EXPECT_FALSE(exact({std::ldexp(1.0, 52), 1.0, std::ldexp(1.0, 52)}));
  EXPECT_FALSE(exact({std::ldexp(1.0, 52), 0.5}));  // 2^53 + 1 halves
  // One gate of 0.1 is exact (its count is 0 or 1); 0.1 and 0.2 together
  // need units of 2^-55, and their sum exceeds 2^53 of them.
  EXPECT_TRUE(exact({0.1}));
  EXPECT_FALSE(exact({0.1, 0.2}));
  EXPECT_FALSE(exact({0.5, std::numeric_limits<double>::infinity()}));
  EXPECT_FALSE(exact({std::numeric_limits<double>::quiet_NaN()}));
  // 1.0 is 2^1074 units of the smallest subnormal: far past 2^53.
  EXPECT_FALSE(exact({std::numeric_limits<double>::denorm_min(), 1.0}));
}

/// The class layout by its definition: the nonzero-load gates stably
/// sorted by load, one class per run of equal loads, and readout groups
/// packed greedily up to 64 planes.
void expect_layout_by_definition(const std::vector<double>& loads) {
  const sim::LoadClasses lc(loads);
  ASSERT_TRUE(lc.exact());
  std::vector<netlist::GateId> gates;
  for (std::size_t g = 0; g < loads.size(); ++g)
    if (loads[g] != 0.0) gates.push_back(static_cast<netlist::GateId>(g));
  std::stable_sort(gates.begin(), gates.end(),
                   [&](netlist::GateId a, netlist::GateId b) {
                     return loads[a] < loads[b];
                   });
  std::vector<sim::detail::ToggleClass> classes;
  std::vector<std::uint32_t> groups;
  std::uint32_t planes = 0, group_planes = 64;
  for (std::size_t i = 0; i < gates.size();) {
    std::size_t j = i + 1;
    while (j < gates.size() && loads[gates[j]] == loads[gates[i]]) ++j;
    const auto width = static_cast<std::uint32_t>(std::bit_width(j - i));
    if (group_planes + width > 64) {
      groups.push_back(static_cast<std::uint32_t>(classes.size()));
      group_planes = 0;
    }
    group_planes += width;
    classes.push_back({static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j), planes, width});
    planes += width;
    i = j;
  }
  groups.push_back(static_cast<std::uint32_t>(classes.size()));

  EXPECT_TRUE(std::ranges::equal(lc.gates(), gates));
  ASSERT_EQ(lc.classes().size(), classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    EXPECT_EQ(lc.classes()[c].gate_begin, classes[c].gate_begin) << c;
    EXPECT_EQ(lc.classes()[c].gate_end, classes[c].gate_end) << c;
    EXPECT_EQ(lc.classes()[c].plane, classes[c].plane) << c;
    EXPECT_EQ(lc.classes()[c].planes, classes[c].planes) << c;
  }
  EXPECT_TRUE(std::ranges::equal(lc.groups(), groups));
  EXPECT_EQ(lc.class_count(), classes.size());
  EXPECT_EQ(lc.plane_count(), planes);
}

TEST(ToggleEnergy, ClassesGroupEqualNonzeroLoads) {
  const std::vector<double> loads{0.5, 1.75, 0.5, 0.0, 1.75, 1.75, 9.0};
  sim::LoadClasses lc(loads);
  ASSERT_TRUE(lc.exact());
  EXPECT_EQ(lc.class_count(), 3u);  // 0.5 x2, 1.75 x3, 9.0 x1; 0 joins none
  EXPECT_EQ(lc.plane_count(), 2u + 2u + 1u);
  expect_layout_by_definition(loads);

  // Random designs, as built and with per-gate extra loads (multiples of
  // 1/8, some negative and some cancelling the gate's load to zero), so
  // there are hundreds of classes over several readout groups.
  for (std::uint64_t seed : {1u, 8u, 77u}) {
    auto mod = netlist::random_logic_module(24, 2000, 8, seed);
    expect_layout_by_definition(mod.netlist.loads());
    stats::Rng rng(seed);
    const auto base = mod.netlist.loads();
    for (netlist::GateId g = 0; g < mod.netlist.gate_count(); ++g) {
      const auto pick = rng.uniform_bits(8);
      const double extra = pick < 16    ? -base[g]
                           : pick < 32 ? -0.125 * static_cast<double>(pick)
                                       : 0.125 * static_cast<double>(pick);
      mod.netlist.add_extra_cap(g, extra);
    }
    const auto loads_x = mod.netlist.loads();
    ASSERT_GT(std::count(loads_x.begin(), loads_x.end(), 0.0), 0);
    ASSERT_GT(sim::LoadClasses(loads_x).groups().size(), 3u);
    expect_layout_by_definition(loads_x);
  }
}

// --- counter == ascending-order scatter, bit for bit ----------------------

/// The per-gate scatter the counter replaces: ascending gate order per lane.
std::vector<double> scatter(const std::vector<double>& loads,
                            const std::vector<std::uint64_t>& toggles,
                            std::size_t W, std::size_t count) {
  std::vector<double> e(count, 0.0);
  for (std::size_t g = 0; g < loads.size(); ++g)
    for (std::size_t k = 0; k < count; ++k)
      if ((toggles[g * W + k / 64] >> (k % 64)) & 1u) e[k] += loads[g];
  return e;
}

/// One block of random vector pairs, as Monte Carlo evaluates them: each
/// gate's lane words under the first and the second vectors, gate-major.
struct PairLanes {
  std::vector<std::uint64_t> prev, cur;
};

PairLanes pair_lanes(const netlist::Module& mod, int W, std::uint64_t seed) {
  const auto& nl = mod.netlist;
  const int n_in = mod.total_input_bits();
  sim::BlockSimulator bs(nl, W);
  stats::Rng rng(seed);
  std::vector<std::uint64_t> v1(bs.lane_count()), v2(bs.lane_count());
  for (auto& v : v1) v = rng.uniform_bits(n_in);
  for (auto& v : v2) v = rng.uniform_bits(n_in);
  PairLanes p;
  bs.set_inputs_from_cycles(v1);
  bs.eval();
  p.prev.assign(bs.lanes().begin(), bs.lanes().end());
  bs.set_inputs_from_cycles(v2);
  bs.eval();
  p.cur.assign(bs.lanes().begin(), bs.lanes().end());
  return p;
}

/// Toggle words of one block of random vector pairs, as Monte Carlo
/// produces them: prev ^ cur per gate, gate-major.
std::vector<std::uint64_t> pair_toggles(const netlist::Module& mod, int W,
                                        std::uint64_t seed) {
  PairLanes p = pair_lanes(mod, W, seed);
  for (std::size_t i = 0; i < p.prev.size(); ++i) p.prev[i] ^= p.cur[i];
  return p.prev;
}

/// Counter vs scatter at every width and for full and partial blocks.
void expect_counter_matches_scatter(const netlist::Module& mod,
                                    const netlist::CapacitanceModel& cap,
                                    bool expect_exact) {
  const auto loads = mod.netlist.loads(cap);
  const sim::LoadClasses lc(loads);
  ASSERT_EQ(lc.exact(), expect_exact);
  for (int W : {1, 3, 4, 8, 16, 64}) {
    const auto lanes = static_cast<std::size_t>(64 * W);
    const auto toggles = pair_toggles(mod, W, 100 + static_cast<unsigned>(W));
    const auto lanes_of = pair_lanes(mod, W, 100 + static_cast<unsigned>(W));
    sim::ToggleEnergy energy(lc, W);
    for (std::size_t count : {std::size_t{1}, std::size_t{63}, std::size_t{65},
                              std::size_t{777}, lanes}) {
      if (count > lanes) continue;
      const auto ref = scatter(loads, toggles, static_cast<std::size_t>(W),
                               count);
      std::vector<double> e(count, -1.0);
      energy.energies(toggles, count, e.data());
      for (std::size_t k = 0; k < count; ++k)
        ASSERT_EQ(e[k], ref[k]) << "W=" << W << " count=" << count
                                << " lane " << k;
      // The two-array form counts prev ^ cur in place: the same energies.
      std::vector<double> ep(count, -1.0);
      energy.energies(lanes_of.prev, lanes_of.cur, count, ep.data());
      for (std::size_t k = 0; k < count; ++k)
        ASSERT_EQ(ep[k], e[k]) << "pair form, W=" << W << " count=" << count
                               << " lane " << k;
    }
  }
}

TEST(ToggleEnergy, MatchesScatterOnMultipliers) {
  expect_counter_matches_scatter(netlist::multiplier_module(8), {}, true);
  expect_counter_matches_scatter(netlist::multiplier_module(16), {}, true);
}

TEST(ToggleEnergy, MatchesScatterOnAdderAndRandomLogic) {
  expect_counter_matches_scatter(netlist::adder_module(16), {}, true);
  expect_counter_matches_scatter(netlist::random_logic_module(24, 2000, 8, 8),
                                 {}, true);
}

TEST(ToggleEnergy, ManyExtraCapClassesSpanSeveralPlaneGroups) {
  auto mod = netlist::random_logic_module(24, 2000, 8, 8);
  for (netlist::GateId g = 0; g < mod.netlist.gate_count(); ++g)
    mod.netlist.add_extra_cap(g, 0.125 * static_cast<double>(g % 97));
  const sim::LoadClasses lc(mod.netlist.loads());
  EXPECT_GT(lc.plane_count(), 128u);  // three or more transpose groups
  expect_counter_matches_scatter(mod, {}, true);
}

TEST(ToggleEnergy, NonDyadicCapModelFallsBackAndMatches) {
  netlist::CapacitanceModel cap;
  cap.wire_cap_per_fanout = 0.1;
  expect_counter_matches_scatter(netlist::multiplier_module(8), cap, false);
  expect_counter_matches_scatter(netlist::adder_module(16), cap, false);
}

TEST(ToggleEnergy, DispatchLevelsAgree) {
  DispatchGuard guard;
  auto mod = netlist::multiplier_module(16);
  const auto loads = mod.netlist.loads();
  const sim::LoadClasses lc(loads);
  for (int W : {4, 8, 16}) {
    const auto toggles = pair_toggles(mod, W, 7);
    const auto count = static_cast<std::size_t>(64 * W);
    std::vector<double> best(count), portable(count);
    sim::set_dispatch_cap(sim::SimDispatch::Avx512);
    sim::ToggleEnergy(lc, W).energies(toggles, count, best.data());
    sim::set_dispatch_cap(sim::SimDispatch::Portable);
    sim::ToggleEnergy(lc, W).energies(toggles, count, portable.data());
    EXPECT_EQ(best, portable) << "W=" << W;
  }
}

TEST(ToggleEnergy, QuantaAgreeAcrossDispatchLevels) {
  // Integer quanta at every level, for the default loads, for signed loads
  // (two's-complement multipliers) and for multipliers of 2^32 and more
  // (the readout's upper-half product); q·2^-scale is the scatter's energy.
  DispatchGuard guard;
  auto mod = netlist::multiplier_module(16);
  const auto base = mod.netlist.loads();
  std::vector<double> signed_loads = base, wide_loads = base;
  for (std::size_t g = 0; g < base.size(); ++g) {
    if (g % 3 == 0) signed_loads[g] = -signed_loads[g];
    if (g % 5 == 0) wide_loads[g] = std::ldexp(1.0, 33) + 0.25;
  }
  for (const auto& loads : {base, signed_loads, wide_loads}) {
    const sim::LoadClasses lc(loads);
    ASSERT_TRUE(lc.exact());
    for (int W : {4, 8, 16}) {
      const auto toggles = pair_toggles(mod, W, 7);
      const auto count = static_cast<std::size_t>(64 * W) - 5;
      const auto ref = scatter(loads, toggles, static_cast<std::size_t>(W),
                               count);
      std::vector<std::vector<std::uint64_t>> per_level;
      for (auto cap : {sim::SimDispatch::Avx512, sim::SimDispatch::Avx2,
                       sim::SimDispatch::Portable}) {
        sim::set_dispatch_cap(cap);
        sim::ToggleEnergy energy(lc, W);
        std::vector<std::uint64_t> q(static_cast<std::size_t>(64 * W));
        energy.count(toggles);
        energy.quanta(count, q.data());
        q.resize(count);
        for (std::size_t k = 0; k < count; ++k)
          ASSERT_EQ(std::ldexp(static_cast<double>(
                                   static_cast<std::int64_t>(q[k])),
                               -lc.scale()),
                    ref[k])
              << "W=" << W << " lane " << k;
        per_level.push_back(std::move(q));
      }
      EXPECT_EQ(per_level[0], per_level[1]) << "W=" << W;
      EXPECT_EQ(per_level[0], per_level[2]) << "W=" << W;
    }
  }
}

TEST(ToggleEnergy, NarrowNeedsNonnegativeLoadsBelowTwoToThe32Units) {
  EXPECT_TRUE(sim::LoadClasses(std::vector<double>{0.25, 1.5, 0.0}).narrow());
  EXPECT_EQ(sim::LoadClasses(std::vector<double>{0.25, 1.5}).scale(), 2);
  EXPECT_EQ(sim::LoadClasses(std::vector<double>{4.0, 8.0}).scale(), -2);
  EXPECT_FALSE(sim::LoadClasses(std::vector<double>{-0.25, 1.5}).narrow());
  // Σm = 2^32 - 1 units passes; 2^32 + 1 does not.
  EXPECT_TRUE(sim::LoadClasses(std::vector<double>{std::ldexp(1.0, 31),
                                                   std::ldexp(1.0, 31) - 1})
                  .narrow());
  EXPECT_FALSE(
      sim::LoadClasses(std::vector<double>{std::ldexp(1.0, 31),
                                           std::ldexp(1.0, 31), 1.0})
          .narrow());
  // The unit is the finest place any load uses: two loads of 2^31 are two
  // units of 2^31.
  EXPECT_TRUE(sim::LoadClasses(std::vector<double>{std::ldexp(1.0, 31),
                                                   std::ldexp(1.0, 31)})
                  .narrow());
  EXPECT_FALSE(sim::LoadClasses(std::vector<double>{0.1, 0.2}).narrow());
}

// --- end to end: a non-dyadic cap model keeps packed == scalar ------------

TEST(ToggleEnergy, NonDyadicMonteCarloAndCharacterizeMatchScalar) {
  auto mod = netlist::multiplier_module(4);
  const int n_in = mod.total_input_bits();
  netlist::CapacitanceModel cap;
  cap.wire_cap_per_fanout = 0.1;
  stats::Rng rng_s(3), rng_p(3);
  auto rs = scalar_ref::plain_rule_monte_carlo(
      mod, [&] { return rng_s.uniform_bits(n_in); }, 0.05, 30, 3000, cap);
  auto rp = core::monte_carlo_power(
      mod, [&] { return rng_p.uniform_bits(n_in); }, 0.05, 0.95, 30, 3000,
      cap);
  EXPECT_EQ(rs.mean_energy, rp.mean_energy);
  EXPECT_EQ(rs.pairs, rp.pairs);
  EXPECT_EQ(rs.ci_halfwidth, rp.ci_halfwidth);

  stats::Rng rng(5);
  stats::VectorStream in;
  for (int t = 0; t < 300; ++t) in.words.push_back(rng.uniform_bits(n_in));
  auto cs = scalar_ref::characterize(mod, in, cap);
  auto cp = core::characterize(mod, in, cap);
  EXPECT_EQ(cs.energy, cp.energy);
}

}  // namespace
