#pragma once

// Scalar reference loops for the differential tests. Each drives the
// public sim::Simulator one pattern at a time, in the semantics every
// packed path (stream sweeps, characterization, Monte Carlo at every block
// width and dispatch level) must reproduce bit for bit.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/macromodel.hpp"
#include "core/sampling_power.hpp"
#include "sim/simulator.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace hlp::scalar_ref {

/// Per-gate zero-delay activities of a cycle-by-cycle sweep (one
/// set/eval/record/tick per stream word); `out`, when given, receives the
/// primary-output stream.
inline std::vector<double> activities(
    const netlist::Netlist& nl, const stats::VectorStream& in,
    stats::VectorStream* out = nullptr) {
  sim::Simulator s(nl);
  sim::ActivityCollector col(nl);
  if (out) {
    out->width = static_cast<int>(nl.outputs().size());
    out->words.clear();
  }
  for (std::uint64_t w : in.words) {
    s.set_all_inputs(w);
    s.eval();
    col.record(s);
    if (out) out->words.push_back(s.output_bits());
    s.tick();
  }
  return col.activities();
}

/// core::characterize, cycle by cycle: each transition's energy is the sum
/// of the loads of the gates that toggled, in ascending gate order.
inline core::ModuleCharacterization characterize(
    const netlist::Module& mod, const stats::VectorStream& in,
    const netlist::CapacitanceModel& cap = {}) {
  const auto& nl = mod.netlist;
  core::ModuleCharacterization chr;
  chr.n_in = mod.total_input_bits();
  chr.n_out = mod.total_output_bits();
  chr.total_cap = nl.total_capacitance(cap);
  const auto loads = nl.loads(cap);
  sim::Simulator s(nl);
  std::vector<bool> prev(nl.gate_count());
  std::uint64_t prev_out = 0;
  for (std::size_t t = 0; t < in.words.size(); ++t) {
    s.set_all_inputs(in.words[t]);
    s.eval();
    const std::uint64_t out = s.output_bits();
    if (t > 0) {
      double e = 0.0;
      for (netlist::GateId g = 0; g < nl.gate_count(); ++g)
        if (s.value(g) != prev[g]) e += loads[g];
      const std::uint64_t cur = in.words[t], before = in.words[t - 1];
      std::vector<double> toggles(static_cast<std::size_t>(chr.n_in));
      for (int i = 0; i < chr.n_in; ++i)
        toggles[static_cast<std::size_t>(i)] =
            static_cast<double>(((cur ^ before) >> i) & 1u);
      chr.energy.push_back(e);
      chr.pin_toggle.push_back(std::move(toggles));
      chr.in_activity.push_back(
          static_cast<double>(std::popcount(cur ^ before)) / chr.n_in);
      chr.in_prob.push_back(static_cast<double>(std::popcount(cur)) /
                            chr.n_in);
      chr.out_activity.push_back(
          static_cast<double>(std::popcount(out ^ prev_out)) /
          std::max(1, chr.n_out));
      chr.cur_word.push_back(cur);
      chr.prev_word.push_back(before);
    }
    prev_out = out;
    for (netlist::GateId g = 0; g < nl.gate_count(); ++g) prev[g] = s.value(g);
    s.tick();
  }
  return chr;
}

/// One vector pair's switched capacitance: evaluate v1, then v2, and sum
/// the loads of the gates that differ, in ascending gate order. Registers
/// are never clocked, so every pair sees them at `dff_init`.
class PairEnergy {
 public:
  explicit PairEnergy(const netlist::Netlist& nl,
                      const netlist::CapacitanceModel& cap = {})
      : nl_(nl), s_(nl), loads_(nl.loads(cap)), prev_(nl.gate_count()) {}

  double operator()(std::uint64_t v1, std::uint64_t v2) {
    s_.set_all_inputs(v1);
    s_.eval();
    for (netlist::GateId g = 0; g < nl_.gate_count(); ++g)
      prev_[g] = s_.value(g);
    s_.set_all_inputs(v2);
    s_.eval();
    double e = 0.0;
    for (netlist::GateId g = 0; g < nl_.gate_count(); ++g)
      if (s_.value(g) != prev_[g]) e += loads_[g];
    return e;
  }

 private:
  const netlist::Netlist& nl_;
  sim::Simulator s_;
  std::vector<double> loads_;
  std::vector<bool> prev_;
};

/// Monte Carlo one pair at a time with the plain stop rule,
/// `ci_halfwidth` evaluated for every pair past min_pairs. The checkpoint
/// carries the final Welford state.
inline core::MonteCarloResult plain_rule_monte_carlo(
    const netlist::Module& mod, const std::function<std::uint64_t()>& gen,
    double epsilon, std::size_t min_pairs, std::size_t max_pairs,
    const netlist::CapacitanceModel& cap = {}) {
  PairEnergy pair(mod.netlist, cap);
  stats::RunningStats rs;
  core::MonteCarloResult res;
  while (rs.count() < max_pairs) {
    const std::uint64_t v1 = gen();
    rs.add(pair(v1, gen()));
    if (rs.count() >= min_pairs) {
      const double hw = stats::ci_halfwidth(rs, 0.95);
      if (rs.mean() > 0.0 && hw <= epsilon * rs.mean()) {
        res.converged = true;
        res.ci_halfwidth = hw;
        break;
      }
    }
  }
  res.pairs = rs.count();
  res.mean_energy = rs.mean();
  if (!res.converged) res.ci_halfwidth = stats::ci_halfwidth(rs, 0.95);
  res.stop_reason = res.converged
                        ? core::MonteCarloResult::StopReason::Converged
                        : core::MonteCarloResult::StopReason::
                              MaxPairsExhausted;
  res.checkpoint = {rs.count(), rs.mean(), rs.m2()};
  return res;
}

/// The same, drawing `rng.uniform_bits(total_input_bits)` from Rng(seed).
inline core::MonteCarloResult plain_rule_monte_carlo(
    const netlist::Module& mod, std::uint64_t seed, double epsilon,
    std::size_t min_pairs, std::size_t max_pairs) {
  stats::Rng rng(seed);
  const int n_in = mod.total_input_bits();
  return plain_rule_monte_carlo(
      mod, [&] { return rng.uniform_bits(n_in); }, epsilon, min_pairs,
      max_pairs);
}

/// core::monte_carlo_power_sharded without early stopping, one chunk after
/// another: chunk c draws its pairs from Rng(shard_seed(seed, c)) and the
/// chunk statistics merge in chunk order.
inline stats::RunningStats sharded_monte_carlo(
    const netlist::Module& mod, std::uint64_t seed, std::size_t total_pairs,
    std::size_t chunk_pairs) {
  PairEnergy pair(mod.netlist);
  const int n_in = mod.total_input_bits();
  stats::RunningStats merged;
  for (std::size_t c = 0; c * chunk_pairs < total_pairs; ++c) {
    stats::Rng rng(stats::shard_seed(seed, c));
    stats::RunningStats rc;
    const std::size_t begin = c * chunk_pairs;
    for (std::size_t k = begin; k < std::min(begin + chunk_pairs, total_pairs);
         ++k) {
      const std::uint64_t v1 = rng.uniform_bits(n_in);
      rc.add(pair(v1, rng.uniform_bits(n_in)));
    }
    merged.merge(rc);
  }
  return merged;
}

}  // namespace hlp::scalar_ref
