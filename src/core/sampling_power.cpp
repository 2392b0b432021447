#include "core/sampling_power.hpp"

#include <algorithm>
#include <charconv>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exec/fi.hpp"
#include "lint/lint.hpp"
#include "sim/block_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/toggle_energy.hpp"
#include "stats/descriptive.hpp"
#include "stats/sampling.hpp"

namespace hlp::core {

namespace {

void append_double(std::string& s, double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;  // shortest round-trip form of a double always fits in 64 chars
  s.append(buf, end);
}

// Consume one token (up to whitespace) with `conv`, advancing `p`; the
// token must parse in full.
template <typename T>
bool parse_field(const char*& p, const char* end, T& out) {
  const char* tok_end = p;
  while (tok_end != end && *tok_end != ' ') ++tok_end;
  if (tok_end == p) return false;
  auto [rest, ec] = std::from_chars(p, tok_end, out);
  if (ec != std::errc{} || rest != tok_end) return false;
  p = tok_end;
  return true;
}

}  // namespace

std::string MonteCarloCheckpoint::serialize() const {
  std::string s = std::to_string(count);
  s.push_back(' ');
  append_double(s, mean);
  s.push_back(' ');
  append_double(s, m2);
  return s;
}

bool MonteCarloCheckpoint::parse(std::string_view text,
                                 MonteCarloCheckpoint& out) {
  const char* p = text.data();
  const char* end = p + text.size();
  MonteCarloCheckpoint c;
  if (!parse_field(p, end, c.count)) return false;
  if (p == end || *p != ' ') return false;
  ++p;
  if (!parse_field(p, end, c.mean)) return false;
  if (p == end || *p != ' ') return false;
  ++p;
  if (!parse_field(p, end, c.m2)) return false;
  if (p != end) return false;
  out = c;
  return true;
}

CosimEstimate census_estimate(const ModuleCharacterization& eval_set,
                              const MacroFn& model) {
  CosimEstimate est;
  stats::RunningStats rs;
  for (std::size_t t = 0; t < eval_set.transitions(); ++t) {
    rs.add(model(eval_set, t));
    ++est.macro_evals;
  }
  est.mean_energy = rs.mean();
  return est;
}

CosimEstimate sampler_estimate(const ModuleCharacterization& eval_set,
                               const MacroFn& model, std::size_t sample_size,
                               std::size_t n_samples, stats::Rng& rng) {
  CosimEstimate est;
  stats::RunningStats means;
  for (std::size_t s = 0; s < n_samples; ++s) {
    auto idx =
        stats::simple_random_sample(eval_set.transitions(), sample_size, rng);
    stats::RunningStats rs;
    for (std::size_t t : idx) {
      rs.add(model(eval_set, t));
      ++est.macro_evals;
    }
    means.add(rs.mean());
  }
  est.mean_energy = means.mean();
  return est;
}

CosimEstimate adaptive_estimate(const ModuleCharacterization& eval_set,
                                const MacroFn& model,
                                std::size_t gate_sample_size,
                                stats::Rng& rng) {
  CosimEstimate est;
  // Census of the (cheap) macro-model gives the population mean of X.
  stats::RunningStats xs_pop;
  for (std::size_t t = 0; t < eval_set.transitions(); ++t) {
    xs_pop.add(model(eval_set, t));
    ++est.macro_evals;
  }
  // Gate-level Y on a small subsample, paired with X.
  auto idx = stats::simple_random_sample(eval_set.transitions(),
                                         gate_sample_size, rng);
  std::vector<double> xs, ys;
  xs.reserve(idx.size());
  ys.reserve(idx.size());
  for (std::size_t t : idx) {
    xs.push_back(model(eval_set, t));
    ys.push_back(eval_set.energy[t]);
    ++est.gate_cycle_sims;
  }
  est.mean_energy = stats::ratio_estimate_mean(xs, ys, xs_pop.mean());
  return est;
}

CosimEstimate stratified_estimate(const ModuleCharacterization& eval_set,
                                  const MacroFn& model, std::size_t strata,
                                  std::size_t per_stratum, stats::Rng& rng) {
  CosimEstimate est;
  auto idx = stats::stratified_sample(eval_set.transitions(), strata,
                                      per_stratum, rng);
  stats::RunningStats rs;
  for (std::size_t t : idx) {
    rs.add(model(eval_set, t));
    ++est.macro_evals;
  }
  est.mean_energy = rs.mean();
  return est;
}

double gate_level_mean(const ModuleCharacterization& eval_set) {
  return eval_set.mean_energy();
}

namespace {

/// Close out a run: stop-reason bookkeeping + resume checkpoint. `res`
/// already carries converged/ci from the stop rule when it fired.
void finish_monte_carlo(MonteCarloResult& res, const stats::RunningStats& rs,
                        double confidence, bool budget_stop) {
  res.mean_energy = rs.mean();
  res.pairs = rs.count();
  if (res.converged) {
    res.stop_reason = MonteCarloResult::StopReason::Converged;
  } else {
    res.ci_halfwidth = stats::ci_halfwidth(rs, confidence);
    res.stop_reason = budget_stop
                          ? MonteCarloResult::StopReason::BudgetExhausted
                          : MonteCarloResult::StopReason::MaxPairsExhausted;
  }
  res.checkpoint = {rs.count(), rs.mean(), rs.m2()};
}

/// The CI stop rule `ci_halfwidth(rs) <= epsilon * mean` (mean > 0),
/// evaluated for every pair past min_pairs. A squared pre-test with a
/// 1e-9 relative margin, far wider than the few ulps the two sides can
/// round by, rejects the unconverged majority without the two square
/// roots; whenever it cannot reject, the original expression decides, so
/// the stopping pair and `hw` are exactly those of the plain rule.
bool ci_converged(const stats::RunningStats& rs, double epsilon,
                  double confidence, double& hw) {
  const double mean = rs.mean();
  if (!(mean > 0.0)) return false;
  const double z = stats::normal_quantile_two_sided(confidence);
  const double target = epsilon * mean;
  if (z * z * rs.variance() / static_cast<double>(rs.count()) >
      target * target * (1.0 + 1e-9))
    return false;
  const double h = stats::ci_halfwidth(rs, confidence);
  if (!(h <= target)) return false;
  hw = h;
  return true;
}

/// Simulate one block of vector pairs (pair k in bit lane k of the block)
/// and write per-pair switched-cap energies into e_lane[0..w1.size()).
/// The toggle buffer (gate-major, gate_count·W words) is caller-owned so
/// campaign loops don't reallocate.
void simulate_pair_block(sim::BlockSimulator& bs, sim::ToggleEnergy& energy,
                         std::span<const std::uint64_t> w1,
                         std::span<const std::uint64_t> w2,
                         std::vector<std::uint64_t>& toggles, double* e_lane) {
  bs.set_inputs_from_cycles(w1);
  bs.eval();
  const auto first = bs.lanes();
  std::copy(first.begin(), first.end(), toggles.begin());
  bs.set_inputs_from_cycles(w2);
  bs.eval();
  const auto second = bs.lanes();
  for (std::size_t i = 0; i < toggles.size(); ++i) toggles[i] ^= second[i];
  energy.energies(toggles, w1.size(), e_lane);
}

/// 64·W independent vector pairs per block step: pair k occupies bit lane
/// k, drawn in the same interleaved order (v1_k, v2_k) the scalar loop
/// uses. Lane energies are drained into the running stats in draw order, so
/// the sequential stop rule fires at exactly the same pair as the scalar
/// path. The meter is charged the whole block's pair count in one probe
/// *before* the block is drawn — budget accounting is O(1) per block, and a
/// quota-stopped run leaves the generator exactly where the scalar engine
/// would (the batch never exceeds the remaining quota).
MonteCarloResult monte_carlo_power_packed(
    const netlist::Netlist& nl,
    const std::function<std::uint64_t()>& vector_gen, double epsilon,
    double confidence, std::size_t min_pairs, std::size_t max_pairs,
    const netlist::CapacitanceModel& cap, exec::Meter* meter,
    const MonteCarloCheckpoint& resume, int block_words) {
  MonteCarloResult res;
  fi::alloc_checkpoint();
  const sim::LoadClasses classes(nl.loads(cap));
  fi::alloc_checkpoint();
  sim::BlockSimulator bs(nl, block_words);
  const std::size_t n = nl.gate_count();
  const auto lanes = static_cast<std::size_t>(bs.lane_count());
  fi::alloc_checkpoint();
  sim::ToggleEnergy energy(classes, bs.words());
  std::vector<std::uint64_t> toggles(n * static_cast<std::size_t>(bs.words()));
  std::vector<std::uint64_t> w1(lanes), w2(lanes);
  std::vector<double> e_lane(lanes);
  stats::RunningStats rs =
      stats::RunningStats::restore(resume.count, resume.mean, resume.m2);

  bool stopped = false, budget_stop = false;
  while (rs.count() < max_pairs && !stopped) {
    // Never draw past a step quota: a quota-stopped run must leave the
    // shared generator at the same position as the scalar engine, or a
    // resumed run would diverge from an uninterrupted one.
    std::size_t batch = std::min(lanes, max_pairs - rs.count());
    if (meter) batch = std::min(batch, meter->steps_remaining());
    if (batch == 0) {  // quota exactly spent: the next pair's probe trips
      budget_stop = meter->over_budget(1);
      break;
    }
    // One probe pays for the whole block up front; a deadline/cancel trip
    // here costs nothing (the generator has not been advanced for this
    // block) and a quota trip is impossible (batch <= steps_remaining).
    if (meter && meter->over_budget(batch)) {
      budget_stop = true;
      break;
    }
    for (std::size_t k = 0; k < batch; ++k) {
      w1[k] = vector_gen();
      w2[k] = vector_gen();
    }
    simulate_pair_block(bs, energy, std::span(w1).first(batch),
                        std::span(w2).first(batch), toggles, e_lane.data());
    for (std::size_t k = 0; k < batch; ++k) {
      rs.add(e_lane[k]);
      if (rs.count() >= min_pairs &&
          ci_converged(rs, epsilon, confidence, res.ci_halfwidth)) {
        res.converged = true;
        stopped = true;
        break;
      }
    }
  }
  finish_monte_carlo(res, rs, confidence, budget_stop);
  return res;
}

MonteCarloResult monte_carlo_power_scalar(
    const netlist::Netlist& nl,
    const std::function<std::uint64_t()>& vector_gen, double epsilon,
    double confidence, std::size_t min_pairs, std::size_t max_pairs,
    const netlist::CapacitanceModel& cap, exec::Meter* meter,
    const MonteCarloCheckpoint& resume) {
  MonteCarloResult res;
  auto loads = nl.loads(cap);
  fi::alloc_checkpoint();
  sim::Simulator s(nl);
  fi::alloc_checkpoint();
  std::vector<std::uint8_t> prev(nl.gate_count(), 0);
  stats::RunningStats rs =
      stats::RunningStats::restore(resume.count, resume.mean, resume.m2);

  bool budget_stop = false;
  while (rs.count() < max_pairs) {
    if (meter && meter->over_budget(1)) {
      budget_stop = true;
      break;
    }
    // One independent vector pair: apply v1, settle, then v2, count.
    s.set_all_inputs(vector_gen());
    s.eval();
    for (netlist::GateId g = 0; g < nl.gate_count(); ++g)
      prev[g] = s.value(g) ? 1 : 0;
    s.set_all_inputs(vector_gen());
    s.eval();
    double e = 0.0;
    for (netlist::GateId g = 0; g < nl.gate_count(); ++g)
      if ((s.value(g) ? 1 : 0) != prev[g]) e += loads[g];
    rs.add(e);
    if (rs.count() >= min_pairs &&
        ci_converged(rs, epsilon, confidence, res.ci_halfwidth)) {
      res.converged = true;
      break;
    }
  }
  finish_monte_carlo(res, rs, confidence, budget_stop);
  return res;
}

MonteCarloResult monte_carlo_power_impl(
    const netlist::Module& mod,
    const std::function<std::uint64_t()>& vector_gen, double epsilon,
    double confidence, std::size_t min_pairs, std::size_t max_pairs,
    const netlist::CapacitanceModel& cap, const sim::SimOptions& opts,
    exec::Meter* meter, const MonteCarloCheckpoint& resume) {
  lint::enforce_module(mod, opts.lint, "monte_carlo_power");
  const auto& nl = mod.netlist;
  if (sim::resolve_engine(nl, opts.engine) == sim::EngineKind::Packed)
    return monte_carlo_power_packed(nl, vector_gen, epsilon, confidence,
                                    min_pairs, max_pairs, cap, meter, resume,
                                    opts.block_words);
  return monte_carlo_power_scalar(nl, vector_gen, epsilon, confidence,
                                  min_pairs, max_pairs, cap, meter, resume);
}

}  // namespace

MonteCarloResult monte_carlo_power(
    const netlist::Module& mod,
    const std::function<std::uint64_t()>& vector_gen, double epsilon,
    double confidence, std::size_t min_pairs, std::size_t max_pairs,
    const netlist::CapacitanceModel& cap, const sim::SimOptions& opts) {
  return monte_carlo_power_impl(mod, vector_gen, epsilon, confidence,
                                min_pairs, max_pairs, cap, opts, nullptr, {});
}

exec::Outcome<MonteCarloResult> monte_carlo_power_budgeted(
    const netlist::Module& mod,
    const std::function<std::uint64_t()>& vector_gen,
    const exec::Budget& budget, double epsilon, double confidence,
    std::size_t min_pairs, std::size_t max_pairs,
    const netlist::CapacitanceModel& cap, const sim::SimOptions& opts,
    const MonteCarloCheckpoint& resume) {
  exec::Meter meter(budget);
  exec::Outcome<MonteCarloResult> out;
  out.value = monte_carlo_power_impl(mod, vector_gen, epsilon, confidence,
                                     min_pairs, max_pairs, cap, opts, &meter,
                                     resume);
  out.diag = meter.diag();
  if (out.value.stop_reason == MonteCarloResult::StopReason::BudgetExhausted)
    out.diag.note = "partial estimate over " +
                    std::to_string(out.value.pairs) +
                    " pairs; resume via result.checkpoint";
  return out;
}

exec::Outcome<MonteCarloResult> monte_carlo_power_sharded(
    const netlist::Module& mod, std::uint64_t seed,
    const ShardedMcOptions& opts, const exec::Budget& budget,
    const netlist::CapacitanceModel& cap, const MonteCarloCheckpoint& resume) {
  lint::enforce_module(mod, opts.sim.lint, "monte_carlo_power_sharded");
  const auto& nl = mod.netlist;
  const sim::EngineKind engine = sim::resolve_engine(nl, opts.sim.engine);
  const int n_in = mod.total_input_bits();
  const std::size_t chunk = opts.chunk_pairs ? opts.chunk_pairs : 4096;
  const std::size_t total = opts.total_pairs;
  const std::size_t n_chunks = (total + chunk - 1) / chunk;
  fi::alloc_checkpoint();
  auto loads = nl.loads(cap);
  fi::alloc_checkpoint();
  // Immutable and shared by every worker; each keeps its own counter.
  const sim::LoadClasses classes(loads);
  fi::alloc_checkpoint();

  exec::Meter meter(budget);

  // Chunk scheduler state. Chunks are claimed strictly in index order and
  // the meter is charged a chunk's full pair count at claim time, so the
  // set of simulated chunks depends only on (quota, convergence) — never on
  // the thread schedule. Completed chunks merge in chunk order; together
  // with per-chunk seeds this makes every (threads, resume) configuration
  // bit-identical.
  std::mutex mu;
  std::size_t next_chunk = resume.count / chunk;
  std::size_t merged_upto = next_chunk;
  std::vector<std::optional<stats::RunningStats>> done(n_chunks);
  stats::RunningStats rs =
      stats::RunningStats::restore(resume.count, resume.mean, resume.m2);
  bool converged = false, budget_stop = false;
  double conv_hw = 0.0;

  auto claim = [&](std::size_t& c, std::size_t& pairs_c) {
    std::lock_guard<std::mutex> lk(mu);
    if (converged || budget_stop || next_chunk >= n_chunks) return false;
    const std::size_t begin = next_chunk * chunk;
    pairs_c = std::min(chunk, total - begin);
    if (meter.over_budget(pairs_c)) {
      budget_stop = true;  // chunk unpaid: stop before its generator exists
      return false;
    }
    c = next_chunk++;
    return true;
  };

  auto commit = [&](std::size_t c, const stats::RunningStats& rc) {
    std::lock_guard<std::mutex> lk(mu);
    done[c] = rc;
    while (merged_upto < n_chunks && done[merged_upto] && !converged) {
      rs.merge(*done[merged_upto]);
      ++merged_upto;
      if (opts.epsilon > 0.0 && rs.count() >= opts.min_pairs &&
          ci_converged(rs, opts.epsilon, opts.confidence, conv_hw))
        converged = true;  // chunks past this prefix are discarded
    }
  };

  auto worker = [&] {
    std::size_t c = 0, pairs_c = 0;
    if (engine == sim::EngineKind::Packed) {
      sim::BlockSimulator bs(nl, opts.sim.block_words);
      const auto lanes = static_cast<std::size_t>(bs.lane_count());
      sim::ToggleEnergy energy(classes, bs.words());
      std::vector<std::uint64_t> toggles(
          nl.gate_count() * static_cast<std::size_t>(bs.words()));
      std::vector<std::uint64_t> w1(lanes), w2(lanes);
      std::vector<double> e_lane(lanes);
      while (claim(c, pairs_c)) {
        stats::Rng rng(stats::shard_seed(seed, c));
        stats::RunningStats rc;
        for (std::size_t p = 0; p < pairs_c;) {
          const std::size_t batch = std::min(lanes, pairs_c - p);
          for (std::size_t k = 0; k < batch; ++k) {
            w1[k] = rng.uniform_bits(n_in);
            w2[k] = rng.uniform_bits(n_in);
          }
          simulate_pair_block(bs, energy, std::span(w1).first(batch),
                              std::span(w2).first(batch), toggles,
                              e_lane.data());
          for (std::size_t k = 0; k < batch; ++k) rc.add(e_lane[k]);
          p += batch;
        }
        commit(c, rc);
      }
    } else {
      sim::Simulator s(nl);
      std::vector<std::uint8_t> prev(nl.gate_count(), 0);
      while (claim(c, pairs_c)) {
        stats::Rng rng(stats::shard_seed(seed, c));
        stats::RunningStats rc;
        for (std::size_t p = 0; p < pairs_c; ++p) {
          s.set_all_inputs(rng.uniform_bits(n_in));
          s.eval();
          for (netlist::GateId g = 0; g < nl.gate_count(); ++g)
            prev[g] = s.value(g) ? 1 : 0;
          s.set_all_inputs(rng.uniform_bits(n_in));
          s.eval();
          double e = 0.0;
          for (netlist::GateId g = 0; g < nl.gate_count(); ++g)
            if ((s.value(g) ? 1 : 0) != prev[g]) e += loads[g];
          rc.add(e);
        }
        commit(c, rc);
      }
    }
  };

  int threads = opts.threads;
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw ? static_cast<int>(hw) : 1;
  }
  const std::size_t open_chunks = n_chunks - std::min(next_chunk, n_chunks);
  if (open_chunks < static_cast<std::size_t>(threads))
    threads = open_chunks ? static_cast<int>(open_chunks) : 1;
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  MonteCarloResult res;
  res.converged = converged;
  if (converged) res.ci_halfwidth = conv_hw;
  finish_monte_carlo(res, rs, opts.confidence, budget_stop);
  exec::Outcome<MonteCarloResult> out;
  out.value = res;
  out.diag = meter.diag();
  if (res.stop_reason == MonteCarloResult::StopReason::BudgetExhausted)
    out.diag.note = "partial estimate over " + std::to_string(res.pairs) +
                    " pairs; resume via result.checkpoint";
  return out;
}

}  // namespace hlp::core
