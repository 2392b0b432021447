#include "core/sampling_power.hpp"

#include <algorithm>
#include <charconv>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exec/fi.hpp"
#include "sim/block_simulator.hpp"
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

/// A budgeted run's outcome: the meter's diagnostics, and for a budget
/// stop a note on how to resume.
exec::Outcome<MonteCarloResult> budgeted_outcome(const MonteCarloResult& res,
                                                 const exec::Meter& meter) {
  exec::Outcome<MonteCarloResult> out;
  out.value = res;
  out.diag = meter.diag();
  if (res.stop_reason == MonteCarloResult::StopReason::BudgetExhausted)
    out.diag.note = "partial estimate over " + std::to_string(res.pairs) +
                    " pairs; resume via result.checkpoint";
  return out;
}

/// The pair backend: 64·W independent vector pairs per step, pair k in bit
/// lane k of a W-word block (replica lanes), energies counted from the two
/// evaluations' lane words in place. Registers are never clocked: reset()
/// puts `dff_init` in every register lane and swap_lanes() carries it over,
/// so every pair sees the registers at their initial state.
class PackedPairs {
 public:
  PackedPairs(const netlist::Netlist& nl, const sim::LoadClasses& classes,
              int block_words)
      : bs_(nl, block_words), energy_(classes, bs_.words()) {}

  std::size_t lanes() const {
    return static_cast<std::size_t>(bs_.lane_count());
  }

  void simulate(std::span<const std::uint64_t> w1,
                std::span<const std::uint64_t> w2, double* e) {
    bs_.set_inputs_from_cycles(w1);
    bs_.eval();
    bs_.swap_lanes();
    bs_.set_inputs_from_cycles(w2);
    bs_.eval();
    energy_.energies(bs_.previous_lanes(), bs_.lanes(), w1.size(), e);
  }

 private:
  sim::BlockSimulator bs_;
  sim::ToggleEnergy energy_;
};

/// One thread's pair sampler. `run` is the one Monte Carlo pair loop: until
/// `next_batch()` returns 0 (it never returns more than lanes()), have
/// `draw` fill 2·batch vectors in (v1_k, v2_k) order, simulate those pairs,
/// and pass each energy to `take` in draw order; `take` returns false to
/// stop.
class PairSampler {
 public:
  PairSampler(const netlist::Netlist& nl, const sim::LoadClasses& classes,
              int block_words)
      : pairs_(nl, classes, block_words),
        drawn_(2 * pairs_.lanes()),
        w1_(pairs_.lanes()),
        w2_(pairs_.lanes()),
        e_(pairs_.lanes()) {}

  std::size_t lanes() const { return pairs_.lanes(); }

  template <typename NextBatch, typename Draw, typename Take>
  void run(NextBatch&& next_batch, Draw&& draw, Take&& take) {
    while (const std::size_t batch = next_batch()) {
      draw(std::span(drawn_).first(2 * batch));
      for (std::size_t k = 0; k < batch; ++k) {
        w1_[k] = drawn_[2 * k];
        w2_[k] = drawn_[2 * k + 1];
      }
      pairs_.simulate(std::span(w1_).first(batch),
                      std::span(w2_).first(batch), e_.data());
      for (std::size_t k = 0; k < batch; ++k)
        if (!take(e_[k])) return;
    }
  }

 private:
  PackedPairs pairs_;
  std::vector<std::uint64_t> drawn_, w1_, w2_;
  std::vector<double> e_;
};

/// The sequential estimator; `draw` fills a span with successive vectors.
/// Each batch is paid for in one meter probe before it is drawn and never
/// exceeds the remaining step quota, so a trip costs no draws and a quota
/// stop leaves the generator where a one-pair-per-step run would. The stop
/// rule runs per pair in draw order, so every block width stops on the
/// same pair.
template <typename Draw>
MonteCarloResult sequential_monte_carlo(
    const netlist::Module& mod, Draw&& draw, double epsilon, double confidence,
    std::size_t min_pairs, std::size_t max_pairs,
    const netlist::CapacitanceModel& cap, const sim::SimOptions& opts,
    exec::Meter* meter, const MonteCarloCheckpoint& resume) {
  const auto& nl = mod.netlist;
  fi::alloc_checkpoint();
  const sim::LoadClasses classes(nl.loads(cap));
  fi::alloc_checkpoint();
  PairSampler sampler(nl, classes, opts.block_words);
  stats::RunningStats rs =
      stats::RunningStats::restore(resume.count, resume.mean, resume.m2);
  MonteCarloResult res;
  bool budget_stop = false;
  sampler.run(
      [&]() -> std::size_t {
        if (rs.count() >= max_pairs) return 0;
        const std::size_t batch =
            std::min(sampler.lanes(), max_pairs - rs.count());
        if (!meter) return batch;
        // A spent quota gives 0 here, and the one-pair probe trips it.
        const std::size_t paid = std::min(batch, meter->steps_remaining());
        budget_stop = meter->over_budget(std::max<std::size_t>(paid, 1));
        return budget_stop ? 0 : paid;
      },
      draw,
      [&](double e) {
        rs.add(e);
        res.converged =
            rs.count() >= min_pairs &&
            ci_converged(rs, epsilon, confidence, res.ci_halfwidth);
        return !res.converged;
      });
  finish_monte_carlo(res, rs, confidence, budget_stop);
  return res;
}

/// A user generator, one call per vector.
auto per_word(const std::function<std::uint64_t()>& vector_gen) {
  return [&vector_gen](std::span<std::uint64_t> out) {
    for (std::uint64_t& w : out) w = vector_gen();
  };
}

/// uniform_bits(width) vectors from `rng`, one bulk draw per batch.
auto bulk(stats::Rng& rng, int width) {
  return [&rng, width](std::span<std::uint64_t> out) {
    rng.fill_packed(out, width);
  };
}

}  // namespace

MonteCarloResult monte_carlo_power(
    const netlist::Module& mod,
    const std::function<std::uint64_t()>& vector_gen, double epsilon,
    double confidence, std::size_t min_pairs, std::size_t max_pairs,
    const netlist::CapacitanceModel& cap, const sim::SimOptions& opts) {
  return sequential_monte_carlo(mod, per_word(vector_gen), epsilon,
                                confidence, min_pairs, max_pairs, cap, opts,
                                nullptr, {});
}

exec::Outcome<MonteCarloResult> monte_carlo_power_budgeted(
    const netlist::Module& mod,
    const std::function<std::uint64_t()>& vector_gen,
    const exec::Budget& budget, double epsilon, double confidence,
    std::size_t min_pairs, std::size_t max_pairs,
    const netlist::CapacitanceModel& cap, const sim::SimOptions& opts,
    const MonteCarloCheckpoint& resume) {
  exec::Meter meter(budget);
  return budgeted_outcome(
      sequential_monte_carlo(mod, per_word(vector_gen), epsilon, confidence,
                             min_pairs, max_pairs, cap, opts, &meter, resume),
      meter);
}

exec::Outcome<MonteCarloResult> monte_carlo_power_budgeted(
    const netlist::Module& mod, stats::Rng& rng, const exec::Budget& budget,
    double epsilon, double confidence, std::size_t min_pairs,
    std::size_t max_pairs, const netlist::CapacitanceModel& cap,
    const sim::SimOptions& opts, const MonteCarloCheckpoint& resume) {
  exec::Meter meter(budget);
  return budgeted_outcome(
      sequential_monte_carlo(mod, bulk(rng, mod.total_input_bits()), epsilon,
                             confidence, min_pairs, max_pairs, cap, opts,
                             &meter, resume),
      meter);
}

exec::Outcome<MonteCarloResult> monte_carlo_power_sharded(
    const netlist::Module& mod, std::uint64_t seed,
    const ShardedMcOptions& opts, const exec::Budget& budget,
    const netlist::CapacitanceModel& cap, const MonteCarloCheckpoint& resume) {
  const auto& nl = mod.netlist;
  const int n_in = mod.total_input_bits();
  const std::size_t chunk = opts.chunk_pairs ? opts.chunk_pairs : 4096;
  const std::size_t total = opts.total_pairs;
  const std::size_t n_chunks = (total + chunk - 1) / chunk;
  fi::alloc_checkpoint();
  // Immutable and shared by every worker; each keeps its own counter.
  const sim::LoadClasses classes(nl.loads(cap));
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
    PairSampler sampler(nl, classes, opts.sim.block_words);
    std::size_t c = 0, pairs_c = 0;
    while (claim(c, pairs_c)) {
      stats::Rng rng(stats::shard_seed(seed, c));
      stats::RunningStats rc;
      std::size_t left = pairs_c;
      sampler.run(
          [&] {
            const std::size_t batch = std::min(sampler.lanes(), left);
            left -= batch;
            return batch;
          },
          bulk(rng, n_in),
          [&](double e) {
            rc.add(e);
            return true;
          });
      commit(c, rc);
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
  return budgeted_outcome(res, meter);
}

}  // namespace hlp::core
