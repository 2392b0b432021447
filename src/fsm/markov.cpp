#include "fsm/markov.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "exec/fi.hpp"

namespace hlp::fsm {

std::size_t MarkovAnalysis::nonzero_edges() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < cond.size(); ++i)
    for (std::size_t j = 0; j < cond[i].size(); ++j)
      if (state_prob[i] * cond[i][j] > 0.0) ++n;
  return n;
}

double MarkovAnalysis::edge_entropy() const {
  double h = 0.0;
  for (std::size_t i = 0; i < cond.size(); ++i)
    for (std::size_t j = 0; j < cond[i].size(); ++j) {
      double p = state_prob[i] * cond[i][j];
      if (p > 0.0) h -= p * std::log2(p);
    }
  return h;
}

namespace {

void validate_input_probs(std::span<const double> input_probs,
                          std::size_t sym) {
  if (input_probs.empty()) return;
  if (input_probs.size() != sym)
    throw std::invalid_argument(
        "analyze_markov: input_probs has " +
        std::to_string(input_probs.size()) + " entries but the STG has " +
        std::to_string(sym) + " input symbols");
  double sum = 0.0;
  for (double p : input_probs) {
    if (p < 0.0)
      throw std::invalid_argument(
          "analyze_markov: input_probs contains a negative probability (" +
          std::to_string(p) + ")");
    sum += p;
  }
  if (std::abs(sum - 1.0) > 1e-6)
    throw std::invalid_argument(
        "analyze_markov: input_probs sums to " + std::to_string(sum) +
        ", expected 1 (within 1e-6) over " + std::to_string(sym) +
        " symbols");
}

MarkovAnalysis analyze_markov_impl(const Stg& stg,
                                   std::span<const double> input_probs,
                                   int max_iters, double tol,
                                   exec::Meter* meter) {
  const std::size_t n = stg.num_states();
  const std::size_t sym = stg.n_symbols();
  validate_input_probs(input_probs, sym);
  MarkovAnalysis ma;
  fi::alloc_checkpoint();
  ma.cond.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t a = 0; a < sym; ++a) {
      double pa = input_probs.empty() ? 1.0 / static_cast<double>(sym)
                                      : input_probs[a];
      ma.cond[s][stg.next(static_cast<StateId>(s), a)] += pa;
    }
  ma.state_prob.assign(n, 1.0 / static_cast<double>(n));
  fi::alloc_checkpoint();
  std::vector<double> nxt(n);
  for (int it = 0; it < max_iters; ++it) {
    // The probe keeps the best iterate so far on a trip: ma.state_prob is
    // always a valid (normalized) distribution, just not yet stationary.
    if (meter && meter->over_budget(1)) break;
    std::fill(nxt.begin(), nxt.end(), 0.0);
    for (std::size_t s = 0; s < n; ++s) {
      if (ma.state_prob[s] == 0.0) continue;
      for (std::size_t t = 0; t < n; ++t)
        nxt[t] += ma.state_prob[s] * ma.cond[s][t];
    }
    double diff = 0.0;
    for (std::size_t s = 0; s < n; ++s)
      diff += std::abs(nxt[s] - ma.state_prob[s]);
    ma.state_prob.swap(nxt);
    ma.residual = diff;
    ma.iterations = it + 1;
    if (diff < tol) {
      ma.converged = true;
      break;
    }
  }
  return ma;
}

}  // namespace

MarkovAnalysis analyze_markov(const Stg& stg,
                              std::span<const double> input_probs,
                              int max_iters) {
  return analyze_markov_impl(stg, input_probs, max_iters, 1e-12, nullptr);
}

exec::Outcome<MarkovAnalysis> analyze_markov_budgeted(
    const Stg& stg, const exec::Budget& budget,
    std::span<const double> input_probs, int max_iters, double tol) {
  exec::Meter meter(budget);
  exec::Outcome<MarkovAnalysis> out;
  out.value = analyze_markov_impl(stg, input_probs, max_iters, tol, &meter);
  out.diag = meter.diag();
  if (!out.value.converged && out.diag.stop == exec::StopReason::None)
    out.diag.note = "did not converge within " + std::to_string(max_iters) +
                    " sweeps (residual " + std::to_string(out.value.residual) +
                    ")";
  if (out.diag.stop != exec::StopReason::None)
    out.diag.note = "stopped after " + std::to_string(out.value.iterations) +
                    " sweeps (residual " + std::to_string(out.value.residual) +
                    "); state_prob is the best iterate, not the steady state";
  return out;
}

double expected_code_switching(const MarkovAnalysis& ma,
                               std::span<const std::uint64_t> codes) {
  double total = 0.0;
  for (std::size_t i = 0; i < ma.cond.size(); ++i) {
    if (ma.state_prob[i] == 0.0) continue;
    for (std::size_t j = 0; j < ma.cond[i].size(); ++j) {
      double p = ma.state_prob[i] * ma.cond[i][j];
      if (p == 0.0) continue;
      total += p * static_cast<double>(std::popcount(codes[i] ^ codes[j]));
    }
  }
  return total;
}

std::vector<StateId> simulate_states(const Stg& stg, std::size_t cycles,
                                     stats::Rng& rng,
                                     std::span<const double> input_probs,
                                     StateId start,
                                     std::vector<std::uint64_t>* inputs,
                                     std::vector<std::uint64_t>* outputs) {
  std::vector<StateId> seq;
  seq.reserve(cycles);
  if (inputs) inputs->clear();
  if (outputs) outputs->clear();
  StateId s = start;
  const std::size_t sym = stg.n_symbols();
  for (std::size_t c = 0; c < cycles; ++c) {
    seq.push_back(s);
    std::uint64_t a;
    if (input_probs.empty()) {
      a = static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sym) - 1));
    } else {
      double u = rng.uniform_real();
      std::size_t pick = 0;
      double acc = 0.0;
      for (std::size_t k = 0; k < sym; ++k) {
        acc += input_probs[k];
        if (u <= acc) {
          pick = k;
          break;
        }
        pick = k;
      }
      a = pick;
    }
    if (inputs) inputs->push_back(a);
    if (outputs) outputs->push_back(stg.output(s, a));
    s = stg.next(s, a);
  }
  return seq;
}

}  // namespace hlp::fsm
