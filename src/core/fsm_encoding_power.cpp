#include "core/fsm_encoding_power.hpp"

#include <bit>

#include "sim/simulator.hpp"

namespace hlp::core {

const char* encoding_style_name(fsm::EncodingStyle s) {
  switch (s) {
    case fsm::EncodingStyle::Binary: return "binary";
    case fsm::EncodingStyle::Gray: return "gray";
    case fsm::EncodingStyle::OneHot: return "one-hot";
    case fsm::EncodingStyle::Random: return "random";
    case fsm::EncodingStyle::LowPower: return "low-power";
  }
  return "?";
}

EncodingReport evaluate_encoding(const fsm::Stg& stg,
                                 fsm::EncodingStyle style,
                                 const fsm::MarkovAnalysis& ma,
                                 std::size_t cycles, std::uint64_t seed,
                                 std::span<const double> input_probs,
                                 const sim::PowerParams& params) {
  EncodingReport rep;
  rep.style = encoding_style_name(style);
  rep.state_bits = fsm::encoding_bits(style, stg.num_states());
  auto codes = fsm::encode_states(stg, style, &ma, seed);
  rep.expected_switching = fsm::expected_code_switching(ma, codes);

  auto sf = fsm::synthesize_fsm(stg, codes, rep.state_bits);
  rep.gates = sf.netlist.logic_gate_count();

  // Drive with random symbols; measure gate-level power and actual
  // state-register switching.
  stats::Rng rng(seed + 17);
  // The state recurrence is serial, so it runs scalar.
  sim::Simulator s(sf.netlist);
  sim::ActivityCollector col(sf.netlist);
  std::uint64_t prev_state = codes[0];
  std::uint64_t state_toggles = 0;
  const std::size_t sym = stg.n_symbols();
  for (std::size_t c = 0; c < cycles; ++c) {
    std::uint64_t a;
    if (input_probs.empty()) {
      a = static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sym) - 1));
    } else {
      double u = rng.uniform_real();
      double acc = 0.0;
      a = sym - 1;
      for (std::size_t k = 0; k < sym; ++k) {
        acc += input_probs[k];
        if (u <= acc) {
          a = k;
          break;
        }
      }
    }
    s.set_word(sf.inputs, a);
    s.eval();
    col.record(s);
    std::uint64_t st = s.word_value(sf.state);
    state_toggles += static_cast<std::uint64_t>(
        std::popcount(st ^ prev_state));
    prev_state = st;
    s.tick();
  }
  rep.simulated_power =
      sim::compute_power(sf.netlist, col.activities(), params)
          .power_with_clock();
  rep.simulated_state_switching =
      cycles > 1 ? static_cast<double>(state_toggles) /
                       static_cast<double>(cycles - 1)
                 : 0.0;
  return rep;
}

std::vector<EncodingReport> compare_encodings(
    const fsm::Stg& stg, std::size_t cycles, std::uint64_t seed,
    std::span<const double> input_probs, const sim::PowerParams& params) {
  auto ma = fsm::analyze_markov(stg, input_probs);
  std::vector<EncodingReport> out;
  for (auto style : {fsm::EncodingStyle::Binary, fsm::EncodingStyle::Gray,
                     fsm::EncodingStyle::OneHot, fsm::EncodingStyle::Random,
                     fsm::EncodingStyle::LowPower})
    out.push_back(evaluate_encoding(stg, style, ma, cycles, seed,
                                    input_probs, params));
  return out;
}

}  // namespace hlp::core
