#include "core/fsm_encoding_power.hpp"

#include "fsm/markov.hpp"
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
  // state-register switching (the state DFFs start at codes[0], so cycle 0
  // adds no toggle).
  stats::Rng rng(seed + 17);
  stats::VectorStream in{stg.n_inputs(), {}};
  fsm::simulate_states(stg, cycles, rng, input_probs, 0, &in.words, nullptr);
  std::vector<std::uint64_t> toggles;
  sim::sweep_stream(sf.netlist, in, {}, &toggles, nullptr, nullptr, nullptr);
  std::uint64_t state_toggles = 0;
  for (netlist::GateId q : sf.state) state_toggles += toggles[q];
  rep.simulated_power =
      sim::compute_power(sf.netlist, sim::toggle_activities(toggles, cycles),
                         params)
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
