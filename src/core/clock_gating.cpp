#include "core/clock_gating.hpp"

#include <vector>

#include "fsm/markov.hpp"
#include "sim/simulator.hpp"

namespace hlp::core {

using netlist::GateId;
using netlist::GateKind;

ClockGatingResult evaluate_clock_gating(const fsm::Stg& stg,
                                        const fsm::SynthesizedFsm& fsmnl,
                                        std::size_t cycles, stats::Rng& rng,
                                        std::span<const double> input_probs,
                                        const sim::PowerParams& params) {
  ClockGatingResult res;
  // Rebuild the machine so the activation logic can be appended.
  fsm::SynthesizedFsm gated =
      fsm::synthesize_fsm(stg, fsmnl.codes, fsmnl.state_bits);
  netlist::Netlist& nl = gated.netlist;
  const std::size_t watermark = nl.gate_count();

  // F_a: two-level cover of self-looping (state, symbol) pairs, reusing the
  // machine's existing AND plane (a synthesis tool would share these terms;
  // standalone re-implementation would overstate the gating overhead).
  std::vector<GateId> terms;
  for (std::size_t s = 0; s < stg.num_states(); ++s)
    for (std::size_t a = 0; a < stg.n_symbols(); ++a)
      if (stg.next(static_cast<fsm::StateId>(s), a) ==
          static_cast<fsm::StateId>(s))
        terms.push_back(gated.terms[s][a]);
  GateId fa;
  if (terms.empty())
    fa = nl.add_const(false);
  else if (terms.size() == 1)
    fa = nl.add_unary(GateKind::Buf, terms[0], "Fa");
  else
    fa = nl.add_gate(GateKind::Or, terms, "Fa");
  // Gating latch L modeled as one extra load on F_a.
  nl.add_extra_cap(fa, params.cap.dff_pin_cap);
  nl.mark_output(fa, "Fa");
  res.fa_gates = nl.gate_count() - watermark;

  // Simulate. F_a holds exactly on the walk's self-loop cycles.
  stats::VectorStream in{stg.n_inputs(), {}};
  const auto states = fsm::simulate_states(stg, cycles, rng, input_probs, 0,
                                           &in.words, nullptr);
  std::size_t idle = 0;
  for (std::size_t c = 0; c < cycles; ++c)
    if (stg.next(states[c], in.words[c]) == states[c]) ++idle;

  auto rep = sim::compute_power(nl, sim::simulate_activities(nl, in), params);
  double logic_sc = 0.0, fa_sc = 0.0;
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    if (g < watermark)
      logic_sc += rep.gate_energy[g];
    else
      fa_sc += rep.gate_energy[g];
  }
  double vv = 0.5 * params.vdd * params.vdd * params.freq;
  res.idle_fraction =
      cycles ? static_cast<double>(idle) / static_cast<double>(cycles) : 0.0;
  res.base_power = vv * logic_sc + rep.clock_power;
  res.gated_power = vv * (logic_sc + fa_sc) +
                    rep.clock_power * (1.0 - res.idle_fraction);
  return res;
}

}  // namespace hlp::core
