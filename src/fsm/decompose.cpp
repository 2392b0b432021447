#include "fsm/decompose.hpp"

#include <algorithm>
#include <cassert>

#include "fsm/encoding.hpp"
#include "fsm/synth.hpp"
#include "sim/power.hpp"
#include "sim/simulator.hpp"

namespace hlp::fsm {


double crossing_probability(const Stg& stg, const MarkovAnalysis& ma,
                            const Partition& part) {
  double p = 0.0;
  for (std::size_t i = 0; i < stg.num_states(); ++i)
    for (std::size_t j = 0; j < stg.num_states(); ++j)
      if (part[i] != part[j]) p += ma.edge_prob(static_cast<StateId>(i),
                                                static_cast<StateId>(j));
  return p;
}

Partition partition_min_crossing(const Stg& stg, const MarkovAnalysis& ma,
                                 double min_fraction) {
  const std::size_t n = stg.num_states();
  Partition part(n, 0);
  for (std::size_t s = n / 2; s < n; ++s) part[s] = 1;
  auto min_block = static_cast<std::size_t>(
      std::max(1.0, min_fraction * static_cast<double>(n)));

  double cur = crossing_probability(stg, ma, part);
  bool improved = true;
  int guard = 0;
  while (improved && guard++ < 64) {
    improved = false;
    // Single moves.
    for (std::size_t s = 0; s < n; ++s) {
      std::size_t size0 = static_cast<std::size_t>(
          std::count(part.begin(), part.end(), 0));
      std::size_t from_size = part[s] == 0 ? size0 : n - size0;
      if (from_size <= min_block) continue;
      part[s] ^= 1;
      double next = crossing_probability(stg, ma, part);
      if (next < cur - 1e-15) {
        cur = next;
        improved = true;
      } else {
        part[s] ^= 1;
      }
    }
    // Pair swaps (balance preserving).
    for (std::size_t a = 0; a < n && !improved; ++a)
      for (std::size_t b = a + 1; b < n; ++b) {
        if (part[a] == part[b]) continue;
        std::swap(part[a], part[b]);
        double next = crossing_probability(stg, ma, part);
        if (next < cur - 1e-15) {
          cur = next;
          improved = true;
          break;
        }
        std::swap(part[a], part[b]);
      }
  }
  return part;
}

std::vector<SubMachine> build_submachines(const Stg& stg,
                                          const Partition& part) {
  std::vector<SubMachine> subs;
  for (int b = 0; b < 2; ++b) {
    SubMachine sm;
    for (std::size_t s = 0; s < stg.num_states(); ++s)
      if (part[s] == b) sm.members.push_back(static_cast<StateId>(s));
    sm.stg = Stg(stg.n_inputs(), stg.n_outputs());
    std::vector<StateId> sub_id(stg.num_states(), 0);
    for (std::size_t i = 0; i < sm.members.size(); ++i) {
      sm.stg.add_state(stg.state_name(sm.members[i]));
      sub_id[sm.members[i]] = static_cast<StateId>(i);
    }
    sm.wait = sm.stg.add_state("wait");

    for (std::size_t i = 0; i < sm.members.size(); ++i) {
      StateId orig = sm.members[i];
      for (std::uint64_t a = 0; a < stg.n_symbols(); ++a) {
        StateId nxt = stg.next(orig, a);
        std::uint64_t out = stg.output(orig, a);
        StateId to = (part[nxt] == b) ? sub_id[nxt] : sm.wait;
        sm.stg.set_transition(static_cast<StateId>(i), a, to, out);
      }
    }
    sm.stg.set_all_transitions(sm.wait, sm.wait, 0);
    subs.push_back(std::move(sm));
  }
  return subs;
}

DecompositionEval evaluate_decomposition(const Stg& stg,
                                         const Partition& part,
                                         std::size_t cycles,
                                         std::uint64_t seed,
                                         std::span<const double> input_probs) {
  DecompositionEval ev;
  sim::PowerParams pp;

  // Monolithic reference.
  auto ma = analyze_markov(stg, input_probs);
  auto codes = encode_states(stg, EncodingStyle::Binary, &ma);
  auto mono = synthesize_fsm(stg, codes,
                             encoding_bits(EncodingStyle::Binary,
                                           stg.num_states()));
  ev.mono_gates = mono.netlist.logic_gate_count();

  // Global reference run: states, inputs, outputs.
  stats::Rng rng(seed);
  std::vector<std::uint64_t> inputs, outputs;
  auto states =
      simulate_states(stg, cycles, rng, input_probs, 0, &inputs, &outputs);

  // synthesize_fsm adds the symbol bits as the first inputs, in order.
  ev.mono_power =
      sim::compute_power(
          mono.netlist,
          sim::simulate_activities(mono.netlist, {stg.n_inputs(), inputs}),
          pp)
          .power_with_clock();

  // Submachines with selective clocking.
  auto subs = build_submachines(stg, part);
  std::vector<StateId> sub_id(stg.num_states(), 0);
  for (int b = 0; b < 2; ++b)
    for (std::size_t i = 0; i < subs[static_cast<std::size_t>(b)].members.size(); ++i)
      sub_id[subs[static_cast<std::size_t>(b)].members[i]] =
          static_cast<StateId>(i);

  std::size_t crossings = 0;
  double total_power = 0.0;
  int max_state_bits = 0;
  for (int b = 0; b < 2; ++b) {
    auto& sm = subs[static_cast<std::size_t>(b)];
    auto sma = analyze_markov(sm.stg);
    auto scodes = encode_states(sm.stg, EncodingStyle::Binary, &sma);
    int sbits = encoding_bits(EncodingStyle::Binary, sm.stg.num_states());
    auto sf = synthesize_fsm(sm.stg, scodes, sbits);
    max_state_bits = std::max(max_state_bits, sbits);

    // Wake interface: go strobe + target code muxed into the state DFFs.
    netlist::Netlist& nl = sf.netlist;
    netlist::GateId go = nl.add_input("go");
    netlist::Word tgt;
    for (int k = 0; k < sbits; ++k)
      tgt.push_back(nl.add_input("tgt[" + std::to_string(k) + "]"));
    for (int k = 0; k < sbits; ++k) {
      netlist::GateId dff = sf.state[static_cast<std::size_t>(k)];
      netlist::GateId d_old = nl.gate(dff).fanins[0];
      netlist::GateId d_new =
          nl.add_mux(go, d_old, tgt[static_cast<std::size_t>(k)]);
      nl.set_dff_input(dff, d_new);
    }
    ev.sub_gates[b] = nl.logic_gate_count();

    sim::Simulator s(nl);
    auto loads = nl.loads(pp.cap);
    std::vector<std::uint8_t> prev(nl.gate_count(), 0);

    // Park this machine in WAIT if its block is not active at reset, using
    // the wake interface in reverse (load the WAIT code directly).
    s.set_word(sf.inputs, 0);
    s.set_input(go, part[states[0]] != b);
    s.set_word(tgt, scodes[sm.wait]);
    s.eval();
    s.tick();
    if (part[states[0]] == b) {
      // Reload the true initial state (reset already points there).
      s.set_input(go, true);
      s.set_word(tgt, scodes[sub_id[states[0]]]);
      s.eval();
      s.tick();
    }
    s.set_input(go, false);
    s.set_word(tgt, 0);
    s.eval();
    for (netlist::GateId g = 0; g < nl.gate_count(); ++g)
      prev[g] = s.value(g) ? 1 : 0;

    double switched = 0.0;
    std::size_t clocked = 0;
    for (std::size_t c = 0; c < cycles; ++c) {
      bool active = part[states[c]] == b;
      bool wake = !active && c + 1 < cycles && part[states[c + 1]] == b;
      if (!active && !wake) continue;  // clock gated, inputs frozen

      if (active) {
        s.set_word(sf.inputs, inputs[c]);
        s.set_input(go, false);
        s.set_word(tgt, 0);
      } else {
        s.set_input(go, true);
        s.set_word(tgt, scodes[sub_id[states[c + 1]]]);
      }
      s.eval();
      ++clocked;
      for (netlist::GateId g = 0; g < nl.gate_count(); ++g) {
        std::uint8_t v = s.value(g) ? 1 : 0;
        if (v != prev[g]) switched += loads[g];
        prev[g] = v;
      }
      if (active) {
        if (s.word_value(sf.outputs) != outputs[c])
          ev.functionally_correct = false;
        if (c + 1 < cycles && part[states[c + 1]] != b) ++crossings;
      }
      s.tick();
    }
    double denom = static_cast<double>(cycles);
    ev.active_fraction[b] = static_cast<double>(clocked) / denom;
    double logic = 0.5 * pp.vdd * pp.vdd * pp.freq * switched / denom;
    double clock = pp.vdd * pp.vdd * pp.freq * pp.cap.dff_clock_cap *
                   static_cast<double>(nl.dffs().size()) *
                   ev.active_fraction[b];
    total_power += logic + clock;
  }
  // Inter-machine lines (go + target code) load both ends and switch at
  // each crossing.
  double comm_lines = 2.0 * (1.0 + max_state_bits);
  ev.crossing_rate =
      static_cast<double>(crossings) / static_cast<double>(cycles);
  total_power += 0.5 * pp.vdd * pp.vdd * pp.freq * ev.crossing_rate *
                 comm_lines * 2.0 * pp.cap.input_pin_cap;
  ev.decomposed_power = total_power;
  return ev;
}

}  // namespace hlp::fsm
