#include "core/bus_codec.hpp"

#include <bit>
#include <limits>

#include "netlist/words.hpp"
#include "sim/simulator.hpp"

namespace hlp::core {

using netlist::GateId;
using netlist::GateKind;
using netlist::Word;

BusInvertCodec build_bus_invert_codec(int width) {
  BusInvertCodec c;
  c.width = width;
  netlist::Netlist& nl = c.netlist;

  c.data_in = netlist::make_input_word(nl, width, "d");
  // Bus register (previous transmitted state) + INV line.
  for (int i = 0; i < width; ++i)
    c.bus.push_back(nl.add_dff(netlist::kNullGate, false,
                               "bus[" + std::to_string(i) + "]"));
  c.inv = nl.add_dff(netlist::kNullGate, false, "inv");

  // Hamming distance between the incoming word and the current bus data.
  Word diff = netlist::xor_word(nl, c.data_in, c.bus);
  // Popcount adder tree over the diff bits.
  std::vector<Word> sums;
  for (GateId d : diff) sums.push_back(Word{d});
  while (sums.size() > 1) {
    std::vector<Word> next;
    for (std::size_t i = 0; i + 1 < sums.size(); i += 2) {
      Word a = sums[i], b = sums[i + 1];
      while (a.size() < b.size()) a.push_back(nl.add_const(false));
      while (b.size() < a.size()) b.push_back(nl.add_const(false));
      GateId cout = netlist::kNullGate;
      Word s = netlist::ripple_adder(nl, a, b, netlist::kNullGate, &cout);
      s.push_back(cout);
      next.push_back(std::move(s));
    }
    if (sums.size() % 2) next.push_back(sums.back());
    sums = std::move(next);
  }
  Word count = sums[0];
  // invert = count > N/2  <=>  N/2 < count.
  Word half = netlist::make_const_word(nl, static_cast<int>(count.size()),
                                       static_cast<std::uint64_t>(width / 2));
  GateId invert = netlist::less_than(nl, half, count);

  // Transmitted data and next bus state.
  Word tx;
  for (int i = 0; i < width; ++i)
    tx.push_back(nl.add_binary(GateKind::Xor,
                               c.data_in[static_cast<std::size_t>(i)],
                               invert));
  for (int i = 0; i < width; ++i)
    nl.set_dff_input(c.bus[static_cast<std::size_t>(i)],
                     tx[static_cast<std::size_t>(i)]);
  nl.set_dff_input(c.inv, invert);

  // Receiver: XOR bank off the registered bus.
  for (int i = 0; i < width; ++i) {
    GateId y = nl.add_binary(GateKind::Xor,
                             c.bus[static_cast<std::size_t>(i)], c.inv,
                             "y[" + std::to_string(i) + "]");
    nl.mark_output(y, "y[" + std::to_string(i) + "]");
    c.decoded.push_back(y);
  }
  return c;
}

double CodecEval::breakeven_cbus() const {
  double saved = bus_transitions_binary - bus_transitions_bi;
  if (saved <= 0.0) return std::numeric_limits<double>::infinity();
  return codec_cap_per_word / saved;
}

CodecEval evaluate_bus_invert_codec(const BusInvertCodec& codec,
                                    const std::vector<std::uint64_t>& words,
                                    const netlist::CapacitanceModel& cap) {
  CodecEval ev;
  const netlist::Netlist& nl = codec.netlist;
  const std::uint64_t mask =
      codec.width >= 64 ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << codec.width) - 1);
  stats::VectorStream in{codec.width, {}};
  in.words.reserve(words.size());
  for (std::uint64_t w : words) in.words.push_back(w & mask);

  std::vector<std::uint64_t> toggles;
  stats::VectorStream out;
  sim::sweep_stream(nl, in, {}, &toggles, nullptr, nullptr, &out);
  // The receiver reproduces each word one cycle late.
  for (std::size_t t = 1; t < out.words.size(); ++t)
    if (out.words[t] != in.words[t - 1]) ev.functionally_correct = false;

  if (words.size() > 2) {
    // Skip the reset transient (the bus register powers up cleared): the
    // bus and INV toggles into cycles 2.. are the whole sweep's less those
    // of a sweep of the first two words, which runs the same two cycles.
    std::vector<std::uint64_t> head;
    sim::sweep_stream(nl, {codec.width, {in.words[0], in.words[1]}}, {}, &head,
                      nullptr, nullptr, nullptr);
    std::uint64_t bus_trans = toggles[codec.inv] - head[codec.inv];
    for (GateId q : codec.bus) bus_trans += toggles[q] - head[q];
    std::uint64_t raw_trans = 0;
    for (std::size_t t = 2; t < in.words.size(); ++t)
      raw_trans += static_cast<std::uint64_t>(
          std::popcount(in.words[t] ^ in.words[t - 1]));
    double n = static_cast<double>(words.size() - 2);
    ev.bus_transitions_bi = static_cast<double>(bus_trans) / n;
    ev.bus_transitions_binary = static_cast<double>(raw_trans) / n;
    auto rep = sim::compute_power(nl,
                                  sim::toggle_activities(toggles, words.size()),
                                  sim::PowerParams{1.0, 1.0, cap});
    // Switched cap per cycle inside the codec (clock tree of the bus/INV
    // registers included: 2 edges x per-DFF clock cap).
    ev.codec_cap_per_word =
        rep.switched_cap +
        2.0 * cap.dff_clock_cap * static_cast<double>(nl.dffs().size());
  }
  return ev;
}

}  // namespace hlp::core
