#include "core/control_respec.hpp"

#include <stdexcept>
#include <vector>

#include "netlist/generators.hpp"
#include "netlist/words.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace hlp::core {

namespace {

struct BusDesign {
  netlist::Netlist nl;
  std::vector<netlist::Word> sources;
  netlist::Word select;
  netlist::Word bus;
};

BusDesign build_bus(int width, int sources) {
  BusDesign d;
  int sel_bits = 1;
  while ((1 << sel_bits) < sources) ++sel_bits;
  for (int s = 0; s < sources; ++s)
    d.sources.push_back(netlist::make_input_word(d.nl, width,
                                                 "s" + std::to_string(s)));
  d.select = netlist::make_input_word(d.nl, sel_bits, "sel");
  // Mux tree over the sources (padding repeats the last source).
  std::vector<netlist::Word> level = d.sources;
  while ((level.size() & (level.size() - 1)) != 0) level.push_back(level.back());
  int bit = 0;
  while (level.size() > 1) {
    std::vector<netlist::Word> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      next.push_back(netlist::mux_word(
          d.nl, d.select[static_cast<std::size_t>(bit)], level[i],
          level[i + 1]));
    level = std::move(next);
    ++bit;
  }
  d.bus = level[0];
  // The bus drives heavy downstream loads.
  for (netlist::GateId g : d.bus) d.nl.add_extra_cap(g, 3.0);
  netlist::mark_output_word(d.nl, d.bus, "bus");
  return d;
}

}  // namespace

RespecResult evaluate_control_respec(int width, int sources,
                                     std::size_t cycles, double idle_prob,
                                     std::uint64_t seed,
                                     const sim::PowerParams& params,
                                     const sim::SimOptions& opts) {
  RespecResult res;
  stats::Rng rng(seed);

  // Shared schedule and source data for both policies.
  std::vector<int> used_source(cycles);   // -1 = idle
  for (auto& u : used_source)
    u = rng.bit(idle_prob)
            ? -1
            : static_cast<int>(rng.uniform_int(0, sources - 1));
  std::vector<std::vector<std::uint64_t>> data(
      static_cast<std::size_t>(sources));
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  for (auto& stream : data) {
    std::uint64_t v = rng.uniform_bits(width);
    for (std::size_t c = 0; c < cycles; ++c) {
      v = (v + static_cast<std::uint64_t>(rng.uniform_int(-3, 3))) & mask;
      stream.push_back(v);
    }
  }

  auto run = [&](bool respecify) {
    BusDesign d = build_bus(width, sources);
    res.mux_gates = d.nl.logic_gate_count();
    // Per-cycle select under this policy (depends only on the schedule).
    std::vector<int> sel_of(cycles);
    int held_sel = 0;
    for (std::size_t c = 0; c < cycles; ++c) {
      int src = used_source[c];
      int sel = src >= 0 ? src
                         : (respecify ? held_sel : 0);  // don't-care assignment
      held_sel = sel;
      sel_of[c] = sel;
    }
    const int total_bits = static_cast<int>(d.nl.inputs().size());
    std::vector<double> acts;
    if (total_bits <= 64) {
      // Packed sweep: pack all inputs into one word per cycle using the
      // creation-order layout (source s bit b -> s*width + b, select above
      // the sources). The bus word is the whole output word, checked after
      // the sweep.
      stats::VectorStream in_stream;
      in_stream.width = total_bits;
      in_stream.words.reserve(cycles);
      for (std::size_t c = 0; c < cycles; ++c) {
        std::uint64_t w = 0;
        for (int k = 0; k < sources; ++k)
          w |= (data[static_cast<std::size_t>(k)][c] & mask)
               << (static_cast<unsigned>(k * width));
        w |= static_cast<std::uint64_t>(sel_of[c])
             << (static_cast<unsigned>(sources * width));
        in_stream.words.push_back(w);
      }
      stats::VectorStream out_stream;
      acts = sim::simulate_activities(d.nl, in_stream, &out_stream, opts);
      for (std::size_t c = 0; c < cycles; ++c) {
        int src = used_source[c];
        if (src >= 0 &&
            out_stream.words[c] != data[static_cast<std::size_t>(src)][c])
          throw std::logic_error("control_respec: bus steering broken");
      }
    } else {
      // Wider than one packed word: word-sliced scalar sweep.
      sim::Simulator s(d.nl);
      sim::ActivityCollector col(d.nl);
      for (std::size_t c = 0; c < cycles; ++c) {
        for (int k = 0; k < sources; ++k)
          s.set_word(d.sources[static_cast<std::size_t>(k)],
                     data[static_cast<std::size_t>(k)][c]);
        s.set_word(d.select, static_cast<std::uint64_t>(sel_of[c]));
        s.eval();
        col.record(s);
        int src = used_source[c];
        if (src >= 0 &&
            s.word_value(d.bus) != data[static_cast<std::size_t>(src)][c])
          throw std::logic_error("control_respec: bus steering broken");
        s.tick();
      }
      acts = col.activities();
    }
    return sim::compute_power(d.nl, acts, params).total_power;
  };

  res.power_default = run(false);
  res.power_respec = run(true);
  std::size_t idles = 0;
  for (int u : used_source)
    if (u < 0) ++idles;
  res.idle_fraction = static_cast<double>(idles) / static_cast<double>(cycles);
  return res;
}

}  // namespace hlp::core
