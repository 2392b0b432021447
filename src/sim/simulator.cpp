#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <optional>
#include <stdexcept>

#include "sim/block_simulator.hpp"
#include "sim/toggle_energy.hpp"

namespace hlp::sim {

using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;

Simulator::Simulator(const netlist::Netlist& nl) : nl_(&nl) {
  for (GateId id : nl.topo_order())
    if (netlist::is_logic(nl.gate(id).kind)) logic_order_.push_back(id);
  reset();
}

void Simulator::reset() {
  values_.assign(nl_->gate_count(), 0);
  for (GateId g = 0; g < nl_->gate_count(); ++g)
    if (nl_->gate(g).kind == GateKind::Const1) values_[g] = 1;
  for (GateId d : nl_->dffs()) values_[d] = nl_->dff_init(d) ? 1 : 0;
}

void Simulator::set_input(GateId input, bool value) {
  assert(nl_->gate(input).kind == GateKind::Input);
  values_[input] = value ? 1 : 0;
}

void Simulator::set_word(const netlist::Word& w, std::uint64_t value) {
  for (std::size_t i = 0; i < w.size(); ++i)
    set_input(w[i], (value >> i) & 1u);
}

void Simulator::set_all_inputs(std::uint64_t packed) {
  auto ins = nl_->inputs();
  if (ins.size() > 64)
    throw std::out_of_range(
        "Simulator::set_all_inputs: netlist has more than 64 inputs");
  for (std::size_t i = 0; i < ins.size(); ++i)
    values_[ins[i]] = (packed >> i) & 1u;
}

void Simulator::eval() {
  for (GateId id : logic_order_) {
    const Gate& g = nl_->gate(id);
    fanin_buf_.clear();
    for (GateId f : g.fanins) fanin_buf_.push_back(values_[f]);
    values_[id] = netlist::eval_gate(g.kind, fanin_buf_) ? 1 : 0;
  }
}

void Simulator::tick() {
  // Sample all D inputs first (old values), then commit.
  dff_next_.clear();
  for (GateId d : nl_->dffs()) {
    const Gate& g = nl_->gate(d);
    dff_next_.push_back(g.fanins.empty() ? values_[d] : values_[g.fanins[0]]);
  }
  std::size_t i = 0;
  for (GateId d : nl_->dffs()) values_[d] = dff_next_[i++];
}

std::uint64_t Simulator::word_value(const netlist::Word& w) const {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < w.size() && i < 64; ++i)
    if (values_[w[i]]) v |= std::uint64_t{1} << i;
  return v;
}

std::uint64_t Simulator::output_bits() const {
  auto outs = nl_->outputs();
  if (outs.size() > 64)
    throw std::out_of_range(
        "Simulator::output_bits: netlist has more than 64 outputs");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < outs.size(); ++i)
    if (values_[outs[i]]) v |= std::uint64_t{1} << i;
  return v;
}

ActivityCollector::ActivityCollector(const netlist::Netlist& nl) : nl_(&nl) {
  toggles_.assign(nl.gate_count(), 0);
}

void ActivityCollector::record(const Simulator& sim) {
  const std::size_t n = nl_->gate_count();
  if (cycles_ == 0) {
    prev_.resize(n);
    for (GateId g = 0; g < n; ++g) prev_[g] = sim.value(g) ? 1 : 0;
  } else {
    for (GateId g = 0; g < n; ++g) {
      std::uint8_t v = sim.value(g) ? 1 : 0;
      if (v != prev_[g]) {
        ++toggles_[g];
        prev_[g] = v;
      }
    }
  }
  ++cycles_;
}

std::vector<double> ActivityCollector::activities() const {
  return toggle_activities(toggles_, cycles_);
}

namespace {

/// sweep_stream's packed branch: lane w·64+k of a block carries cycle
/// base+w·64+k. A gate's toggle count is the popcount of its temporal
/// toggle words, and the block toggle-energy counter sums their loads per
/// lane; both reproduce sweep_cycles bit for bit at every block width.
void sweep_packed(const netlist::Netlist& nl,
                  const stats::VectorStream& in_stream, int block_words,
                  std::vector<std::uint64_t>* toggles,
                  const LoadClasses* loads, std::vector<double>* energy,
                  stats::VectorStream* out_stream) {
  const std::size_t n = nl.gate_count();
  const std::size_t total = in_stream.words.size();
  const bool track = toggles || energy;
  BlockSimulator bs(nl, block_words);
  const auto W = static_cast<std::size_t>(bs.words());
  const auto lanes = static_cast<std::size_t>(bs.lane_count());
  std::vector<std::uint8_t> last(track ? n : 0);
  std::vector<std::uint64_t> tw(track ? n * W : 0);
  std::optional<ToggleEnergy> counter;
  if (energy) counter.emplace(*loads, bs.words());
  std::vector<double> eb(energy ? lanes : 0);
  std::vector<std::uint64_t> ob(out_stream ? lanes : 0);
  for (std::size_t base = 0; base < total; base += lanes) {
    const std::size_t count = std::min(lanes, total - base);
    bs.set_inputs_from_cycles(
        std::span(in_stream.words).subspan(base, count));
    bs.eval();
    if (track) bs.temporal_toggles(count, base == 0, last, tw);
    if (toggles)
      for (GateId g = 0; g < n; ++g)
        for (std::size_t w = 0; w < W; ++w)
          (*toggles)[g] +=
              static_cast<std::uint64_t>(std::popcount(tw[g * W + w]));
    if (energy) {
      // Lane 0 of the first block is cycle 0: no transition into it.
      counter->energies(tw, count, eb.data());
      energy->insert(energy->end(), eb.begin() + (base == 0 ? 1 : 0),
                     eb.begin() + static_cast<std::ptrdiff_t>(count));
    }
    if (out_stream) {
      bs.outputs_to_cycles(std::span(ob).first(count));
      out_stream->words.insert(
          out_stream->words.end(), ob.begin(),
          ob.begin() + static_cast<std::ptrdiff_t>(count));
    }
  }
}

/// sweep_stream's cycle-by-cycle branch (registered netlists, or wider than
/// 64 lines): one eval per cycle, clocked after each; a transition's energy
/// sums the toggled gates' loads in gate order.
void sweep_cycles(const netlist::Netlist& nl,
                  const stats::VectorStream& in_stream,
                  std::vector<std::uint64_t>* toggles,
                  const LoadClasses* loads, std::vector<double>* energy,
                  stats::VectorStream* out_stream) {
  const std::size_t n = nl.gate_count();
  const bool track = toggles || energy;
  Simulator sim(nl);
  std::vector<std::uint8_t> prev(track ? n : 0);
  const std::span<const double> ld =
      loads ? loads->loads() : std::span<const double>{};
  for (std::size_t t = 0; t < in_stream.words.size(); ++t) {
    sim.set_all_inputs(in_stream.words[t]);
    sim.eval();
    if (track) {
      double e = 0.0;
      for (GateId g = 0; g < n; ++g) {
        const std::uint8_t v = sim.value(g) ? 1 : 0;
        if (t > 0 && v != prev[g]) {
          if (toggles) ++(*toggles)[g];
          if (energy) e += ld[g];
        }
        prev[g] = v;
      }
      if (energy && t > 0) energy->push_back(e);
    }
    if (out_stream) out_stream->words.push_back(sim.output_bits());
    sim.tick();
  }
}

}  // namespace

void sweep_stream(const netlist::Netlist& nl,
                  const stats::VectorStream& in_stream, const SimOptions& opts,
                  std::vector<std::uint64_t>* toggles,
                  const LoadClasses* loads, std::vector<double>* energy,
                  stats::VectorStream* out_stream) {
  if ((loads == nullptr) != (energy == nullptr))
    throw std::invalid_argument("sweep_stream: loads and energy go together");
  const std::size_t total = in_stream.words.size();
  if (toggles) toggles->assign(nl.gate_count(), 0);
  if (energy) {
    energy->clear();
    energy->reserve(total > 0 ? total - 1 : 0);
  }
  if (out_stream) {
    out_stream->width = static_cast<int>(nl.outputs().size());
    out_stream->words.clear();
    out_stream->words.reserve(total);
  }
  if (temporal_packable(nl))
    sweep_packed(nl, in_stream, opts.block_words, toggles, loads, energy,
                 out_stream);
  else
    sweep_cycles(nl, in_stream, toggles, loads, energy, out_stream);
}

std::vector<double> toggle_activities(std::span<const std::uint64_t> toggles,
                                      std::size_t cycles) {
  std::vector<double> e(toggles.size(), 0.0);
  if (cycles < 2) return e;
  const double denom = static_cast<double>(cycles - 1);
  for (std::size_t g = 0; g < e.size(); ++g)
    e[g] = static_cast<double>(toggles[g]) / denom;
  return e;
}

std::vector<double> simulate_activities(const netlist::Netlist& nl,
                                        const stats::VectorStream& in_stream,
                                        stats::VectorStream* out_stream,
                                        const SimOptions& opts) {
  std::vector<std::uint64_t> toggles;
  sweep_stream(nl, in_stream, opts, &toggles, nullptr, nullptr, out_stream);
  return toggle_activities(toggles, in_stream.words.size());
}

stats::VectorStream simulate_outputs(const netlist::Netlist& nl,
                                     const stats::VectorStream& in_stream,
                                     const SimOptions& opts) {
  stats::VectorStream out;
  sweep_stream(nl, in_stream, opts, nullptr, nullptr, nullptr, &out);
  return out;
}

}  // namespace hlp::sim
