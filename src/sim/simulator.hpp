#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/engine.hpp"
#include "stats/entropy.hpp"

namespace hlp::sim {

/// Zero-delay functional simulator for `netlist::Netlist` (the scalar
/// `SimEngine` backend; see engine.hpp for the backend contract).
///
/// Usage per cycle:
///   sim.set_input(...); sim.eval();   // settle combinational logic
///   ... read values / record activity ...
///   sim.tick();                       // clock edge: DFFs sample D
class Simulator {
 public:
  explicit Simulator(const netlist::Netlist& nl);

  /// Reset DFFs to their init values and clear all nets to 0.
  void reset();

  void set_input(netlist::GateId input, bool value);
  /// Assign an input word from an integer, LSB first.
  void set_word(const netlist::Word& w, std::uint64_t value);
  /// Assign all primary inputs from packed bits (bit i -> inputs()[i]).
  /// Throws std::out_of_range on netlists with more than 64 inputs (one
  /// word cannot carry them; drive those with set_input/set_word).
  void set_all_inputs(std::uint64_t packed);

  /// Propagate values through the combinational logic (in the topological
  /// order taken at construction).
  void eval();

  /// Clock edge: every DFF samples its D input.
  void tick();

  bool value(netlist::GateId g) const { return values_[g] != 0; }
  std::uint64_t word_value(const netlist::Word& w) const;
  /// Packed primary-output bits (output i -> bit i). Throws
  /// std::out_of_range on netlists with more than 64 outputs (read those
  /// with value/word_value).
  std::uint64_t output_bits() const;

  const netlist::Netlist& netlist() const { return *nl_; }

 private:
  const netlist::Netlist* nl_;
  std::vector<netlist::GateId> logic_order_;  ///< logic gates, topo order
  std::vector<std::uint8_t> values_;
  std::vector<std::uint8_t> fanin_buf_;
  std::vector<std::uint8_t> dff_next_;  ///< tick()'s sampled D values
};

/// Accumulates zero-delay toggle counts per gate between settled snapshots.
class ActivityCollector {
 public:
  explicit ActivityCollector(const netlist::Netlist& nl);

  /// Record the simulator's current settled values; counts toggles against
  /// the previously recorded snapshot.
  void record(const Simulator& sim);

  std::size_t cycles() const { return cycles_; }
  /// Per-gate switching activity E_g = toggles / (cycles - 1).
  std::vector<double> activities() const;
  /// Raw toggle count per gate.
  std::span<const std::uint64_t> toggles() const { return toggles_; }

 private:
  const netlist::Netlist* nl_;
  std::vector<std::uint8_t> prev_;
  std::vector<std::uint64_t> toggles_;
  std::size_t cycles_ = 0;
};

class LoadClasses;

/// The zero-delay stream sweep under every cycle-by-cycle estimator (the
/// survey's reference P = ½V²f·ΣCᵢEᵢ and the census characterization of
/// §II-C). Runs the netlist over an input stream (one word per cycle;
/// stream bit i drives primary input i) and fills only what the caller asks
/// for; a null output is never computed:
///  - `toggles`: per-gate toggle counts over the stream;
///  - `energy`, with `loads`: the switched capacitance of each transition,
///    energy[t-1] for the one into cycle t (one of the two without the
///    other throws std::invalid_argument);
///  - `out_stream`: the primary-output stream.
/// Netlists that are `temporal_packable` run on the packed `BlockSimulator`,
/// 64·W consecutive cycles per eval (W = `opts.block_words`); registered
/// netlists, and combinational ones wider than 64 lines, run cycle by cycle
/// on `Simulator`. The results are bit-identical either way (engine.hpp).
void sweep_stream(const netlist::Netlist& nl,
                  const stats::VectorStream& in_stream, const SimOptions& opts,
                  std::vector<std::uint64_t>* toggles,
                  const LoadClasses* loads, std::vector<double>* energy,
                  stats::VectorStream* out_stream);

/// Per-gate zero-delay activities E_g = toggles[g] / (cycles - 1); all zero
/// below two cycles.
std::vector<double> toggle_activities(std::span<const std::uint64_t> toggles,
                                      std::size_t cycles);

/// Per-gate zero-delay activities (`toggle_activities`) of a
/// `sweep_stream`; if `out_stream` is non-null it receives the
/// primary-output stream.
std::vector<double> simulate_activities(
    const netlist::Netlist& nl, const stats::VectorStream& in_stream,
    stats::VectorStream* out_stream = nullptr, const SimOptions& opts = {});

/// The primary-output stream of a `sweep_stream`, and nothing else.
stats::VectorStream simulate_outputs(const netlist::Netlist& nl,
                                     const stats::VectorStream& in_stream,
                                     const SimOptions& opts = {});

}  // namespace hlp::sim
