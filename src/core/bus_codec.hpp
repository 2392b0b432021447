#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/power.hpp"

namespace hlp::core {

/// Section III-G closes with the caveat that "the savings achieved through
/// a bus switching activity reduction must not be offset by the power
/// dissipated by the encoding and decoding circuitry at the bus terminals."
/// This module synthesizes the Bus-Invert codec as an actual gate-level
/// netlist so that tradeoff can be measured: encoder = XOR bank + popcount
/// tree + majority comparator + output register; decoder = XOR bank.

struct BusInvertCodec {
  netlist::Netlist netlist;
  netlist::Word data_in;    ///< word to transmit (primary inputs)
  netlist::Word bus;        ///< registered bus lines (DFF outputs)
  netlist::GateId inv;      ///< registered INV line
  netlist::Word decoded;    ///< receiver-side reconstruction (outputs)
  int width = 0;
};

/// Build the full codec (encoder + bus register + decoder) for an N-bit bus.
BusInvertCodec build_bus_invert_codec(int width);

/// System-power comparison at a given per-line bus capacitance.
struct CodecEval {
  double bus_transitions_binary = 0.0;  ///< per word, unencoded
  double bus_transitions_bi = 0.0;      ///< per word, encoded (incl. INV)
  double codec_cap_per_word = 0.0;      ///< switched cap inside the codec
  bool functionally_correct = true;

  /// Total switched cap per word for each option at bus cap `c_bus`/line.
  double total_binary(double c_bus) const {
    return bus_transitions_binary * c_bus;
  }
  double total_bi(double c_bus) const {
    return bus_transitions_bi * c_bus + codec_cap_per_word;
  }
  /// Bus capacitance above which Bus-Invert wins despite codec overhead.
  double breakeven_cbus() const;
};

/// Simulate the codec netlist on a word stream; verifies decoded == input
/// (one cycle late) and accounts bus vs codec switching separately, all
/// from one `sim::sweep_stream` of the codec (plus a two-word one that
/// measures the reset transient the bus count leaves out).
CodecEval evaluate_bus_invert_codec(const BusInvertCodec& codec,
                                    const std::vector<std::uint64_t>& words,
                                    const netlist::CapacitanceModel& cap = {});

}  // namespace hlp::core
