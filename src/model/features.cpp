#include "model/features.hpp"

#include <stdexcept>

#include "analysis/estimate.hpp"
#include "jobs/kernels.hpp"
#include "netlist/index.hpp"

namespace hlp::model {

const char* feature_name(std::size_t i) {
  switch (i) {
    case 0: return "gates";
    case 1: return "inputs";
    case 2: return "outputs";
    case 3: return "cap";
    case 4: return "depth";
    case 5: return "static-point";
    case 6: return "static-lower";
    case 7: return "static-upper";
    case 8: return "glitch-upper";
    case 9: return "input-p";
    case 10: return "input-t";
  }
  return "unknown";
}

FeatureVector extract_features(const std::string& design, double input_p) {
  if (!(input_p >= 0.0 && input_p <= 1.0))
    throw std::invalid_argument("input probability must be in [0, 1]");
  netlist::Module mod = jobs::make_module(design);
  const netlist::NetlistIndex ix = netlist::build_index(mod.netlist);
  analysis::StaticOptions sopts;
  sopts.inputs.p = input_p;
  // No meter: extraction must be a pure function of (design, input_p) so
  // training rows and serve-time queries agree bit for bit.
  const analysis::StaticEstimate est =
      analysis::static_estimate(mod.netlist, ix, sopts, nullptr);

  FeatureVector f;
  f.v[0] = static_cast<double>(mod.netlist.logic_gate_count());
  f.v[1] = static_cast<double>(mod.total_input_bits());
  f.v[2] = static_cast<double>(mod.total_output_bits());
  f.v[3] = ix.total_load + netlist::CapacitanceModel{}.dff_clock_cap *
                               static_cast<double>(mod.netlist.dffs().size());
  f.v[4] = static_cast<double>(ix.depth);
  f.v[5] = est.point;
  f.v[6] = est.lower;
  f.v[7] = est.upper;
  f.v[8] = est.glitch_upper;
  f.v[9] = input_p;
  f.v[10] = 2.0 * input_p * (1.0 - input_p);
  return f;
}

std::string design_family(const std::string& design) {
  const std::size_t colon = design.find(':');
  return colon == std::string::npos ? design : design.substr(0, colon);
}

}  // namespace hlp::model
