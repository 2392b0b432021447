#pragma once

#include <array>
#include <cstddef>
#include <string>

namespace hlp::model {

/// --- Macromodel feature extraction ------------------------------------------
///
/// The learned power models (DESIGN.md §12) regress a module's expected
/// switched capacitance against a fixed, ordered feature vector computed
/// *without simulation*: structural totals from the netlist plus the
/// hlp::analysis static activity figures under the request's input
/// statistics. One canonical extractor is shared by the characterization
/// campaign (training rows) and the serve predicted tier (query rows), so a
/// model can never be asked about a feature layout it was not trained on —
/// the feature order below IS the artifact's coefficient order.
///
/// Extraction is deterministic in (design, input_p): the static estimator
/// runs with a fixed node budget and no request-derived limits, the same
/// discipline the serve tier-0 cache relies on.

/// Number of features, fixed per artifact version (kModelVersion).
inline constexpr std::size_t kFeatureCount = 11;

/// Canonical feature names, by index:
///   0 gates        logic gate count
///   1 inputs       primary input bits
///   2 outputs      primary output bits
///   3 cap          total capacitance (default model)
///   4 depth        logic depth
///   5 static-point zero-simulation activity point estimate
///   6 static-lower guaranteed lower bound
///   7 static-upper guaranteed upper bound
///   8 glitch-upper unit-delay worst-case ceiling
///   9 input-p      primary-input signal probability
///  10 input-t      primary-input toggle density 2p(1-p)
const char* feature_name(std::size_t i);

struct FeatureVector {
  std::array<double, kFeatureCount> v{};
};

/// Extract the canonical feature vector for a netlist design spec under
/// i.i.d. inputs with signal probability `input_p` on every bit.
/// Throws std::invalid_argument for an unbuildable design (same contract as
/// jobs::make_module) or input_p outside [0, 1].
FeatureVector extract_features(const std::string& design, double input_p);

/// The design-family key a model is registered under: the spec prefix
/// before the first ':' ("adder:16" -> "adder", "c17" -> "c17").
std::string design_family(const std::string& design);

}  // namespace hlp::model
