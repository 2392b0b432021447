#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "netlist/generators.hpp"
#include "sim/engine.hpp"
#include "sim/power.hpp"
#include "stats/entropy.hpp"
#include "stats/regression.hpp"

namespace hlp::core {

/// Per-module characterization data: gate-level reference energies plus the
/// per-cycle predictor variables every Section II-C1 macro-model draws from.
/// Energies are in switched-capacitance units (multiply by 0.5 V^2 f for
/// watts); this keeps the regression conditioning independent of electrical
/// constants.
struct ModuleCharacterization {
  int n_in = 0;
  int n_out = 0;
  double total_cap = 0.0;

  /// One entry per *transition* (cycle pairs t-1 -> t).
  std::vector<double> energy;          ///< switched cap this transition
  stats::Matrix pin_toggle;            ///< n_in columns of 0/1 toggles
  std::vector<double> in_activity;     ///< mean input toggle fraction
  std::vector<double> in_prob;         ///< mean input signal value (current)
  std::vector<double> out_activity;    ///< mean zero-delay output toggles
  std::vector<std::uint64_t> cur_word; ///< current input assignment
  std::vector<std::uint64_t> prev_word;

  std::size_t transitions() const { return energy.size(); }
  double mean_energy() const;
};

/// Simulate the module under `input` and collect characterization data:
/// one sim::sweep_stream for the per-transition energies and output words
/// (packed for combinational modules, cycle by cycle for registered ones;
/// bit-identical either way), then the predictor variables per transition.
ModuleCharacterization characterize(const netlist::Module& mod,
                                    const stats::VectorStream& input,
                                    const netlist::CapacitanceModel& cap = {},
                                    const sim::SimOptions& opts = {});

/// --- Macro-model forms (in increasing accuracy/cost order) -------------

/// Power factor approximation [39]: a single per-activation constant.
class PfaModel {
 public:
  void fit(const ModuleCharacterization& c);
  /// Predicted switched cap per activation (data independent).
  double predict() const { return c_; }

 private:
  double c_ = 0.0;
};

/// Bitwise data model: energy = sum_i C_i * toggle_i.
class BitwiseModel {
 public:
  void fit(const ModuleCharacterization& c);
  double predict_cycle(std::span<const double> pin_toggles) const;
  /// Average power form: plug per-pin activities E_i.
  double predict_avg(std::span<const double> pin_activities) const;

 private:
  stats::OlsFit fit_;
};

/// Input–output data model: energy = C_I E_I + C_O E_O.
class InputOutputModel {
 public:
  void fit(const ModuleCharacterization& c);
  double predict_cycle(double in_act, double out_act) const;

 private:
  stats::OlsFit fit_;
};

/// Dual-bit-type model (Landman–Rabaey [40]): splits the input word into a
/// white-noise low-order region and a correlated sign region; fits a
/// capacitance coefficient for the noise region and one per sign-transition
/// class (++, +-, -+, --).
class DualBitModel {
 public:
  /// `sign_bits`: how many MSBs per input word form the sign region; if < 0
  /// it is detected from the lag-1 correlation of each bit in `c`.
  void fit(const ModuleCharacterization& c,
           std::span<const int> word_widths, int sign_bits = -1);
  double predict_cycle(std::uint64_t prev, std::uint64_t cur) const;
  int sign_bits() const { return n_sign_; }

 private:
  std::array<double, 4> features_of(std::uint64_t prev,
                                    std::uint64_t cur) const;
  std::vector<int> widths_;
  int n_sign_ = 1;
  stats::OlsFit fit_;  // columns: u_toggles, and one-hot sign class x 4 - 1
};

/// 3-D table model (Gupta–Najm [41]): table over (mean input probability,
/// mean input activity, mean output activity), each axis uniformly binned.
class Table3dModel {
 public:
  explicit Table3dModel(int bins = 5) : bins_(bins) {}
  void fit(const ModuleCharacterization& c);
  double predict_cycle(double p_in, double d_in, double d_out) const;

 private:
  std::size_t index(double p, double d, double o) const;
  int bins_;
  std::vector<double> sum_, count_;
  double fallback_ = 0.0;
};

/// Cluster-based cycle-accurate model (Mehta et al. [43]): input
/// transitions are hashed to a small number of clusters (here: Hamming
/// weight of the toggle vector x current MSB class) and each cluster stores
/// the mean training energy. The paper points out the weakness — "closely
/// related patterns result in similar power" fails around mode-changing
/// bits — which the tests demonstrate against the 3-D table model.
class ClusterModel {
 public:
  explicit ClusterModel(int hamming_buckets = 8)
      : buckets_(hamming_buckets) {}
  void fit(const ModuleCharacterization& c);
  double predict_cycle(std::uint64_t prev, std::uint64_t cur, int n_in) const;
  std::size_t clusters() const { return sum_.size(); }

 private:
  std::size_t index(std::uint64_t prev, std::uint64_t cur, int n_in) const;
  int buckets_;
  std::vector<double> sum_, count_;
  double fallback_ = 0.0;
};

/// Combined dual-bit-type + input-output model (the "more accurate, but
/// more expensive, macro-model form" the paper describes): dual-bit sign/
/// noise features plus the mean output activity.
class DualBitIoModel {
 public:
  void fit(const ModuleCharacterization& c, std::span<const int> word_widths,
           int sign_bits = -1);
  double predict_cycle(const ModuleCharacterization& c, std::size_t t) const;

 private:
  DualBitModel db_;
  stats::OlsFit fit_;  // columns: dual-bit prediction, out_activity
};

/// Characterization-free analytical macro-model (Benini et al. [23]): the
/// per-pin capacitance coefficients are derived from the gate-level
/// structure alone — a toggle on pin i propagates into its transitive
/// fanout with a kind-dependent probability per gate (1.0 for XOR-like
/// gates, 0.5 for AND/OR-like gates), accumulating the loads it can reach.
/// No simulation is needed to build the model (the paper's point for soft
/// macros and early estimation).
class AnalyticBitwiseModel {
 public:
  void build(const netlist::Module& mod,
             const netlist::CapacitanceModel& cap = {});
  double predict_cycle(std::span<const double> pin_toggles) const;
  double coefficient(std::size_t pin) const { return coef_[pin]; }

 private:
  std::vector<double> coef_;
};

/// Cycle-accurate statistically selected model (Wu et al. [44], Qiu et al.
/// [45]): candidate variables are per-pin toggles, aggregate activities, and
/// first-order temporal/spatial cross terms; forward F-test selection picks
/// at most `max_vars` of them.
class SelectedModel {
 public:
  void fit(const ModuleCharacterization& c, std::size_t max_vars = 8,
           double f_enter = 4.0);
  double predict_cycle(const ModuleCharacterization& c, std::size_t t) const;
  std::size_t num_selected() const { return selected_.size(); }

 private:
  static stats::Matrix candidates(const ModuleCharacterization& c);
  static std::vector<double> candidate_row(const ModuleCharacterization& c,
                                           std::size_t t);
  std::vector<std::size_t> selected_;
  stats::OlsFit fit_;
};

/// Evaluation metrics for one model on one characterization set.
struct MacroModelErrors {
  double avg_power_error = 0.0;    ///< |mean(pred) - mean(ref)| / mean(ref)
  double cycle_rms_error = 0.0;    ///< RMS relative per-cycle error
  double cycle_mean_abs_error = 0.0;
};

/// Compare per-cycle predictions against reference energies.
MacroModelErrors evaluate_predictions(std::span<const double> predicted,
                                      std::span<const double> reference);

}  // namespace hlp::core
