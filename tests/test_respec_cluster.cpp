#include <gtest/gtest.h>

#include "core/control_respec.hpp"
#include "core/macromodel.hpp"
#include "sim/streams.hpp"

namespace {

using namespace hlp;
using namespace hlp::core;

// 8 bits x 4 sources plus the select is 34 input lines, one stream word;
// 8 x 8 is 67 lines, which takes the word-sliced cycle loop.
TEST(ControlRespec, SavesPowerWhenIdle) {
  for (int sources : {4, 8}) {
    auto res = evaluate_control_respec(8, sources, 3000, 0.5, 7);
    EXPECT_GT(res.idle_fraction, 0.4) << sources;
    EXPECT_LT(res.power_respec, res.power_default) << sources;
    EXPECT_GT(res.saving(), 0.05) << sources;
  }
}

TEST(ControlRespec, NoIdleNoDifference) {
  for (int sources : {4, 8}) {
    auto res = evaluate_control_respec(8, sources, 2000, 0.0, 9);
    EXPECT_EQ(res.idle_fraction, 0.0) << sources;
    EXPECT_NEAR(res.power_respec, res.power_default,
                1e-6 * res.power_default)
        << sources;
  }
}

TEST(ControlRespec, SavingGrowsWithIdleFraction) {
  double prev = -1.0;
  for (double idle : {0.2, 0.5, 0.8}) {
    auto res = evaluate_control_respec(8, 4, 3000, idle, 11);
    EXPECT_GE(res.saving(), prev - 0.03) << "idle " << idle;
    prev = res.saving();
  }
  // Source data keeps walking regardless of the schedule, so only the
  // select-induced reconfiguration is removable; ~10% at 80% idle.
  EXPECT_GT(prev, 0.08);
}

TEST(ClusterModel, PredictsAveragePowerOnTrainingDistribution) {
  auto mod = netlist::adder_module(8);
  stats::Rng rng(3);
  auto chr = characterize(mod, sim::random_stream(16, 4000, 0.5, rng));
  ClusterModel cm(8);
  cm.fit(chr);
  EXPECT_LE(cm.clusters(), 32u);  // "relatively small" cluster count [43]
  std::vector<double> pred;
  for (std::size_t t = 0; t < chr.transitions(); ++t)
    pred.push_back(cm.predict_cycle(chr.prev_word[t], chr.cur_word[t],
                                    chr.n_in));
  auto err = evaluate_predictions(pred, chr.energy);
  EXPECT_LT(err.avg_power_error, 0.02);
  EXPECT_LT(err.cycle_mean_abs_error, 0.6);
}

TEST(ClusterModel, WeakerThanTableOnModeChangingCircuit) {
  // The paper's criticism of [43]: Hamming-close patterns can behave very
  // differently when a "mode-changing bit" flips. A mux tree's select
  // lines are exactly such bits (one-bit input changes swing the output
  // arbitrarily), and the cluster hash cannot see them; the 3D-table model
  // observes the output activity and wins on per-cycle error.
  auto mod = netlist::mux_tree_module(3);
  stats::Rng rng(7);
  auto chr = characterize(mod,
                          sim::random_stream(mod.total_input_bits(), 6000,
                                             0.5, rng));
  ClusterModel cm(8);
  cm.fit(chr);
  Table3dModel tbl(5);
  tbl.fit(chr);
  std::vector<double> pc, pt;
  for (std::size_t t = 0; t < chr.transitions(); ++t) {
    pc.push_back(cm.predict_cycle(chr.prev_word[t], chr.cur_word[t],
                                  chr.n_in));
    pt.push_back(tbl.predict_cycle(chr.in_prob[t], chr.in_activity[t],
                                   chr.out_activity[t]));
  }
  auto ec = evaluate_predictions(pc, chr.energy);
  auto et = evaluate_predictions(pt, chr.energy);
  EXPECT_GT(ec.cycle_mean_abs_error, et.cycle_mean_abs_error);
}

TEST(DualBitIoModel, ImprovesOnPlainDualBitForDeepLogic) {
  // "Accuracy may be improved (especially for components with deep logic
  // nesting, such as multipliers) by macro-modeling with respect to both
  // the average input and output activities."
  auto mod = netlist::multiplier_module(4);
  stats::Rng rng(9);
  auto a = sim::gaussian_walk_stream(4, 5000, 0.95, 0.3, rng);
  auto b = sim::gaussian_walk_stream(4, 5000, 0.95, 0.3, rng);
  auto chr = characterize(mod, sim::zip_streams(a, b));
  int widths[2] = {4, 4};
  DualBitModel db;
  db.fit(chr, widths);
  DualBitIoModel dbio;
  dbio.fit(chr, widths);
  std::vector<double> pd, pdo;
  for (std::size_t t = 0; t < chr.transitions(); ++t) {
    pd.push_back(db.predict_cycle(chr.prev_word[t], chr.cur_word[t]));
    pdo.push_back(dbio.predict_cycle(chr, t));
  }
  auto ed = evaluate_predictions(pd, chr.energy);
  auto edo = evaluate_predictions(pdo, chr.energy);
  EXPECT_LE(edo.cycle_rms_error, ed.cycle_rms_error + 1e-9);
}

}  // namespace
