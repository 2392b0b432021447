#include "core/macromodel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "netlist/index.hpp"
#include "sim/simulator.hpp"
#include "sim/toggle_energy.hpp"
#include "stats/descriptive.hpp"

namespace hlp::core {

double ModuleCharacterization::mean_energy() const {
  return stats::mean(energy);
}

namespace {

/// Fill the per-transition characterization fields for the transition into
/// cycle `t` from the input words and the settled output words.
void push_transition(ModuleCharacterization& chr,
                     const stats::VectorStream& input, std::size_t t,
                     double energy, std::uint64_t out, std::uint64_t prev_out) {
  std::uint64_t cur = input.words[t];
  std::uint64_t prev = input.words[t - 1];
  std::uint64_t diff = cur ^ prev;
  chr.energy.push_back(energy);
  std::vector<double> toggles(static_cast<std::size_t>(chr.n_in));
  for (int i = 0; i < chr.n_in; ++i)
    toggles[static_cast<std::size_t>(i)] =
        static_cast<double>((diff >> i) & 1u);
  chr.pin_toggle.push_back(std::move(toggles));
  chr.in_activity.push_back(static_cast<double>(std::popcount(diff)) /
                            static_cast<double>(chr.n_in));
  chr.in_prob.push_back(static_cast<double>(std::popcount(cur)) /
                        static_cast<double>(chr.n_in));
  chr.out_activity.push_back(
      static_cast<double>(std::popcount(out ^ prev_out)) /
      static_cast<double>(std::max(1, chr.n_out)));
  chr.cur_word.push_back(cur);
  chr.prev_word.push_back(prev);
}

}  // namespace

ModuleCharacterization characterize(const netlist::Module& mod,
                                    const stats::VectorStream& input,
                                    const netlist::CapacitanceModel& cap,
                                    const sim::SimOptions& opts) {
  ModuleCharacterization chr;
  chr.n_in = mod.total_input_bits();
  chr.n_out = mod.total_output_bits();
  chr.total_cap = mod.netlist.total_capacitance(cap);

  const sim::LoadClasses loads(mod.netlist.loads(cap));
  std::vector<double> energy;
  stats::VectorStream out;
  sim::sweep_stream(mod.netlist, input, opts, nullptr, &loads, &energy, &out);
  for (std::size_t t = 1; t < input.words.size(); ++t)
    push_transition(chr, input, t, energy[t - 1], out.words[t],
                    out.words[t - 1]);
  return chr;
}

void PfaModel::fit(const ModuleCharacterization& c) { c_ = c.mean_energy(); }

void BitwiseModel::fit(const ModuleCharacterization& c) {
  fit_ = stats::ols(c.pin_toggle, c.energy);
}

double BitwiseModel::predict_cycle(std::span<const double> pin_toggles) const {
  return fit_.predict(pin_toggles);
}

double BitwiseModel::predict_avg(
    std::span<const double> pin_activities) const {
  return fit_.predict(pin_activities);
}

void InputOutputModel::fit(const ModuleCharacterization& c) {
  stats::Matrix x(c.transitions());
  for (std::size_t t = 0; t < c.transitions(); ++t)
    x[t] = {c.in_activity[t], c.out_activity[t]};
  fit_ = stats::ols(x, c.energy);
}

double InputOutputModel::predict_cycle(double in_act, double out_act) const {
  double row[2] = {in_act, out_act};
  return fit_.predict(row);
}

std::array<double, 4> DualBitModel::features_of(std::uint64_t prev,
                                                std::uint64_t cur) const {
  // Feature 0: toggles in the unsigned (noise) region across all words.
  // Features 1..3: sign-transition class counts (+-, -+, --); ++ is the
  // baseline absorbed by the intercept.
  std::array<double, 4> f{0.0, 0.0, 0.0, 0.0};
  int base = 0;
  for (int w : widths_) {
    int ns = std::min(n_sign_, w);
    int nu = w - ns;
    std::uint64_t mask_u =
        nu >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << nu) - 1);
    std::uint64_t pw = (prev >> base);
    std::uint64_t cw = (cur >> base);
    f[0] += static_cast<double>(std::popcount((pw ^ cw) & mask_u));
    bool ps = (pw >> (w - 1)) & 1u;  // MSB as the sign proxy
    bool cs = (cw >> (w - 1)) & 1u;
    if (!ps && cs) f[1] += 1.0;        // + -> -
    else if (ps && !cs) f[2] += 1.0;   // - -> +
    else if (ps && cs) f[3] += 1.0;    // - -> -
    base += w;
  }
  return f;
}

void DualBitModel::fit(const ModuleCharacterization& c,
                       std::span<const int> word_widths, int sign_bits) {
  widths_.assign(word_widths.begin(), word_widths.end());
  if (sign_bits >= 0) {
    n_sign_ = sign_bits;
  } else {
    // Detect the sign-region breakpoint from per-bit lag-1 correlation:
    // scan each word from MSB down while the bit is temporally correlated.
    int best = 1;
    int base = 0;
    for (int w : widths_) {
      std::vector<double> cur_bits(c.transitions()), prev_bits(c.transitions());
      int run = 0;
      for (int b = w - 1; b >= 0; --b) {
        for (std::size_t t = 0; t < c.transitions(); ++t) {
          cur_bits[t] =
              static_cast<double>((c.cur_word[t] >> (base + b)) & 1u);
          prev_bits[t] =
              static_cast<double>((c.prev_word[t] >> (base + b)) & 1u);
        }
        double corr = stats::correlation(prev_bits, cur_bits);
        if (std::abs(corr) > 0.3)
          ++run;
        else
          break;
      }
      best = std::max(best, run);
      base += w;
    }
    n_sign_ = std::max(1, best);
  }
  stats::Matrix x(c.transitions());
  for (std::size_t t = 0; t < c.transitions(); ++t) {
    auto f = features_of(c.prev_word[t], c.cur_word[t]);
    x[t].assign(f.begin(), f.end());
  }
  fit_ = stats::ols(x, c.energy);
}

double DualBitModel::predict_cycle(std::uint64_t prev,
                                   std::uint64_t cur) const {
  auto f = features_of(prev, cur);
  return fit_.predict(f);
}

std::size_t Table3dModel::index(double p, double d, double o) const {
  auto bin = [&](double v) {
    int b = static_cast<int>(v * bins_);
    return static_cast<std::size_t>(std::clamp(b, 0, bins_ - 1));
  };
  return (bin(p) * static_cast<std::size_t>(bins_) + bin(d)) *
             static_cast<std::size_t>(bins_) +
         bin(o);
}

void Table3dModel::fit(const ModuleCharacterization& c) {
  std::size_t cells = static_cast<std::size_t>(bins_) * bins_ * bins_;
  sum_.assign(cells, 0.0);
  count_.assign(cells, 0.0);
  for (std::size_t t = 0; t < c.transitions(); ++t) {
    std::size_t i = index(c.in_prob[t], c.in_activity[t], c.out_activity[t]);
    sum_[i] += c.energy[t];
    count_[i] += 1.0;
  }
  fallback_ = c.mean_energy();
}

double Table3dModel::predict_cycle(double p_in, double d_in,
                                   double d_out) const {
  std::size_t i = index(p_in, d_in, d_out);
  if (count_[i] > 0.0) return sum_[i] / count_[i];
  return fallback_;
}

std::size_t ClusterModel::index(std::uint64_t prev, std::uint64_t cur,
                                int n_in) const {
  int dist = std::popcount(prev ^ cur);
  int b = n_in > 0 ? dist * buckets_ / (n_in + 1) : 0;
  b = std::clamp(b, 0, buckets_ - 1);
  // MSB "mode" class: the top input line's transition.
  int msb_class = 0;
  if (n_in > 0) {
    msb_class = static_cast<int>(((prev >> (n_in - 1)) & 1u) << 1 |
                                 ((cur >> (n_in - 1)) & 1u));
  }
  return static_cast<std::size_t>(msb_class * buckets_ + b);
}

void ClusterModel::fit(const ModuleCharacterization& c) {
  sum_.assign(static_cast<std::size_t>(4 * buckets_), 0.0);
  count_.assign(sum_.size(), 0.0);
  for (std::size_t t = 0; t < c.transitions(); ++t) {
    std::size_t i = index(c.prev_word[t], c.cur_word[t], c.n_in);
    sum_[i] += c.energy[t];
    count_[i] += 1.0;
  }
  fallback_ = c.mean_energy();
}

double ClusterModel::predict_cycle(std::uint64_t prev, std::uint64_t cur,
                                   int n_in) const {
  std::size_t i = index(prev, cur, n_in);
  return count_[i] > 0.0 ? sum_[i] / count_[i] : fallback_;
}

void DualBitIoModel::fit(const ModuleCharacterization& c,
                         std::span<const int> word_widths, int sign_bits) {
  db_.fit(c, word_widths, sign_bits);
  stats::Matrix x(c.transitions());
  for (std::size_t t = 0; t < c.transitions(); ++t)
    x[t] = {db_.predict_cycle(c.prev_word[t], c.cur_word[t]),
            c.out_activity[t]};
  fit_ = stats::ols(x, c.energy);
}

double DualBitIoModel::predict_cycle(const ModuleCharacterization& c,
                                     std::size_t t) const {
  double row[2] = {db_.predict_cycle(c.prev_word[t], c.cur_word[t]),
                   c.out_activity[t]};
  return fit_.predict(row);
}

void AnalyticBitwiseModel::build(const netlist::Module& mod,
                                 const netlist::CapacitanceModel& cap) {
  const auto& nl = mod.netlist;
  const netlist::NetlistIndex ix = netlist::build_acyclic_index(nl, cap);
  const std::vector<double>& loads = ix.load;
  auto prop = [](netlist::GateKind k) {
    switch (k) {
      case netlist::GateKind::Xor:
      case netlist::GateKind::Xnor:
      case netlist::GateKind::Not:
      case netlist::GateKind::Buf:
        return 1.0;
      default:
        return 0.5;
    }
  };
  coef_.assign(nl.inputs().size(), 0.0);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    std::vector<double> sens(nl.gate_count(), 0.0);
    sens[nl.inputs()[i]] = 1.0;
    double c = loads[nl.inputs()[i]];
    for (netlist::GateId id : ix.topo) {
      const auto& g = nl.gate(id);
      if (!netlist::is_logic(g.kind)) continue;
      double p = 0.0;
      for (netlist::GateId f : g.fanins) p += sens[f];
      p = std::min(1.0, p) * prop(g.kind);
      sens[id] = p;
      c += p * loads[id];
    }
    coef_[i] = c;
  }
}

double AnalyticBitwiseModel::predict_cycle(
    std::span<const double> pin_toggles) const {
  double e = 0.0;
  for (std::size_t i = 0; i < coef_.size() && i < pin_toggles.size(); ++i)
    e += coef_[i] * pin_toggles[i];
  return e;
}

stats::Matrix SelectedModel::candidates(const ModuleCharacterization& c) {
  stats::Matrix x(c.transitions());
  for (std::size_t t = 0; t < c.transitions(); ++t)
    x[t] = candidate_row(c, t);
  return x;
}

std::vector<double> SelectedModel::candidate_row(
    const ModuleCharacterization& c, std::size_t t) {
  // Per-pin toggles, aggregates, plus first-order temporal (pin value and
  // toggle) and low-order spatial cross terms between adjacent pins.
  std::vector<double> row = c.pin_toggle[t];
  row.push_back(c.in_activity[t]);
  row.push_back(c.in_prob[t]);
  row.push_back(c.out_activity[t]);
  row.push_back(c.in_activity[t] * c.in_prob[t]);
  row.push_back(c.in_activity[t] * c.out_activity[t]);
  for (int i = 0; i + 1 < c.n_in; i += 2) {
    auto a = c.pin_toggle[t][static_cast<std::size_t>(i)];
    auto b = c.pin_toggle[t][static_cast<std::size_t>(i + 1)];
    row.push_back(a * b);
  }
  return row;
}

void SelectedModel::fit(const ModuleCharacterization& c, std::size_t max_vars,
                        double f_enter) {
  auto x = candidates(c);
  auto res = stats::forward_select(x, c.energy, f_enter, max_vars);
  selected_ = res.selected;
  fit_ = res.fit;
}

double SelectedModel::predict_cycle(const ModuleCharacterization& c,
                                    std::size_t t) const {
  auto row = candidate_row(c, t);
  std::vector<double> xs;
  xs.reserve(selected_.size());
  for (std::size_t col : selected_) xs.push_back(row[col]);
  return fit_.predict(xs);
}

MacroModelErrors evaluate_predictions(std::span<const double> predicted,
                                      std::span<const double> reference) {
  MacroModelErrors e;
  if (predicted.empty() || reference.empty()) return e;
  double mp = stats::mean(predicted), mr = stats::mean(reference);
  e.avg_power_error = mr != 0.0 ? std::abs(mp - mr) / mr : 0.0;
  double se = 0.0, sa = 0.0;
  std::size_t n = 0;
  for (std::size_t t = 0; t < predicted.size() && t < reference.size(); ++t) {
    if (reference[t] <= 1e-12) continue;
    double rel = (predicted[t] - reference[t]) / reference[t];
    se += rel * rel;
    sa += std::abs(rel);
    ++n;
  }
  if (n) {
    e.cycle_rms_error = std::sqrt(se / static_cast<double>(n));
    e.cycle_mean_abs_error = sa / static_cast<double>(n);
  }
  return e;
}

}  // namespace hlp::core
