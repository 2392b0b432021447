#include "stats/descriptive.hpp"

#include <cmath>

namespace hlp::stats {

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * (nb / n);
  m2_ += other.m2_ + delta * delta * (na * nb / n);
  n_ += other.n_;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const {
  return n_ ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double correlation(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  double mx = mean(xs), my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double mean_abs_rel_error(std::span<const double> est,
                          std::span<const double> ref, double eps) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < est.size() && i < ref.size(); ++i) {
    if (std::abs(ref[i]) < eps) continue;
    sum += std::abs(est[i] - ref[i]) / std::abs(ref[i]);
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double ci_halfwidth(const RunningStats& s, double confidence) {
  return normal_quantile_two_sided(confidence) * s.stderr_mean();
}

}  // namespace hlp::stats
