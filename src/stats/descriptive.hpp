#pragma once

#include <cstddef>
#include <span>

namespace hlp::stats {

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Used by the sampling-based power estimators (Section II-C2 of the paper)
/// where per-cycle power values arrive one at a time and both the census and
/// sampler macro-models need running moments.
class RunningStats {
 public:
  /// Inline: Monte Carlo calls it once per pair, and the next pair's mean
  /// waits on this one's divide, so the call itself would sit on that chain.
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  /// Fold another accumulator into this one (Chan et al. pairwise
  /// combination of Welford states). Each worker of a parallel campaign
  /// keeps a private accumulator and the supervisor merges them in a fixed
  /// (job-id) order afterwards, so the merged moments are deterministic —
  /// independent of thread schedule — and exact: merging partitions of a
  /// stream yields the same count/mean/M2 as accumulating the stream in
  /// one piece, up to floating-point association of the partition points.
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const;
  /// Standard error of the mean.
  double stderr_mean() const;

  /// Second central moment sum (Welford's M2). Together with count()/mean()
  /// this is the accumulator's full state, so an estimation run can be
  /// checkpointed and resumed (exec-budgeted Monte Carlo power).
  double m2() const { return m2_; }
  /// Rebuild an accumulator from checkpointed state; continuing add() calls
  /// behave exactly as if the original had never stopped.
  static RunningStats restore(std::size_t n, double mean, double m2) {
    RunningStats rs;
    rs.n_ = n;
    rs.mean_ = mean;
    rs.m2_ = m2;
    return rs;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  // unbiased, n-1
double stddev(std::span<const double> xs);

/// Pearson correlation coefficient; 0 if either side is constant.
double correlation(std::span<const double> xs, std::span<const double> ys);

/// Mean absolute relative error of `est` against reference `ref`,
/// skipping reference values with magnitude below `eps`.
double mean_abs_rel_error(std::span<const double> est,
                          std::span<const double> ref, double eps = 1e-12);

/// Two-sided normal quantile for the confidence levels the estimators use
/// (0.95 -> 1.96). Shared by the Monte Carlo CI stopping rule and the
/// macromodel prediction intervals so "confidence" means the same thing on
/// both tiers.
inline double normal_quantile_two_sided(double confidence) {
  // Normal-approximation quantiles for the confidence levels we use.
  if (confidence >= 0.995) return 2.807;
  if (confidence >= 0.99) return 2.576;
  if (confidence >= 0.95) return 1.96;
  if (confidence >= 0.90) return 1.645;
  return 1.282;
}

/// Half-width of the two-sided normal-approximation confidence interval
/// for the mean at the given confidence level (e.g. 0.95 -> 1.96 * SE).
double ci_halfwidth(const RunningStats& s, double confidence = 0.95);

}  // namespace hlp::stats
