#pragma once

// Shared plumbing for the end-to-end benchmark: clocks, process CPU/RSS
// probes, order statistics, the loopback line client, and the result record
// every workload fills in.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace hlp::model {}  // declared here so the alias below needs no header

namespace pb {

namespace jobs = hlp::jobs;
namespace model = hlp::model;
namespace serve = hlp::serve;

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double us_since(Clock::time_point a) { return us_between(a, Clock::now()); }
inline double s_since(Clock::time_point a) { return us_since(a) * 1e-6; }

/// Process CPU time (user + sys) in seconds: this process and, separately,
/// its reaped children (forked sandbox kernels).
struct CpuTimes {
  double self_s = 0.0;
  double children_s = 0.0;
  double total() const { return self_s + children_s; }
};
CpuTimes cpu_now();
/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Whole-machine CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor gave to other guests (steal).
struct HostCpu {
  double total = 0.0, steal = 0.0;
};
HostCpu host_cpu();
/// Share of the machine's CPU time stolen between two readings (0 when
/// /proc/stat is unreadable).
double steal_share(const HostCpu& a, const HostCpu& b);

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
double median(std::vector<double> v);

/// Fixed-size latency histogram: log-spaced buckets 0.5% wide from 0.1 µs
/// to about 100 s, so its memory never depends on how many operations ran.
/// Quantiles interpolate geometrically inside the bucket holding the rank,
/// which keeps them within 0.5% of the exact sample quantile.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(double us);
  void merge(const LatencyHistogram& o);
  void clear();
  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<std::uint32_t> buckets_;
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
};

/// One slice of a timed loop: equal time slices for serve, one batch for
/// the campaign. Only the slice's summary is kept, never its samples.
struct Window {
  double steal = 0.0;  ///< host steal share during the slice
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;  ///< of the slice's latencies
  std::uint64_t latencies = 0;             ///< operations behind them
  double ops = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process + reaped children
  /// Fill the latency fields from the slice's histogram.
  void set_latency(const LatencyHistogram& h);
};

struct EndToEnd {
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  double throughput = 0.0;     ///< operations per wall second
  double cpu_us_per_op = 0.0;
};

/// The end-to-end figures are medians over the quietest quarter of the
/// slices: those during which the hypervisor stole the least CPU time from
/// this machine, earlier slices first among equals (so on a host with no
/// steal at all, the run's first quarter). Steal comes in bursts of a second
/// or so when other guests get busy, and a slice it hits loses up to a third
/// of its throughput, so the quiet slices measure the program and not its
/// neighbours; a run with steal in half its slices still has a clean
/// quarter. Quantile q is the
/// median of the quiet slices' q-quantiles when each holds at least
/// 10 / (1 - q) operations (ten beyond the quantile), else the whole run's
/// (`all`); throughput and CPU per operation are quiet-slice medians.
EndToEnd summarize(const std::vector<Window>& windows,
                   const LatencyHistogram& all);

/// One named, unit-tagged number in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the result line's four keys.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed correctness check (printed, and the run is incorrect).
  void check(bool ok, const std::string& what);
};

/// True for a response line that starts {"ok":true.
bool ok_response(const std::string& resp);

/// The kernel call a serve request asks for, with the request's own seed.
jobs::KernelRequest kernel_request(const serve::Request& rq);

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch files (ledger, models, replay files)
};

/// Blocking line client over loopback TCP: one request line out, one
/// response line back.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  bool connect_to(std::uint16_t port);
  /// `framed` must end in '\n'. False on any socket error or EOF.
  bool roundtrip(const std::string& framed, std::string& resp);

 private:
  int fd_ = -1;
  std::string buf_;
};

/// 64-bit FNV-1a over the bit patterns of a value sequence: the digest two
/// commits must agree on when neither changed an estimator.
class ValueDigest {
 public:
  void add(double v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// splitmix64: the benchmark's only source of workload randomness, seeded
/// from the command line.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic in-place shuffle driven by mix64.
template <class T>
void shuffle(std::vector<T>& v, std::uint64_t& state) {
  for (std::size_t i = v.size(); i > 1; --i) {
    state = mix64(state);
    std::swap(v[i - 1], v[state % i]);
  }
}

}  // namespace pb
