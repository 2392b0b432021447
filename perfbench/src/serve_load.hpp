#pragma once

// The serve_hot workload: an in-process serve::Server configured like the
// hlp_serve daemon, driven by two loopback connections in a closed loop over
// a warmed working set spanning all five kinds (cache hits) plus
// accuracy-carrying adder requests (predicted tier).

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "model/registry.hpp"
#include "serve/server.hpp"

namespace pb {

inline constexpr int kConnections = 2;

/// Slices per timed loop (see Window): short enough that a burst of host
/// steal spoils few of them.
inline constexpr int kWindows = 40;

/// One timed closed-loop pass over the per-connection request sequences.
struct LoopStats {
  std::vector<Window> windows;
  LatencyHistogram all;  ///< every round trip of the loop
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Pool gauges sampled every ~2 ms during the loop (traced loops only).
  double queue_depth_mean = 0.0;
  double busy_workers_mean = 0.0;
};

/// The hlp_serve daemon's defaults, which the served workload runs under.
serve::ServerOptions daemon_options();

/// Characterize and fit the adder-family symbolic macromodel, save it to
/// `path`, and report the two phases' wall times.
struct ModelFit {
  double characterize_s = 0.0;
  double fit_ms = 0.0;
  std::shared_ptr<const hlp::model::ModelRegistry> registry;
};
ModelFit fit_adder_model(const std::string& path);

class ServeLoad {
 public:
  explicit ServeLoad(const Options& opt);
  ~ServeLoad();

  /// Build everything the measured loop needs (model, request list, server,
  /// warm cache and feature memo). Returns its wall time in seconds. Calling it again
  /// tears the previous server down and sets up afresh.
  double setup();
  /// Run both connections for `seconds` (or until their lists end).
  LoopStats loop(double seconds, bool sample_pool);
  /// Correctness gate, run outside the timed region: the first round of
  /// each connection equals direct in-process kernel values bit for bit,
  /// and predicted intervals contain the exact value.
  void gate(Result& r, ValueDigest& digest);

  /// Requests setup sends (the warm set and the accuracy requests, whose
  /// features it memoizes) and the start of connection 0's sequence, for
  /// the per-layer replay.
  const std::vector<hlp::serve::Request>& warm_ops() const { return distinct_; }
  std::vector<hlp::serve::Request> sample_ops(std::size_t n) const;
  serve::ServiceOptions service_options() const;
  hlp::serve::Server& server() { return *server_; }
  std::uint64_t accuracy_sent() const { return accuracy_sent_; }
  const ModelFit& model_fit() const { return fit_; }

 private:
  /// Index into distinct_ of request `i` of connection `c`: a pure function
  /// of the workload seed, so each connection's sequence is fixed before the
  /// run and a loop cut by its deadline sees a prefix of it. The sequence is
  /// whole shuffled rounds of the distinct requests, so every prefix keeps
  /// the mix within one round.
  std::size_t op_index(int c, std::size_t i) const;

  Options opt_;
  ModelFit fit_;
  std::string model_path_;
  std::unique_ptr<hlp::serve::Server> server_;
  /// The distinct requests (warm set + accuracy requests) and their lines.
  std::vector<hlp::serve::Request> distinct_;
  std::vector<std::string> distinct_lines_;
  /// First responses of each connection's last loop, kept for the gate.
  std::vector<std::vector<std::string>> kept_;
  std::uint64_t accuracy_sent_ = 0;
};

}  // namespace pb
