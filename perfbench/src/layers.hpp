#pragma once

// Per-layer replay for the traced run. The benchmark cannot open spans
// inside the program, so it replays a workload's requests through each
// layer's public function and times every call from outside:
//
//   * a twin replay server over TCP (the round trip) and an identically
//     configured in-process twin Service (handle_line), fed the same request
//     sequence so their memo and cache states match;
//   * the handle_line children one by one: Request::parse, Service::keys,
//     ResultCache lookup/insert, CacheSegmentFile::append, the predicted
//     tier, the kernel (in process and in a sandbox child), response
//     serialization;
//   * the kernel's own layers: netlist build and hash, BDD build and
//     sat-fraction, static analysis, Monte Carlo and the block simulator's
//     input transpose and gate kernel.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "model/registry.hpp"
#include "serve/service.hpp"

namespace pb {

struct ReplayInput {
  /// Requests the workload caches before it is measured (processed first,
  /// outside the reconciliation).
  std::vector<serve::Request> warm;
  /// The workload's own requests, in order.
  std::vector<serve::Request> ops;
  serve::ServiceOptions service;
  std::shared_ptr<const model::ModelRegistry> models;
  std::string work_dir;
  double budget_s = 10.0;  ///< stop replaying `ops` after this long
  /// Also run the replayed requests as a jobs::Runner campaign (serve_hot;
  /// the campaign workload measures its own runner).
  bool runner_pass = true;
};

/// Mean per-request self times of the replayed path (µs), which sum to the
/// replayed round trip: transport + handle_line self + its children.
struct Reconciliation {
  std::size_t requests = 0;
  double roundtrip = 0.0;
  double handle_line = 0.0;
  std::vector<std::pair<std::string, double>> children;  ///< in path order
  double handle_line_self() const;
  double transport() const { return roundtrip - handle_line; }
};

struct ReplayOutput {
  Reconciliation rec;
  /// Mean in-process kernel time per call, by kind name.
  std::map<std::string, double> kernel_us;
  double mc_us = 0.0, set_inputs_us = 0.0, eval_us = 0.0;  ///< per MC call
  double child_crashes = 0.0;
};

/// Replay and add every per-layer metric except the workload-level ones
/// (model fit, traced loop figures), which the caller adds.
ReplayOutput replay_layers(const ReplayInput& in, Result& r);

/// Print a reconciliation table.
void print_reconciliation(const std::string& title, double total,
                          const std::string& residual_name, double residual,
                          const std::vector<std::pair<std::string, double>>& parts);

}  // namespace pb
