#pragma once

// The campaign workload: the hlp_run batch path. A jobs::Runner with three
// workers runs seeded, spec-driven job lists (parsed from campaign-spec
// text, as hlp_run reads them), batch after batch until the run's time is
// up. The runner keeps no ledger: its fsyncs would measure the checkout's
// disk, not the program (the ledger's append is timed in the traced run).

#include <string>
#include <vector>

#include "common.hpp"
#include "jobs/jobs.hpp"

namespace pb {

inline constexpr int kCampaignWorkers = 3;

struct CampaignStats {
  /// One slice per batch: its attempts' latencies, completed jobs, wall
  /// and CPU time.
  std::vector<Window> windows;
  LatencyHistogram all;            ///< every kernel attempt of the loop
  double attempt_sum_us = 0.0;     ///< summed kernel attempt time
  std::uint64_t attempted = 0;     ///< jobs submitted
  std::uint64_t failed = 0;        ///< jobs not completed
  std::uint64_t completed = 0;
  double wall_s = 0.0;
  std::uint64_t attempts = 0, retried = 0;  ///< Runner::counters()
  /// Jobs completed per kind over the loop (the reconciliation weights).
  std::vector<std::pair<std::string, std::uint64_t>> kind_mix;
};

class CampaignLoad {
 public:
  explicit CampaignLoad(const Options& opt);

  /// Build the job lists from spec text. Returns its wall time.
  double setup();
  /// Run batches until `seconds` have passed.
  CampaignStats loop(double seconds);
  /// Sampled job values equal direct kernel calls bit for bit.
  void gate(Result& r, ValueDigest& digest);

  /// The jobs of the first batch, as serve requests (kind, design, seed =
  /// the job's kernel seed, knobs), for the per-layer replay.
  std::vector<serve::Request> sample_ops(std::size_t n) const;

 private:
  std::vector<jobs::Job> batch(std::size_t index) const;

  Options opt_;
  std::vector<std::vector<jobs::Job>> batches_;
  std::vector<jobs::JobResult> first_results_;
};

}  // namespace pb
