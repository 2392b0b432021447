// E-JOBS — Cost of supervised campaign execution (src/jobs).
//
// Three questions decide how the job runner should be configured by
// default:
//
//  1. Scaling: jobs/sec for a homogeneous Monte Carlo campaign at worker
//     counts 1/2/4/8. The kernels are independent, so throughput should
//     scale until the machine runs out of cores.
//
//  2. Ledger overhead: every state transition is fsync'd before the runner
//     acts on it; how much of a serial campaign's wall time does that
//     write-ahead discipline cost?
//
//  3. Resume latency: re-running a finished campaign against its ledger
//     recomputes nothing — how fast is "scan + serve results back"?
//
// Results go to BENCH_jobs.json (cwd, or argv[1] after the
// google-benchmark flags).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "jobs/jobs.hpp"

namespace {

using namespace hlp;
using clock_type = std::chrono::steady_clock;

constexpr int kJobs = 32;

std::vector<jobs::Job> make_campaign() {
  std::vector<jobs::Job> c;
  c.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    jobs::Job j;
    j.id = "mc-" + std::to_string(i);
    j.kind = jobs::JobKind::MonteCarlo;
    // Rotate through designs of different sizes so workers see uneven job
    // costs; a tight epsilon keeps each kernel busy for a few ms, which is
    // the regime the pool is for (µs-long jobs are dominated by handoff).
    static const char* kDesigns[] = {"alu:12", "adder:16", "mult:8",
                                     "comparator:16"};
    j.design = kDesigns[i % 4];
    j.epsilon = 0.008;
    c.push_back(j);
  }
  return c;
}

std::string tmp_ledger() {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp ? tmp : "/tmp") + "/bench_jobs.ledger";
}

double run_campaign_seconds(int workers, const std::string& ledger_path,
                            bool resume = false) {
  jobs::RunnerOptions opts;
  opts.workers = workers;
  opts.ledger_path = ledger_path;
  jobs::Runner runner(opts);
  std::vector<jobs::Job> campaign = make_campaign();
  auto t0 = clock_type::now();
  jobs::CampaignResult cr =
      resume ? runner.resume(campaign) : runner.run(campaign);
  auto t1 = clock_type::now();
  benchmark::DoNotOptimize(cr.value_stats.mean());
  if (!cr.all_completed()) std::fprintf(stderr, "bench campaign failed!\n");
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-`reps` to damp scheduler noise.
double best_seconds(int workers, const std::string& ledger, int reps,
                    bool resume = false) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r)
    best = std::min(best, run_campaign_seconds(workers, ledger, resume));
  return best;
}

void BM_Campaign(benchmark::State& st) {
  const int workers = static_cast<int>(st.range(0));
  for (auto _ : st)
    benchmark::DoNotOptimize(run_campaign_seconds(workers, ""));
  st.counters["jobs_per_sec"] = benchmark::Counter(
      static_cast<double>(kJobs) * static_cast<double>(st.iterations()),
      benchmark::Counter::kIsRate);
}

void write_report(const std::string& path) {
  std::printf("\n--- BENCH_jobs report ---\n");
  const int reps = 3;

  benchjson::Array scaling;
  double serial_jps = 0.0;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("campaign throughput (%d Monte Carlo jobs, no ledger, "
              "%u hardware threads)\n",
              kJobs, cores);
  for (int workers : {1, 2, 4, 8}) {
    double secs = best_seconds(workers, "", reps);
    double jps = kJobs / secs;
    if (workers == 1) serial_jps = jps;
    std::printf("  workers %d: %7.1f jobs/sec (speedup %.2fx)\n", workers,
                jps, jps / serial_jps);
    scaling.push_back(benchjson::Object{
        {"workers", workers},
        {"jobs_per_sec", jps},
        {"speedup", jps / serial_jps},
    });
  }

  const std::string ledger = tmp_ledger();
  double plain = best_seconds(1, "", reps);
  double journaled = best_seconds(1, ledger, reps);
  double overhead_pct = 100.0 * (journaled - plain) / plain;
  std::printf("ledger overhead (serial): %.3fs -> %.3fs  (+%.1f%%, "
              "group-committed fsync)\n",
              plain, journaled, overhead_pct);

  // Concurrent variant: with several workers completing records at once
  // the group commit should fold their fsyncs together, so the journaled
  // penalty must not grow with the worker count.
  const int cworkers = 4;
  double cplain = best_seconds(cworkers, "", reps);
  double cjournaled = best_seconds(cworkers, ledger, reps);
  double coverhead_pct = 100.0 * (cjournaled - cplain) / cplain;
  std::printf("ledger overhead (workers %d): %.3fs -> %.3fs  (+%.1f%%)\n",
              cworkers, cplain, cjournaled, coverhead_pct);

  // Resume latency: the ledger now holds a finished campaign; resuming it
  // recomputes nothing and just serves recorded values back.
  run_campaign_seconds(1, ledger);  // leave a complete ledger behind
  double resume_secs = best_seconds(1, ledger, reps, /*resume=*/true);
  std::printf("resume of finished campaign: %.3f ms total, %.3f ms/job\n",
              resume_secs * 1e3, resume_secs * 1e3 / kJobs);
  std::remove(ledger.c_str());

  benchjson::Object root{
      {"bench", "jobs"},
      // Speedup is bounded by the machine: on a 1-core box every worker
      // count collapses to serial plus handoff overhead.
      {"machine", benchjson::machine()},
      {"campaign_jobs", kJobs},
      {"scaling", std::move(scaling)},
      {"ledger_overhead",
       benchjson::Object{
           {"plain_seconds", plain},
           {"journaled_seconds", journaled},
           {"overhead_percent", overhead_pct},
       }},
      {"ledger_overhead_concurrent",
       benchjson::Object{
           {"workers", cworkers},
           {"plain_seconds", cplain},
           {"journaled_seconds", cjournaled},
           {"overhead_percent", coverhead_pct},
       }},
      {"resume",
       benchjson::Object{
           {"finished_campaign_seconds", resume_secs},
           {"per_job_seconds", resume_secs / kJobs},
       }},
  };
  if (benchjson::save(path, root))
    std::printf("\nwrote %s\n", path.c_str());
  else
    std::printf("\nfailed to write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  for (int workers : {1, 2, 4, 8})
    benchmark::RegisterBenchmark(
        ("BM_Campaign/workers:" + std::to_string(workers)).c_str(),
        BM_Campaign)
        ->Arg(workers)
        ->Unit(benchmark::kMillisecond);
  benchmark::RunSpecifiedBenchmarks();
  const char* path = "BENCH_jobs.json";
  if (argc > 1 && argv[1][0] != '-') path = argv[1];
  write_report(path);
  return 0;
}
