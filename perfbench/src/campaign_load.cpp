#include "campaign_load.hpp"

#include <cstdio>
#include <map>
#include <mutex>

#include "jobs/kernels.hpp"
#include "jobs/spec.hpp"

namespace pb {

namespace {

/// Rounds per batch, and batches built up front by setup. The loop cycles
/// through them, so the job lists' memory does not grow with the number of
/// jobs a run completes.
constexpr std::size_t kRoundsPerBatch = 25;
constexpr std::size_t kPrebuiltBatches = 40;

/// One round of the campaign mix as spec lines ("%S" = fresh design seed,
/// "%C" = a controller, "%F" = an FIR tap count, both rotating). Every
/// batch is whole rounds, so every batch has the same composition. The
/// weights put each latency quantile inside one narrow class rather than on
/// the edge between two: markov, schedule and the small symbolic designs
/// fill the bottom 30%, symbolic adder:8 and mult:5 the next 40% (p50),
/// adder:10 and the MC mult:8 15%, symbolic mult:6 10% (p90) and the MC
/// random DAGs the top 5%.
const std::vector<std::string>& round_lines() {
  static const std::vector<std::string> lines = {
      "markov %C",
      "markov %C",
      "schedule fir:%F",
      "schedule fir:%F",
      "symbolic adder:6",
      "symbolic mult:4",
      "symbolic adder:8",
      "symbolic adder:8",
      "symbolic adder:8",
      "symbolic adder:8",
      "symbolic mult:5",
      "symbolic mult:5",
      "symbolic mult:5",
      "symbolic mult:5",
      "monte-carlo mult:8 epsilon=0.005 max-pairs=200000",
      "symbolic adder:10",
      "symbolic adder:10",
      "symbolic mult:6",
      "symbolic mult:6",
      "monte-carlo random:24:2000:8:%S epsilon=0.005 max-pairs=200000",
  };
  return lines;
}

const char* const kControllers[] = {"traffic", "uart-rx", "dma", "elevator"};
const int kFirTaps[] = {8, 16, 24, 32};

/// A job as the serve request for the same kernel call.
serve::Request as_request(const jobs::Job& j) {
  serve::Request rq;
  rq.op = serve::Op::Estimate;
  rq.kind = j.kind;
  rq.design = j.design;
  rq.has_seed = true;
  rq.seed = jobs::job_seed(j.id);
  rq.epsilon = j.epsilon;
  rq.confidence = j.confidence;
  rq.min_pairs = j.min_pairs;
  rq.max_pairs = j.max_pairs;
  rq.max_iters = j.max_iters;
  return rq;
}

std::string substitute(std::string s, const char* key, const std::string& v) {
  const std::size_t at = s.find(key);
  if (at != std::string::npos) s.replace(at, 2, v);
  return s;
}

}  // namespace

CampaignLoad::CampaignLoad(const Options& opt) : opt_(opt) {}

std::vector<jobs::Job> CampaignLoad::batch(std::size_t index) const {
  std::string text = "workers " + std::to_string(kCampaignWorkers) + "\n";
  std::uint64_t state = mix64(opt_.seed * 0x9e37 + index);
  std::vector<std::size_t> order(round_lines().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::size_t job = 0, ctl = 0, fir = 0;
  for (std::size_t r = 0; r < kRoundsPerBatch; ++r) {
    shuffle(order, state);
    for (std::size_t i : order) {
      std::string line = round_lines()[i];
      state = mix64(state);
      line = substitute(line, "%S", std::to_string(state >> 2));
      line = substitute(line, "%C", kControllers[ctl++ % 4]);
      line = substitute(line, "%F", std::to_string(kFirTaps[fir++ % 4]));
      char id[64];
      std::snprintf(id, sizeof(id), "s%llu-b%zu-j%zu",
                    static_cast<unsigned long long>(opt_.seed), index, job++);
      text += "job ";
      text += id;
      text += ' ';
      text += line;
      text += '\n';
    }
  }
  return jobs::parse_campaign_spec(text).jobs;
}

double CampaignLoad::setup() {
  batches_.clear();
  const auto t0 = Clock::now();
  for (std::size_t b = 0; b < kPrebuiltBatches; ++b) batches_.push_back(batch(b));
  return s_since(t0);
}

CampaignStats CampaignLoad::loop(double seconds) {
  CampaignStats st;
  std::mutex mu;
  LatencyHistogram batch_attempts;
  jobs::RunnerOptions ro;
  ro.workers = kCampaignWorkers;
  ro.kernel_executor = [&](const jobs::KernelRequest& rq,
                           const hlp::exec::Budget& b) {
    const auto t0 = Clock::now();
    jobs::AttemptOutcome out = jobs::run_kernel(rq, b);
    const double us = us_since(t0);
    std::lock_guard<std::mutex> lock(mu);
    batch_attempts.add(us);
    return out;
  };
  jobs::Runner runner(ro);
  std::map<std::string, std::uint64_t> mix;
  double wall_s = 0.0;
  for (std::size_t b = 0; wall_s < seconds; ++b) {
    const std::vector<jobs::Job>& next = batches_[b % batches_.size()];
    batch_attempts.clear();
    const HostCpu h0 = host_cpu();
    const CpuTimes c0 = cpu_now();
    const auto t0 = Clock::now();
    const jobs::CampaignResult res = runner.run(next);
    Window w;
    w.wall_s = s_since(t0);
    w.steal = steal_share(h0, host_cpu());
    w.cpu_s = cpu_now().total() - c0.total();
    w.ops = static_cast<double>(res.completed);
    w.set_latency(batch_attempts);
    wall_s += w.wall_s;
    st.all.merge(batch_attempts);
    st.windows.push_back(w);
    st.attempted += res.results.size();
    st.completed += res.completed;
    st.failed += res.results.size() - res.completed;
    for (std::size_t i = 0; i < res.results.size(); ++i)
      if (res.results[i].status == jobs::JobStatus::Completed)
        ++mix[jobs::to_string(next[i].kind)];
    if (b == 0) first_results_ = res.results;
  }
  st.wall_s = wall_s;
  st.attempt_sum_us = st.all.sum();
  const jobs::RunnerCounters rc = runner.counters();
  st.attempts = rc.attempts_started;
  st.retried = rc.retried;
  st.kind_mix.assign(mix.begin(), mix.end());
  return st;
}

void CampaignLoad::gate(Result& r, ValueDigest& digest) {
  r.check(first_results_.size() == batches_[0].size(), "first batch incomplete");
  std::size_t checked = 0;
  // Every 7th job covers each position of the 20-line round over a batch:
  // gcd(7, 20) = 1.
  for (std::size_t i = 0; i < first_results_.size(); i += 7) {
    const jobs::Job& j = batches_[0][i];
    const jobs::JobResult& res = first_results_[i];
    const jobs::AttemptOutcome direct =
        jobs::run_kernel(kernel_request(as_request(j)), {});
    r.check(res.status == jobs::JobStatus::Completed && !res.degraded &&
                direct.ok && direct.out.value == res.value,
            "campaign value differs from the direct kernel for job " + j.id);
    digest.add(res.value);
    ++checked;
  }
  std::printf("# gate: %zu campaign values equal direct kernels\n", checked);
}

std::vector<serve::Request> CampaignLoad::sample_ops(std::size_t n) const {
  std::vector<serve::Request> out;
  for (std::size_t i = 0; i < n && i < batches_[0].size(); ++i)
    out.push_back(as_request(batches_[0][i]));
  return out;
}

}  // namespace pb
