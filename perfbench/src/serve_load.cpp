#include "serve_load.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "jobs/kernels.hpp"
#include "model/artifact.hpp"
#include "model/characterize.hpp"

namespace pb {

namespace {

struct Spec {
  jobs::JobKind kind;
  std::string design;  ///< "%S" is replaced by a fresh design seed
};

/// Warm working set of serve_hot: every kind, small designs, all cached
/// during setup. Random-family members get a seed-derived design seed.
const std::vector<Spec>& hot_warm_specs() {
  using K = jobs::JobKind;
  static const std::vector<Spec> specs = {
      {K::Symbolic, "adder:4"},       {K::Symbolic, "adder:6"},
      {K::Symbolic, "adder:8"},       {K::Symbolic, "mult:4"},
      {K::Symbolic, "mult:5"},        {K::Symbolic, "comparator:6"},
      {K::Symbolic, "parity:12"},     {K::Symbolic, "c17"},
      {K::MonteCarlo, "adder:8"},     {K::MonteCarlo, "mult:4"},
      {K::MonteCarlo, "comparator:8"}, {K::MonteCarlo, "alu:4"},
      {K::MonteCarlo, "random:16:300:4:%S"},
      {K::Static, "mult:4"},          {K::Static, "adder:8"},
      {K::Static, "c17"},             {K::Static, "random:16:300:4:%S"},
      {K::Markov, "traffic"},         {K::Markov, "dma"},
      {K::Markov, "elevator"},        {K::Markov, "uart-rx"},
      {K::Schedule, "fir:8"},         {K::Schedule, "fir:16"},
      {K::Schedule, "poly:6"},        {K::Schedule, "horner:6"},
      {K::Schedule, "expr:20:%S"},    {K::Schedule, "branching:4:4:%S"},
      {K::Schedule, "opshare:4:4"},
  };
  return specs;
}

/// In-hull adder designs asked with an accuracy the fitted model meets:
/// 5 of every 33 hot requests (~15%).
const std::vector<std::string>& hot_accuracy_designs() {
  static const std::vector<std::string> d = {"adder:4", "adder:6", "adder:8",
                                             "adder:10", "adder:12"};
  return d;
}
constexpr double kHotAccuracy = 0.5;

std::string with_design_seed(const std::string& design, std::uint64_t s) {
  const std::size_t at = design.find("%S");
  if (at == std::string::npos) return design;
  return design.substr(0, at) + std::to_string(s & ((1ull << 62) - 1));
}

serve::Request make_request(const Spec& sp, std::uint64_t seed) {
  serve::Request rq;
  rq.op = serve::Op::Estimate;
  rq.kind = sp.kind;
  rq.design = with_design_seed(sp.design, mix64(seed ^ 0x5eed));
  rq.has_seed = true;
  rq.seed = seed;
  return rq;
}

}  // namespace

serve::ServerOptions daemon_options() {
  serve::ServerOptions s;
  s.service.isolate = serve::IsolateMode::Symbolic;
  return s;
}

ModelFit fit_adder_model(const std::string& path) {
  ModelFit f;
  model::SweepSpec spec;
  spec.family = "adder";
  spec.kind = jobs::JobKind::Symbolic;
  spec.params = {4, 6, 8, 10, 12};
  spec.input_p = {0.3, 0.5, 0.7};
  jobs::RunnerOptions ro;
  // One worker: the campaign's order, and so the allocator's high-water
  // mark behind peak_rss_mb, is then the same on every run.
  ro.workers = 1;
  const auto t0 = Clock::now();
  const model::Characterization ch = model::characterize(spec, ro);
  f.characterize_s = s_since(t0);
  const auto t1 = Clock::now();
  const model::FitReport rep =
      model::fit_macromodel(ch.rows, "adder", "symbolic");
  f.fit_ms = us_since(t1) * 1e-3;
  std::string err;
  const std::vector<model::Macromodel> models = {rep.model};
  if (!model::save_models_file(path, models, err))
    throw std::runtime_error("saving the model registry failed: " + err);
  auto reg = std::make_shared<model::ModelRegistry>();
  reg->insert(rep.model);
  f.registry = std::move(reg);
  return f;
}

ServeLoad::ServeLoad(const Options& opt)
    : opt_(opt), model_path_(opt.work_dir + "/models.hlpm") {}

ServeLoad::~ServeLoad() = default;

serve::ServiceOptions ServeLoad::service_options() const {
  serve::ServiceOptions s = daemon_options().service;
  s.model_path = model_path_;
  return s;
}

std::size_t ServeLoad::op_index(int c, std::size_t i) const {
  const std::size_t n = distinct_.size();
  std::vector<std::size_t> round(n);
  for (std::size_t k = 0; k < n; ++k) round[k] = k;
  std::uint64_t state = mix64(opt_.seed ^ (std::uint64_t(c) << 48) ^ (i / n));
  shuffle(round, state);
  return round[i % n];
}

double ServeLoad::setup() {
  server_.reset();
  std::filesystem::remove(model_path_);
  const auto t0 = Clock::now();
  serve::ServerOptions so = daemon_options();
  so.service = service_options();
  fit_ = fit_adder_model(model_path_);
  distinct_.clear();
  const auto& specs = hot_warm_specs();
  for (std::size_t i = 0; i < specs.size(); ++i)
    distinct_.push_back(make_request(specs[i], mix64(opt_.seed * 131 + i)));
  for (const std::string& d : hot_accuracy_designs()) {
    serve::Request rq;
    rq.op = serve::Op::Estimate;
    rq.kind = jobs::JobKind::Symbolic;
    rq.design = d;
    rq.has_accuracy = true;
    rq.accuracy = kHotAccuracy;
    distinct_.push_back(rq);
  }
  distinct_lines_.clear();
  for (const auto& rq : distinct_)
    distinct_lines_.push_back(rq.serialize() + "\n");
  server_ = std::make_unique<serve::Server>(so);
  server_->start();
  {
    // Warm the cache and the feature memo: lazy set-up finishes here.
    LineClient c;
    if (!c.connect_to(server_->port()))
      throw std::runtime_error("warm-up connect failed");
    std::string resp;
    for (const std::string& line : distinct_lines_) {
      if (!c.roundtrip(line, resp) || !ok_response(resp))
        throw std::runtime_error("warm-up request failed: " + resp);
    }
  }
  return s_since(t0);
}

std::vector<serve::Request> ServeLoad::sample_ops(std::size_t n) const {
  std::vector<serve::Request> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(distinct_[op_index(0, i)]);
  return out;
}

LoopStats ServeLoad::loop(double seconds, bool sample_pool) {
  LoopStats st;
  // Kept for the gate: the first round of each connection.
  const std::size_t keep = distinct_.size();
  const double slice_s = seconds / kWindows;
  kept_.assign(kConnections, {});
  /// Per connection and slice: latencies of the requests that finished in
  /// the slice (a request finishing after the deadline belongs to none).
  std::vector<std::vector<LatencyHistogram>> done_in(
      kConnections, std::vector<LatencyHistogram>(kWindows));
  std::vector<std::uint64_t> attempted(kConnections, 0),
      failed(kConnections, 0), accuracy(kConnections, 0);
  std::atomic<int> connected{0};
  std::atomic<bool> go{false}, finished{false};
  Clock::time_point start, deadline;

  auto client = [&](int c) {
    LineClient cl;
    const bool up = cl.connect_to(server_->port());
    connected.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    if (!up) {
      failed[c] = attempted[c] = 1;
      return;
    }
    std::string resp;
    for (std::size_t i = 0;; ++i) {
      const std::size_t d = op_index(c, i);
      const std::string& line = distinct_lines_[d];
      ++attempted[c];
      const auto t0 = Clock::now();
      const bool ok = cl.roundtrip(line, resp);
      const auto t1 = Clock::now();
      if (!ok) {
        ++failed[c];
        break;
      }
      const auto w =
          static_cast<std::size_t>(us_between(start, t1) * 1e-6 / slice_s);
      if (w < kWindows)
        done_in[c][w].add(us_between(t0, t1));
      bool good = ok_response(resp);
      if (distinct_[d].has_accuracy) {
        // Every accuracy request must come back from the predicted tier
        // with a finite interval around its value.
        ++accuracy[c];
        serve::ResponseView v;
        good = good && serve::parse_response(resp, v) &&
               v.tier == "predicted" && v.has_interval &&
               std::isfinite(v.interval_lo) && std::isfinite(v.interval_hi) &&
               v.interval_lo <= v.value && v.value <= v.interval_hi;
      }
      if (!good) ++failed[c];
      if (kept_[c].size() < keep) kept_[c].push_back(resp);
      if (t1 >= deadline) break;
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(client, c);
  while (connected.load() < kConnections) std::this_thread::yield();

  double qsum = 0.0, bsum = 0.0;
  std::uint64_t samples = 0;
  std::thread sampler;
  // CPU time, clock and host steal at each slice boundary.
  std::vector<double> cpu_marks;
  std::vector<Clock::time_point> marks;
  std::vector<HostCpu> host_marks;
  host_marks.push_back(host_cpu());
  cpu_marks.push_back(cpu_now().total());
  start = Clock::now();
  marks.push_back(start);
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  if (sample_pool) {
    sampler = std::thread([&] {
      while (!finished.load(std::memory_order_acquire)) {
        const serve::ServiceMetrics m = server_->service().metrics();
        qsum += static_cast<double>(m.queue_depth);
        bsum += m.busy_workers;
        ++samples;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  for (int w = 1; w <= kWindows; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(slice_s * w)));
    cpu_marks.push_back(cpu_now().total());
    marks.push_back(Clock::now());
    host_marks.push_back(host_cpu());
  }
  for (auto& t : threads) t.join();
  finished.store(true, std::memory_order_release);
  if (sampler.joinable()) sampler.join();
  if (samples > 0) {
    st.queue_depth_mean = qsum / static_cast<double>(samples);
    st.busy_workers_mean = bsum / static_cast<double>(samples);
  }
  st.windows.resize(kWindows);
  for (int w = 0; w < kWindows; ++w) {
    st.windows[w].wall_s = us_between(marks[w], marks[w + 1]) * 1e-6;
    st.windows[w].cpu_s = cpu_marks[w + 1] - cpu_marks[w];
    st.windows[w].steal = steal_share(host_marks[w], host_marks[w + 1]);
  }
  for (int c = 0; c < kConnections; ++c) {
    st.attempted += attempted[c];
    st.failed += failed[c];
    accuracy_sent_ += accuracy[c];
  }
  for (int w = 0; w < kWindows; ++w) {
    LatencyHistogram& slice = done_in[0][w];
    for (int c = 1; c < kConnections; ++c) slice.merge(done_in[c][w]);
    st.windows[w].set_latency(slice);
    st.windows[w].ops = static_cast<double>(slice.count());
    st.all.merge(slice);
  }
  return st;
}

void ServeLoad::gate(Result& r, ValueDigest& digest) {
  std::size_t exact = 0, predicted = 0;
  for (int c = 0; c < kConnections; ++c) {
    for (std::size_t i = 0; i < kept_[c].size(); ++i) {
      const serve::Request& rq = distinct_[op_index(c, i)];
      serve::ResponseView v;
      if (!serve::parse_response(kept_[c][i], v) || !v.ok || !v.has_value) {
        r.check(false, "unparsable or failed response for " + rq.design);
        continue;
      }
      const jobs::AttemptOutcome direct = jobs::run_kernel(kernel_request(rq), {});
      if (rq.has_accuracy) {
        // The interval must cover the exact kernel value, not just its own
        // centre.
        r.check(v.tier == "predicted" && direct.ok &&
                    v.interval_lo <= direct.out.value &&
                    direct.out.value <= v.interval_hi,
                "predicted interval misses the exact value for " + rq.design);
        ++predicted;
        continue;
      }
      r.check(direct.ok && direct.out.value == v.value,
              std::string("served value differs from the direct kernel for ") +
                  jobs::to_string(rq.kind) + " " + rq.design);
      digest.add(v.value);
      ++exact;
    }
  }
  r.check(exact > 0, "no exact responses kept for the gate");
  std::printf("# gate: %zu exact responses equal direct kernels, %zu "
              "predicted intervals cover the exact value\n",
              exact, predicted);
}

}  // namespace pb
