// End-to-end benchmark for hlpower: closed-loop workloads against the real
// public APIs (see ../NOTES.md for why each exists).
//
//   hlp_perfbench --workload serve_hot|campaign --seed N
//                 --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same loop
// twice (plain, then with pool sampling) and replays the workload's
// requests layer by layer for the per-layer metrics. Either way the last
// stdout line is one JSON object: {"correct","attempted","failed","metrics"}.

#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "campaign_load.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "serve_load.hpp"
#include "sim/engine.hpp"
#include "util/json.hpp"

namespace pb {
namespace {

/// Setups per run; the reported setup_s is their median.
constexpr int kSetups = 15;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hlp_perfbench: %s\nusage: hlp_perfbench --workload "
               "serve_hot|campaign --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v);
    else if (a == "--trace") o.trace = std::atoi(v) != 0;
    else if (a == "--work-dir") o.work_dir = v;
    else usage(("unknown option " + a).c_str());
  }
  if (o.workload != "serve_hot" && o.workload != "campaign")
    usage("unknown workload");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.work_dir.empty()) usage("--work-dir is required");
  return o;
}

/// Where the ledger and model registry live: tmpfs or a disk filesystem.
const char* fs_kind(const std::string& dir) {
  struct statfs sf {};
  if (::statfs(dir.c_str(), &sf) != 0) return "unknown";
  return sf.f_type == 0x01021994 ? "tmpfs" : "disk";
}

void print_machine(const Options& o) {
  std::string j = "{\"nproc\":";
  j += std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  j += ",\"dispatch\":";
  hlp::util::append_json_string(
      j, hlp::sim::to_string(hlp::sim::active_dispatch()));
  j += ",\"compiler\":";
  hlp::util::append_json_string(j, "gcc " __VERSION__);
  j += ",\"build_type\":";
  hlp::util::append_json_string(j, HLP_PERFBENCH_BUILD_TYPE);
  j += ",\"durable_files\":";
  hlp::util::append_json_string(j, fs_kind(o.work_dir));
  j += ",\"workload\":";
  hlp::util::append_json_string(j, o.workload);
  j += ",\"seed\":" + std::to_string(o.seed) + "}";
  std::printf("# machine %s\n", j.c_str());
}

/// Run `setup` in a forked child and return its time. The benchmark has no
/// other threads running here, so the fork is safe; the child's memory
/// never counts toward this process's peak_rss_mb.
double setup_in_child(const std::function<double()>& setup) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    double t = -1.0;
    try {
      t = setup();
    } catch (...) {
    }
    const ssize_t n = ::write(fds[1], &t, sizeof(t));
    ::_exit(n == static_cast<ssize_t>(sizeof(t)) ? 0 : 1);
  }
  ::close(fds[1]);
  double t = -1.0;
  const ssize_t n = ::read(fds[0], &t, sizeof(t));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (n != static_cast<ssize_t>(sizeof(t)) || t < 0.0)
    throw std::runtime_error("set-up failed in a child process");
  return t;
}

/// Median of kSetups set-ups: all but the last in children, so the measured
/// process holds exactly one set-up's memory, as a daemon would.
double setup_median(const std::function<double()>& setup) {
  std::vector<double> t;
  for (int i = 1; i < kSetups; ++i) t.push_back(setup_in_child(setup));
  t.push_back(setup());
  return median(t);
}

/// A fixed probe of the host's single-core speed, independent of the
/// program: a dependent chain of reads through a random cycle over 8 MB,
/// which neighbours' cache and memory traffic slow down. Returns
/// milliseconds.
double host_probe_ms() {
  std::vector<std::uint32_t> next(std::size_t{1} << 21);
  std::vector<std::uint32_t> order(next.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::uint32_t>(i);
  std::uint64_t state = 42;
  shuffle(order, state);
  for (std::size_t i = 0; i < order.size(); ++i)
    next[order[i]] = order[(i + 1) % order.size()];
  const auto t0 = Clock::now();
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < next.size() / 2; ++i) at = next[at];
  const double ms = us_since(t0) * 1e-3;
  return at == next.size() ? -1.0 : ms;  // keeps the chain live
}

/// The host's state over the run: how much CPU time other guests took, how
/// loaded the machine was, and how fast the probe ran (in a child, so its
/// memory stays out of peak_rss_mb). A run on a busy host reads slow on
/// every metric at once; this line tells such runs apart.
void print_host(const HostCpu& before) {
  const double steal = steal_share(before, host_cpu());
  double load[1] = {0.0};
  if (::getloadavg(load, 1) != 1) load[0] = -1.0;
  std::vector<double> probe;
  for (int i = 0; i < 3; ++i) probe.push_back(setup_in_child(host_probe_ms));
  std::printf("# host {\"steal_pct\":%.2f,\"loadavg_1m\":%.2f,"
              "\"probe_ms\":%.2f}\n",
              100.0 * steal, load[0], median(probe));
}

void add_end_to_end(Result& r, double setup_s,
                    const std::vector<Window>& windows,
                    const LatencyHistogram& all) {
  const EndToEnd e = summarize(windows, all);
  r.add("setup_s", setup_s, "s");
  r.add("latency_p50_us", e.p50, "us");
  r.add("latency_p90_us", e.p90, "us");
  r.add("throughput_ops_s", e.throughput, "1/s");
  r.add("cpu_us_per_op", e.cpu_us_per_op, "us");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void add_model_fit(Result& r, const ModelFit& f) {
  r.add("model.characterize_s", f.characterize_s, "s");
  r.add("model.fit_ms", f.fit_ms, "ms");
}

void print_mc_split(const ReplayOutput& out) {
  if (out.mc_us <= 0) return;
  const double outside = out.mc_us - out.set_inputs_us - out.eval_us;
  std::printf("# monte carlo per call: %.1f us = transpose %.1f + gate kernel "
              "%.1f + outside the gate kernel %.1f (%.0f%%: toggles, energy "
              "scatter, vector draws, stopping rule)\n",
              out.mc_us, out.set_inputs_us, out.eval_us, outside,
              100.0 * outside / out.mc_us);
}

Result run_serve_hot(const Options& opt) {
  ServeLoad load(opt);
  Result r;
  const double setup_s = setup_median([&] { return load.setup(); });
  if (!opt.trace) {
    const LoopStats st = load.loop(opt.seconds, false);
    r.attempted = st.attempted;
    r.failed = st.failed;
    add_end_to_end(r, setup_s, st.windows, st.all);
  } else {
    const LoopStats plain = load.loop(opt.seconds / 2, false);
    const LoopStats traced = load.loop(opt.seconds / 2, true);
    r.attempted = plain.attempted + traced.attempted;
    r.failed = plain.failed + traced.failed;
    ReplayInput in;
    in.warm = load.warm_ops();
    in.ops = load.sample_ops(5000);
    in.service = load.service_options();
    in.work_dir = opt.work_dir;
    in.budget_s = opt.seconds;
    const ModelFit& fit = load.model_fit();
    in.models = fit.registry;
    const ReplayOutput out = replay_layers(in, r);
    add_model_fit(r, fit);
    r.add("serve.pool.queue_depth_mean", traced.queue_depth_mean, "count");
    r.add("serve.pool.busy_workers_mean", traced.busy_workers_mean, "count");
    r.add("sandbox.child_crashes",
          out.child_crashes + static_cast<double>(
                                  load.server().service().health().child_crashes),
          "count");
    const double t = traced.all.mean(), u = plain.all.mean();
    r.add("trace.e2e_us", t, "us");
    r.add("trace.untraced_us", u, "us");
    r.add("trace.overhead_us", t - u, "us");
    r.add("trace.residual_us", out.rec.transport(), "us");
    r.add("trace.latency_p99_us", summarize(traced.windows, traced.all).p99, "us");
    std::vector<std::pair<std::string, double>> parts = {
        {"serve.handle_line (self)", out.rec.handle_line_self()}};
    for (const auto& c : out.rec.children) parts.push_back(c);
    print_reconciliation("serve_hot request (replayed, 1 connection)",
                         out.rec.roundtrip, "serve.transport (residual)",
                         out.rec.transport(), parts);
    std::printf("# loop round trip: traced %.2f us, untraced %.2f us, tracing "
                "overhead %.2f us\n", t, u, t - u);
    print_mc_split(out);
  }
  ValueDigest digest;
  load.gate(r, digest);
  const serve::ServiceHealth h = load.server().service().health();
  r.check(h.child_crashes == 0, "sandbox children crashed");
  // Setup's warm-up sends each accuracy request once more.
  r.check(h.model_escalated == 0 && h.model_out_of_hull == 0 &&
              h.model_miss == 0 && h.model_predicted >= load.accuracy_sent(),
          "an accuracy request left the predicted tier");
  std::printf("# digest %s\n", digest.hex().c_str());
  return r;
}

Result run_campaign(const Options& opt) {
  CampaignLoad load(opt);
  Result r;
  const double setup_s = setup_median([&] { return load.setup(); });
  if (!opt.trace) {
    const CampaignStats st = load.loop(opt.seconds);
    r.attempted = st.attempted;
    r.failed = st.failed;
    add_end_to_end(r, setup_s, st.windows, st.all);
  } else {
    const CampaignStats plain = load.loop(opt.seconds / 2);
    const CampaignStats traced = load.loop(opt.seconds / 2);
    r.attempted = plain.attempted + traced.attempted;
    r.failed = plain.failed + traced.failed;
    ReplayInput in;
    in.ops = load.sample_ops(600);
    const std::string model_path = opt.work_dir + "/trace-models.hlpm";
    const ModelFit fit = fit_adder_model(model_path);
    in.service = daemon_options().service;
    in.service.model_path = model_path;
    in.work_dir = opt.work_dir;
    in.budget_s = opt.seconds;
    in.runner_pass = false;
    in.models = fit.registry;
    const ReplayOutput out = replay_layers(in, r);
    add_model_fit(r, fit);
    // Worker time per completed job: attempts (through the kernel_executor
    // hook) plus the runner's idle share (queueing, supervisor hand-offs,
    // the batch tail).
    auto per_job = [](const CampaignStats& s) {
      return s.completed ? kCampaignWorkers * s.wall_s * 1e6 / s.completed : 0.0;
    };
    const double attempt_sum = traced.attempt_sum_us;
    const double e = per_job(traced);
    const double done = static_cast<double>(std::max<std::uint64_t>(traced.completed, 1));
    const double attempt_per_job = attempt_sum / done;
    std::vector<std::pair<std::string, double>> parts;
    double kernels = 0.0;
    for (const auto& [kind, count] : traced.kind_mix) {
      const double v = out.kernel_us.at(kind) * static_cast<double>(count) / done;
      parts.emplace_back("jobs.kernel " + kind + " (replayed)", v);
      kernels += v;
    }
    parts.emplace_back("jobs attempt (self)", attempt_per_job - kernels);
    print_reconciliation("campaign job (worker-us per job)", e,
                         "jobs.runner idle (residual)", e - attempt_per_job,
                         parts);
    print_mc_split(out);
    r.add("serve.pool.queue_depth_mean", 0.0, "count");
    r.add("serve.pool.busy_workers_mean", 0.0, "count");
    r.add("sandbox.child_crashes", out.child_crashes, "count");
    r.add("jobs.runner.utilization",
          traced.wall_s > 0 ? attempt_sum * 1e-6 /
                                  (kCampaignWorkers * traced.wall_s)
                            : 0.0,
          "ratio");
    r.add("jobs.attempts", static_cast<double>(traced.attempts), "count");
    r.add("jobs.retried", static_cast<double>(traced.retried), "count");
    r.add("jobs.failed", static_cast<double>(traced.failed), "count");
    r.add("trace.e2e_us", e, "us");
    r.add("trace.untraced_us", per_job(plain), "us");
    r.add("trace.overhead_us", e - per_job(plain), "us");
    r.add("trace.residual_us", e - attempt_per_job, "us");
    r.add("trace.latency_p99_us", summarize(traced.windows, traced.all).p99, "us");
  }
  ValueDigest digest;
  load.gate(r, digest);
  std::printf("# digest %s\n", digest.hex().c_str());
  return r;
}

void print_result(const Result& r) {
  bool finite = true;
  std::string j = "{\"correct\":";
  std::string m;
  for (const Metric& x : r.metrics) {
    if (!m.empty()) m += ',';
    hlp::util::append_json_string(m, x.name);
    m += ":{\"value\":";
    char buf[64];
    if (std::isfinite(x.value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", x.value);
    } else {
      finite = false;
      std::snprintf(buf, sizeof(buf), "0");
    }
    m += buf;
    m += ",\"unit\":";
    hlp::util::append_json_string(m, x.unit);
    m += '}';
  }
  j += (r.correct && finite) ? "true" : "false";
  j += ",\"attempted\":" + std::to_string(r.attempted);
  j += ",\"failed\":" + std::to_string(r.failed);
  j += ",\"metrics\":{" + m + "}}";
  std::printf("%s\n", j.c_str());
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  const pb::Options opt = pb::parse_args(argc, argv);
  try {
    std::filesystem::create_directories(opt.work_dir);
    pb::print_machine(opt);
    const pb::HostCpu host = pb::host_cpu();
    const pb::Result r = opt.workload == "campaign"
                             ? pb::run_campaign(opt)
                             : pb::run_serve_hot(opt);
    pb::print_host(host);
    pb::print_result(r);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "hlp_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
