#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>

#include "analysis/estimate.hpp"
#include "bdd/bdd.hpp"
#include "bdd/netlist_bdd.hpp"
#include "core/sampling_power.hpp"
#include "jobs/jobs.hpp"
#include "jobs/kernels.hpp"
#include "jobs/ledger.hpp"
#include "model/features.hpp"
#include "netlist/index.hpp"
#include "sandbox/sandbox.hpp"
#include "serve/cache.hpp"
#include "serve/cachefile.hpp"
#include "serve/server.hpp"
#include "sim/block_simulator.hpp"
#include "stats/rng.hpp"

namespace pb {

namespace {

using K = jobs::JobKind;

/// Time one call in microseconds.
template <class F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return us_since(t0);
}

bool netlist_kind(K k) {
  return k == K::Symbolic || k == K::MonteCarlo || k == K::Static;
}

/// Per-call samples by metric name.
struct Samples {
  std::map<std::string, std::vector<double>> by_name;
  void add(const std::string& n, double v) { by_name[n].push_back(v); }
  double mean_of(const std::string& n) const {
    auto it = by_name.find(n);
    return it == by_name.end() ? 0.0 : mean(it->second);
  }
  double sum_of(const std::string& n) const {
    auto it = by_name.find(n);
    double s = 0.0;
    if (it != by_name.end())
      for (double v : it->second) s += v;
    return s;
  }
  std::size_t count(const std::string& n) const {
    auto it = by_name.find(n);
    return it == by_name.end() ? 0 : it->second.size();
  }
};

/// Kernel layers of one netlist-backed request, replayed call by call.
class KernelLayers {
 public:
  KernelLayers(Samples& s, Result& r) : s_(s), r_(r) {}

  void run(const jobs::KernelRequest& krq, const jobs::AttemptOutcome& ref) {
    hlp::netlist::Module mod;
    s_.add("netlist.make_module_us",
           timed([&] { mod = jobs::make_module(krq.design); }));
    std::uint64_t h = 0;
    s_.add("netlist.structural_hash_us",
           timed([&] { h = hlp::netlist::structural_hash(mod.netlist); }));
    (void)h;
    if (krq.kind == K::Symbolic) symbolic(mod, ref);
    if (krq.kind == K::Static) stat(mod, ref);
    if (krq.kind == K::MonteCarlo) mc(mod, krq, ref);
  }

 private:
  void symbolic(const hlp::netlist::Module& mod,
                const jobs::AttemptOutcome& ref) {
    hlp::bdd::Manager mgr;
    hlp::bdd::NetlistBdds bdds;
    s_.add("bdd.build_us",
           timed([&] { bdds = hlp::bdd::build_bdds(mgr, mod.netlist); }));
    const std::vector<double> loads = mod.netlist.loads({});
    double energy = 0.0;
    s_.add("bdd.sat_us", timed([&] {
             for (hlp::netlist::GateId g = 0; g < mod.netlist.gate_count();
                  ++g) {
               const double p = mgr.sat_fraction(bdds.fn[g]);
               energy += loads[g] * 2.0 * p * (1.0 - p);
             }
           }));
    s_.add("bdd.nodes", static_cast<double>(mgr.total_nodes()));
    r_.check(energy == ref.out.value,
             "replayed BDD layers differ from the symbolic kernel");
  }

  /// The static analysis alone; whether the kernel answered from its tier-0
  /// bounds (or escalated to Monte Carlo) is read off the kernel's outcome.
  void stat(const hlp::netlist::Module& mod, const jobs::AttemptOutcome& ref) {
    hlp::analysis::StaticEstimate est;
    s_.add("analysis.static_estimate_us", timed([&] {
             const hlp::netlist::NetlistIndex ix =
                 hlp::netlist::build_index(mod.netlist);
             est = hlp::analysis::static_estimate(mod.netlist, ix);
           }));
    s_.add("analysis.tier0",
           ref.out.detail.rfind("static-tier0", 0) == 0 ? 1.0 : 0.0);
  }

  /// The sequential Monte Carlo estimator, then a block-simulator replay of
  /// the same pair count split into input transpose and gate kernel.
  void mc(const hlp::netlist::Module& mod, const jobs::KernelRequest& krq,
          const jobs::AttemptOutcome& ref) {
    const int width = mod.total_input_bits();
    hlp::exec::Outcome<hlp::core::MonteCarloResult> out;
    const double mc_us = timed([&] {
      hlp::stats::Rng rng(krq.seed);
      auto gen = [&rng, width] { return rng.uniform_bits(width); };
      out = hlp::core::monte_carlo_power_budgeted(
          mod, gen, {}, krq.epsilon, krq.confidence, krq.min_pairs,
          krq.max_pairs);
    });
    r_.check(out.value.mean_energy == ref.out.value,
             "replayed Monte Carlo differs from the kernel");
    const std::size_t pairs = out.value.pairs;
    hlp::sim::BlockSimulator bs(mod.netlist, 0);
    const auto lanes = static_cast<std::size_t>(bs.lane_count());
    std::vector<std::uint64_t> w1(lanes), w2(lanes);
    hlp::stats::Rng rng(krq.seed);
    double set_us = 0.0, eval_us = 0.0;
    std::size_t evals = 0;
    for (std::size_t done = 0; done < pairs; done += lanes) {
      const std::size_t n = std::min(lanes, pairs - done);
      for (std::size_t k = 0; k < n; ++k) {
        w1[k] = rng.uniform_bits(width);
        w2[k] = rng.uniform_bits(width);
      }
      for (auto* w : {&w1, &w2}) {
        const std::span<const std::uint64_t> words(w->data(), n);
        set_us += timed([&] { bs.set_inputs_from_cycles(words); });
        eval_us += timed([&] { bs.eval(); });
        ++evals;
      }
    }
    s_.add("core.monte_carlo_us", mc_us);
    s_.add("core.mc_pairs", static_cast<double>(pairs));
    s_.add("sim.set_inputs_us", set_us);
    s_.add("sim.eval_us", eval_us);
    s_.add("sim.gate_evals",
           static_cast<double>(evals * lanes * mod.netlist.gate_count()));
  }

  Samples& s_;
  Result& r_;
};

/// Reference requests for kinds a workload never sends, so every kernel
/// layer is measured on every workload (outside its reconciliation).
/// The accuracy-carrying one exercises the predicted tier.
std::vector<serve::Request> reference_ops() {
  const std::pair<K, const char*> refs[] = {
      {K::Symbolic, "adder:8"}, {K::Static, "mult:4"},
      {K::MonteCarlo, "mult:4"}, {K::Markov, "traffic"},
      {K::Schedule, "fir:16"}};
  std::vector<serve::Request> out;
  for (const auto& [k, d] : refs) {
    serve::Request rq;
    rq.op = serve::Op::Estimate;
    rq.kind = k;
    rq.design = d;
    rq.has_seed = true;
    rq.seed = 7;
    out.push_back(rq);
  }
  serve::Request acc;
  acc.op = serve::Op::Estimate;
  acc.kind = K::Symbolic;
  acc.design = "adder:8";
  acc.has_accuracy = true;
  acc.accuracy = 0.5;
  out.push_back(acc);
  return out;
}

}  // namespace

double Reconciliation::handle_line_self() const {
  double s = handle_line;
  for (const auto& [name, v] : children) s -= v;
  return s;
}

void print_reconciliation(
    const std::string& title, double total, const std::string& residual_name,
    double residual,
    const std::vector<std::pair<std::string, double>>& parts) {
  std::printf("# reconcile %s: %.2f us\n", title.c_str(), total);
  double sum = residual;
  std::printf("#   %-36s %12.2f  %5.1f%%\n", residual_name.c_str(), residual,
              total > 0 ? 100.0 * residual / total : 0.0);
  for (const auto& [name, v] : parts) {
    std::printf("#   %-36s %12.2f  %5.1f%%\n", name.c_str(), v,
                total > 0 ? 100.0 * v / total : 0.0);
    sum += v;
  }
  std::printf("#   %-36s %12.2f  (end-to-end %.2f)\n", "layers + residual", sum,
              total);
}

ReplayOutput replay_layers(const ReplayInput& in, Result& r) {
  namespace fs = std::filesystem;
  const std::string dir = in.work_dir + "/replay";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Twins: a replay server (TCP) and an in-process service, configured like
  // the workload's service.
  serve::ServerOptions so;
  so.service = in.service;
  serve::Server server(so);
  server.start();
  serve::Service svc(in.service);
  serve::ServiceOptions key_opts;
  key_opts.workers = 0;
  serve::Service keysvc(key_opts);  // memo state twin for Service::keys
  serve::ResultCache cache(in.service.cache_bytes, in.service.cache_shards);
  serve::CacheSegmentFile segment(dir + "/c.seg");
  segment.load([](std::string&&, std::string&&) {});
  hlp::jobs::LedgerWriter ledger(dir + "/replay.ledger");
  LineClient client;
  if (!client.connect_to(server.port()))
    throw std::runtime_error("replay connect failed");

  Samples s;
  KernelLayers kernel_layers(s, r);
  std::map<std::string, model::FeatureVector> features;
  std::uint64_t seq = 0;

  ReplayOutput out;
  std::map<std::string, double> child_sum;
  const std::vector<std::string> child_order = {
      "serve.protocol.parse",  "serve.keys",          "serve.cache.lookup",
      "model.predict",         "kernel",              "serve.response.serialize",
      "serve.cache.insert"};
  double rt_sum = 0.0, hl_sum = 0.0;

  // Process one request through every layer. `counted` requests enter the
  // reconciliation; warm-up and reference requests only the per-call means.
  auto process = [&](const serve::Request& rq, bool counted, bool via_twins) {
    const std::string line = rq.serialize();
    std::string resp;
    double rt = 0.0, hl = 0.0;
    // Which tier answered, as the twin service reports it.
    serve::ResponseView twin;
    if (via_twins) {
      const std::string framed = line + "\n";
      rt = timed([&] {
        if (!client.roundtrip(framed, resp)) resp.clear();
      });
      r.check(ok_response(resp),
              "replay server failed " + rq.design + ": " + resp);
      hl = timed([&] { resp = svc.handle_line(line); });
      r.check(ok_response(resp) && serve::parse_response(resp, twin),
              "replay service failed " + rq.design + ": " + resp);
      s.add("serve.roundtrip_us", rt);
      s.add("serve.handle_line_us", hl);
    }
    std::map<std::string, double> part;
    serve::Request prq;
    std::string err;
    part["serve.protocol.parse"] =
        timed([&] { serve::Request::parse(line, prq, err); });
    serve::Service::Keys k;
    part["serve.keys"] = timed([&] { k = keysvc.keys(prq); });
    std::string body;
    bool hit = false;
    part["serve.cache.lookup"] =
        timed([&] { hit = cache.lookup(k.cache_key, body); });
    const std::string family = model::design_family(rq.design);
    const bool covered =
        in.models && in.models->find(family, jobs::to_string(rq.kind));
    bool predicted = false;
    if (covered && !hit) {
      auto it = features.find(rq.design);
      if (it == features.end()) {
        model::FeatureVector x;
        s.add("model.features_us",
              timed([&] { x = model::extract_features(rq.design, 0.5); }));
        it = features.emplace(rq.design, x).first;
      }
      model::Prediction p;
      const double pu = timed([&] {
        p = in.models->predict(family, jobs::to_string(rq.kind), it->second,
                               rq.confidence);
      });
      s.add("model.predict_us", pu);
      if (rq.has_accuracy) {
        part["model.predict"] = pu;
        predicted = twin.tier == "predicted";
        if (predicted) {
          part["serve.response.serialize"] = timed([&] {
            body = serve::make_predicted_response({}, p.value,
                                                  p.value - p.halfwidth,
                                                  p.value + p.halfwidth, "m");
          });
        }
      }
    }
    if (!hit && !predicted) {
      jobs::KernelRequest krq = kernel_request(prq);
      krq.seed = k.seed;  // the service's seed, derived when not given
      jobs::AttemptOutcome ko;
      const double kus = timed([&] { ko = jobs::run_kernel(krq, {}); });
      s.add(std::string("jobs.kernel_us.") + jobs::to_string(krq.kind), kus);
      r.check(ko.ok, "replayed kernel failed for " + krq.design);
      double kernel_in_path = kus;
      const bool isolated =
          in.service.isolate == serve::IsolateMode::All ||
          (in.service.isolate == serve::IsolateMode::Symbolic &&
           krq.kind == K::Symbolic);
      if (isolated) {
        hlp::sandbox::Limits lim;
        lim.wall_deadline_seconds = in.service.isolate_wall_ceiling_seconds;
        jobs::AttemptOutcome io;
        const double ius = timed(
            [&] { io = hlp::sandbox::run_kernel_isolated(krq, {}, lim); });
        s.add("sandbox.isolated_kernel_us", ius);
        s.add("sandbox.isolate_overhead_us", ius - kus);
        r.check(io.ok && io.out.value == ko.out.value,
                "isolated kernel differs from in-process for " + krq.design);
        kernel_in_path = ius;
      }
      part["kernel"] = kernel_in_path;
      if (netlist_kind(krq.kind)) kernel_layers.run(krq, ko);
      part["serve.response.serialize"] = timed([&] {
        body = serve::make_value_response({}, ko.out.value, ko.out.detail,
                                          ko.out.degraded);
      });
      part["serve.cache.insert"] =
          timed([&] { cache.insert(k.cache_key, body); });
      // Neither workload's service persists its cache, so the append is
      // timed on the replay segment but is not part of the served path.
      s.add("serve.cachefile.append_us",
            timed([&] { segment.append(k.cache_key, body); }));
      hlp::jobs::LedgerRecord lr;
      lr.kind = hlp::jobs::RecordKind::Completed;
      lr.seq = ++seq;
      lr.job = k.cache_key;
      lr.attempts = 1;
      lr.value = ko.out.value;
      lr.detail = ko.out.detail;
      s.add("jobs.ledger.append_us", timed([&] { ledger.append(lr); }));
    }
    // Per-call means of the serve-side children (the predicted tier and the
    // kernel are recorded above under their own names).
    for (const auto& [name, v] : part)
      if (name.rfind("serve.", 0) == 0) s.add(name + "_us", v);
    if (counted) {
      rt_sum += rt;
      hl_sum += hl;
      for (const auto& [name, v] : part) child_sum[name] += v;
      ++out.rec.requests;
    }
  };

  for (const auto& rq : in.warm) process(rq, false, true);
  const std::uint64_t hits0 = server.service().metrics().hits;
  const std::uint64_t miss0 = server.service().metrics().misses;
  const auto t0 = Clock::now();
  for (const auto& rq : in.ops) {
    process(rq, true, true);
    if (s_since(t0) > in.budget_s && out.rec.requests >= 20) break;
  }
  const serve::ServiceMetrics m = server.service().metrics();
  const double hits = static_cast<double>(m.hits - hits0);
  const double misses = static_cast<double>(m.misses - miss0);
  auto model_answers = [&] {
    const serve::ServiceHealth h = server.service().health();
    return h.model_predicted + h.model_escalated + h.model_out_of_hull +
           h.model_miss;
  };
  // Kinds (and the predicted tier) this workload never exercises still get
  // a measured path.
  for (const auto& rq : reference_ops()) {
    if (rq.has_accuracy) {
      if (model_answers() == 0) process(rq, false, true);
    } else if (s.count(std::string("jobs.kernel_us.") +
                       jobs::to_string(rq.kind)) == 0 ||
               (rq.kind == K::Static &&
                s.count("analysis.static_estimate_us") == 0) ||
               (rq.kind == K::Symbolic &&
                s.count("sandbox.isolated_kernel_us") == 0)) {
      process(rq, false, false);
    }
  }

  // The same requests as a jobs::Runner campaign: utilization and the
  // runner's retry/failure counters.
  double utilization = 0.0;
  jobs::RunnerCounters rc;
  std::uint64_t runner_failed = 0;
  if (in.runner_pass) {
    std::vector<jobs::Job> jl;
    for (std::size_t i = 0; i < in.ops.size() && i < out.rec.requests; ++i) {
      jobs::Job j;
      j.id = "replay-" + std::to_string(i);
      j.kind = in.ops[i].kind;
      j.design = in.ops[i].design;
      jl.push_back(std::move(j));
    }
    std::mutex mu;
    double busy_us = 0.0;
    jobs::RunnerOptions ro;
    ro.workers = 3;
    ro.ledger_path = dir + "/runner.ledger";
    ro.kernel_executor = [&](const jobs::KernelRequest& krq,
                             const hlp::exec::Budget& b) {
      const auto a = Clock::now();
      jobs::AttemptOutcome o = jobs::run_kernel(krq, b);
      const double us = us_since(a);
      std::lock_guard<std::mutex> lock(mu);
      busy_us += us;
      return o;
    };
    jobs::Runner runner(ro);
    const auto w0 = Clock::now();
    const jobs::CampaignResult cr = runner.run(jl);
    const double wall_us = us_since(w0);
    utilization = wall_us > 0 ? busy_us / (ro.workers * wall_us) : 0.0;
    rc = runner.counters();
    runner_failed = cr.results.size() - cr.completed;
  }

  // --- Metrics -------------------------------------------------------------
  const double n = static_cast<double>(std::max<std::size_t>(out.rec.requests, 1));
  out.rec.roundtrip = rt_sum / n;
  out.rec.handle_line = hl_sum / n;
  for (const std::string& c : child_order)
    out.rec.children.emplace_back(c, child_sum[c] / n);

  r.add("serve.roundtrip_us", out.rec.roundtrip, "us");
  r.add("serve.handle_line_us", out.rec.handle_line, "us");
  r.add("serve.transport_us", out.rec.transport(), "us");
  r.add("serve.handle_line_self_us", out.rec.handle_line_self(), "us");
  r.add("serve.protocol.parse_us", s.mean_of("serve.protocol.parse_us"), "us");
  r.add("serve.response.serialize_us",
        s.mean_of("serve.response.serialize_us"), "us");
  r.add("serve.keys_us", s.mean_of("serve.keys_us"), "us");
  r.add("serve.cache.lookup_us", s.mean_of("serve.cache.lookup_us"), "us");
  r.add("serve.cache.insert_us", s.mean_of("serve.cache.insert_us"), "us");
  r.add("serve.cache.hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  r.add("serve.cachefile.append_us", s.mean_of("serve.cachefile.append_us"),
        "us");
  r.add("sandbox.isolated_kernel_us", s.mean_of("sandbox.isolated_kernel_us"),
        "us");
  r.add("sandbox.isolate_overhead_us",
        s.mean_of("sandbox.isolate_overhead_us"), "us");
  r.add("model.features_us", s.mean_of("model.features_us"), "us");
  r.add("model.predict_us", s.mean_of("model.predict_us"), "us");
  // The replay server's own tier decisions for accuracy requests.
  const std::uint64_t answers = model_answers();
  r.add("model.predicted_ratio",
        answers > 0 ? static_cast<double>(
                          server.service().health().model_predicted) /
                          static_cast<double>(answers)
                    : 0.0,
        "ratio");
  for (K k : {K::Symbolic, K::Static, K::MonteCarlo, K::Markov, K::Schedule}) {
    const std::string name = std::string("jobs.kernel_us.") + jobs::to_string(k);
    out.kernel_us[jobs::to_string(k)] = s.mean_of(name);
    r.add(name, s.mean_of(name), "us");
  }
  r.add("jobs.ledger.append_us", s.mean_of("jobs.ledger.append_us"), "us");
  if (in.runner_pass) {
    r.add("jobs.runner.utilization", utilization, "ratio");
    r.add("jobs.attempts", static_cast<double>(rc.attempts_started), "count");
    r.add("jobs.retried", static_cast<double>(rc.retried), "count");
    r.add("jobs.failed", static_cast<double>(runner_failed), "count");
  }
  r.add("netlist.make_module_us", s.mean_of("netlist.make_module_us"), "us");
  r.add("netlist.structural_hash_us", s.mean_of("netlist.structural_hash_us"),
        "us");
  r.add("bdd.build_us", s.mean_of("bdd.build_us"), "us");
  r.add("bdd.sat_us", s.mean_of("bdd.sat_us"), "us");
  r.add("bdd.nodes", s.mean_of("bdd.nodes"), "count");
  r.add("analysis.static_estimate_us", s.mean_of("analysis.static_estimate_us"),
        "us");
  r.add("analysis.tier0_ratio", s.mean_of("analysis.tier0"), "ratio");
  out.mc_us = s.mean_of("core.monte_carlo_us");
  out.set_inputs_us = s.mean_of("sim.set_inputs_us");
  out.eval_us = s.mean_of("sim.eval_us");
  r.add("core.monte_carlo_us", out.mc_us, "us");
  r.add("core.mc_pairs", s.mean_of("core.mc_pairs"), "count");
  r.add("core.mc_residual_us", out.mc_us - out.set_inputs_us - out.eval_us,
        "us");
  r.add("sim.set_inputs_us", out.set_inputs_us, "us");
  r.add("sim.eval_us", out.eval_us, "us");
  const double eval_s = s.sum_of("sim.eval_us") * 1e-6;
  r.add("sim.gate_evals_per_s",
        eval_s > 0 ? s.sum_of("sim.gate_evals") / eval_s : 0.0, "1/s");

  const serve::ServiceHealth h = server.service().health();
  out.child_crashes = static_cast<double>(h.child_crashes +
                                          svc.health().child_crashes);
  std::printf("# replay: %zu requests (+%zu warm), %.0f%% cache hits on the "
              "replay server\n",
              out.rec.requests, in.warm.size(),
              hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0);
  return out;
}

}  // namespace pb
