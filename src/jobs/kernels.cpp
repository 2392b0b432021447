#include "jobs/kernels.hpp"

#include <charconv>
#include <map>
#include <stdexcept>
#include <vector>

#include "analysis/estimate.hpp"
#include "bdd/bdd.hpp"
#include "bdd/netlist_bdd.hpp"
#include "netlist/index.hpp"
#include "cdfg/generators.hpp"
#include "core/scheduling_power.hpp"
#include "fsm/benchmarks.hpp"
#include "fsm/markov.hpp"
#include "stats/rng.hpp"

namespace hlp::jobs {

const char* to_string(JobKind k) {
  switch (k) {
    case JobKind::Symbolic: return "symbolic";
    case JobKind::MonteCarlo: return "monte-carlo";
    case JobKind::Markov: return "markov";
    case JobKind::Schedule: return "schedule";
    case JobKind::Static: return "static";
    case JobKind::Custom: return "custom";
  }
  return "unknown";
}

bool parse_job_kind(std::string_view s, JobKind& out) {
  for (JobKind k : {JobKind::Symbolic, JobKind::MonteCarlo, JobKind::Markov,
                    JobKind::Schedule, JobKind::Static, JobKind::Custom}) {
    if (s == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

std::uint64_t job_seed(std::string_view job_id) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (unsigned char c : job_id) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  h += 0x9e3779b97f4a7c15ull;  // splitmix64 finalizer
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

namespace {

[[noreturn]] void bad_spec(const std::string& design, const char* why) {
  throw std::invalid_argument("jobs: bad design spec '" + design + "': " +
                              why);
}

/// Split "name:a:b:..." into name + integer args, validating arity and
/// per-argument [lo, hi] ranges.
struct SpecArgs {
  std::string name;
  std::vector<long long> args;
};

SpecArgs split_spec(const std::string& design) {
  SpecArgs out;
  std::size_t pos = design.find(':');
  out.name = design.substr(0, pos);
  while (pos != std::string::npos) {
    std::size_t next = design.find(':', pos + 1);
    std::string_view tok(design.data() + pos + 1,
                         (next == std::string::npos ? design.size() : next) -
                             pos - 1);
    long long v = 0;
    auto [rest, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc{} || rest != tok.data() + tok.size())
      bad_spec(design, "argument is not an integer");
    out.args.push_back(v);
    pos = next;
  }
  return out;
}

long long arg_in(const SpecArgs& sa, const std::string& design, std::size_t i,
                 long long lo, long long hi) {
  if (i >= sa.args.size()) bad_spec(design, "missing argument");
  if (sa.args[i] < lo || sa.args[i] > hi)
    bad_spec(design, "argument out of range");
  return sa.args[i];
}

void expect_arity(const SpecArgs& sa, const std::string& design,
                  std::size_t n) {
  if (sa.args.size() != n) bad_spec(design, "wrong number of arguments");
}

}  // namespace

netlist::Module make_module(const std::string& design) {
  SpecArgs sa = split_spec(design);
  if (sa.name == "adder") {
    expect_arity(sa, design, 1);
    return netlist::adder_module(
        static_cast<int>(arg_in(sa, design, 0, 1, 31)));
  }
  if (sa.name == "mult") {
    expect_arity(sa, design, 1);
    return netlist::multiplier_module(
        static_cast<int>(arg_in(sa, design, 0, 1, 16)));
  }
  if (sa.name == "alu") {
    expect_arity(sa, design, 1);
    return netlist::alu_module(static_cast<int>(arg_in(sa, design, 0, 1, 24)));
  }
  if (sa.name == "parity") {
    expect_arity(sa, design, 1);
    return netlist::parity_module(
        static_cast<int>(arg_in(sa, design, 0, 1, 63)));
  }
  if (sa.name == "comparator") {
    expect_arity(sa, design, 1);
    return netlist::comparator_module(
        static_cast<int>(arg_in(sa, design, 0, 1, 31)));
  }
  if (sa.name == "max") {
    expect_arity(sa, design, 1);
    return netlist::max_module(static_cast<int>(arg_in(sa, design, 0, 1, 31)));
  }
  if (sa.name == "mux") {
    expect_arity(sa, design, 1);
    return netlist::mux_tree_module(
        static_cast<int>(arg_in(sa, design, 0, 1, 5)));
  }
  if (sa.name == "mulred") {
    expect_arity(sa, design, 2);
    return netlist::multiply_reduce_module(
        static_cast<int>(arg_in(sa, design, 0, 1, 16)),
        static_cast<int>(arg_in(sa, design, 1, 1, 8)));
  }
  if (sa.name == "random") {
    expect_arity(sa, design, 4);
    return netlist::random_logic_module(
        static_cast<int>(arg_in(sa, design, 0, 1, 63)),
        static_cast<int>(arg_in(sa, design, 1, 1, 20000)),
        static_cast<int>(arg_in(sa, design, 2, 1, 64)),
        static_cast<std::uint64_t>(
            arg_in(sa, design, 3, 0, (1ll << 62))));
  }
  if (sa.name == "c17") {
    expect_arity(sa, design, 0);
    return netlist::c17_module();
  }
  bad_spec(design, "unknown netlist design");
}

cdfg::Cdfg make_cdfg(const std::string& design) {
  SpecArgs sa = split_spec(design);
  if (sa.name == "poly") {
    expect_arity(sa, design, 1);
    return cdfg::polynomial_direct(
        static_cast<int>(arg_in(sa, design, 0, 1, 32)));
  }
  if (sa.name == "horner") {
    expect_arity(sa, design, 1);
    return cdfg::polynomial_horner(
        static_cast<int>(arg_in(sa, design, 0, 1, 32)));
  }
  if (sa.name == "fir") {
    expect_arity(sa, design, 1);
    return cdfg::fir_cdfg(static_cast<int>(arg_in(sa, design, 0, 1, 64)));
  }
  if (sa.name == "expr") {
    expect_arity(sa, design, 2);
    return cdfg::random_expr_tree(
        static_cast<int>(arg_in(sa, design, 0, 2, 512)), 0.4,
        static_cast<std::uint64_t>(arg_in(sa, design, 1, 0, (1ll << 62))));
  }
  if (sa.name == "branching") {
    expect_arity(sa, design, 3);
    return cdfg::branching_cdfg(
        static_cast<int>(arg_in(sa, design, 0, 1, 64)),
        static_cast<int>(arg_in(sa, design, 1, 1, 64)),
        static_cast<std::uint64_t>(arg_in(sa, design, 2, 0, (1ll << 62))));
  }
  if (sa.name == "opshare") {
    expect_arity(sa, design, 2);
    return cdfg::operand_sharing_cdfg(
        static_cast<int>(arg_in(sa, design, 0, 1, 64)),
        static_cast<int>(arg_in(sa, design, 1, 1, 64)));
  }
  bad_spec(design, "unknown cdfg design");
}

AttemptOutcome sampled_attempt(
    const exec::Outcome<core::MonteCarloResult>& out, std::string_view method,
    std::string_view params) {
  AttemptOutcome ao;
  ao.out.has_checkpoint = out.value.checkpoint.valid();
  ao.out.checkpoint = out.value.checkpoint;
  const std::string pairs = std::to_string(out.value.pairs);
  if (out.value.stop_reason ==
      core::MonteCarloResult::StopReason::BudgetExhausted) {
    ao.ok = false;
    ao.stop = out.diag.stop;
    ao.detail = std::string(method) + " stopped at " + pairs + " pairs (" +
                exec::to_string(out.diag.stop) + ")";
    return ao;
  }
  ao.ok = true;
  ao.out.value = out.value.mean_energy;
  ao.detail = ao.out.detail =
      std::string(method) + " " + std::string(params) + pairs + " pairs, " +
      (out.value.converged ? "converged" : "pair-budget exhausted");
  return ao;
}

namespace {

/// Sampled power estimate — the Monte Carlo kernel and the symbolic
/// kernel's degradation target share this exact code path, so a downgraded
/// retry's answer equals the sampled estimator's direct answer bit for bit.
AttemptOutcome sampled_power(const KernelRequest& rq,
                             const exec::Budget& budget) {
  netlist::Module mod = make_module(rq.design);
  core::MonteCarloCheckpoint resume;
  if (rq.resume && rq.resume->valid()) resume = *rq.resume;
  exec::Outcome<core::MonteCarloResult> out;
  if (rq.mc_threads > 0) {
    // Chunk-sharded estimator: per-chunk seeds derive from the job seed, so
    // the sampled pairs — and therefore the estimate — depend only on
    // (seed, chunk_pairs), not on mc_threads or where a resume cut the
    // campaign. Checkpoints resume at chunk granularity with no generator
    // fast-forwarding (each chunk owns its own generator).
    core::ShardedMcOptions so;
    so.total_pairs = rq.max_pairs;
    so.chunk_pairs = rq.mc_chunk_pairs ? rq.mc_chunk_pairs : 4096;
    so.threads = rq.mc_threads;
    so.epsilon = rq.epsilon;
    so.confidence = rq.confidence;
    so.min_pairs = rq.min_pairs;
    out = core::monte_carlo_power_sharded(mod, rq.seed, so, budget, {},
                                          resume);
  } else {
    stats::Rng rng(rq.seed);
    if (resume.valid()) {
      // Pair k is engine outputs 2k and 2k+1 (v1_k, v2_k), whether a batch
      // is drawn in bulk or one vector at a time, so fast-forwarding a
      // fresh generator by 2*count outputs re-creates the exact stream
      // position the checkpointed run would have continued from. A stopped
      // run's over-draws (at most one batch past a deadline or cancel)
      // don't matter: they were never folded into the Welford state the
      // checkpoint captured.
      rng.engine().discard(2 * static_cast<unsigned long long>(resume.count));
    }
    out = core::monte_carlo_power_budgeted(mod, rng, budget, rq.epsilon,
                                           rq.confidence, rq.min_pairs,
                                           rq.max_pairs, {}, {}, resume);
  }

  return sampled_attempt(out, "monte-carlo");
}

AttemptOutcome symbolic_power(const KernelRequest& rq,
                              const exec::Budget& budget) {
  if (rq.degraded) {
    // Downgraded retry: run the sampled estimator directly and label the
    // degradation. Same seed derivation as a direct MonteCarlo job.
    AttemptOutcome ao = sampled_power(rq, budget);
    ao.out.degraded = true;
    ao.out.degraded_from = "bdd-sat-fraction";
    ao.out.degraded_to = "monte-carlo";
    return ao;
  }
  netlist::Module mod = make_module(rq.design);
  exec::Meter meter(budget);
  bdd::Manager mgr;
  mgr.set_meter(&meter);
  // Worst-case exponential: a node-cap/deadline trip throws
  // exec::BudgetExceeded out of here; the runner classifies it
  // budget-exhausted and the retry policy may downgrade to sampling. The
  // variable order only changes the BDD's size: sat fractions are exact
  // dyadic rationals for up to 53 inputs, so the energy is the same double
  // in any order.
  bdd::NetlistBdds bdds = bdd::build_bdds_ordered(
      mgr, mod.netlist, bdd::fanin_dfs_order(mod.netlist));
  std::vector<double> loads = mod.netlist.loads({});
  double energy = 0.0;
  for (netlist::GateId g = 0; g < mod.netlist.gate_count(); ++g) {
    meter.step();
    double p = mgr.sat_fraction(bdds.fn[g]);
    // Expected switched cap per independent vector pair: toggle probability
    // of a node with signal probability p is 2p(1-p).
    energy += loads[g] * 2.0 * p * (1.0 - p);
  }
  AttemptOutcome ao;
  ao.ok = true;
  ao.out.value = energy;
  ao.detail = ao.out.detail =
      "bdd exact (fanin-dfs order), " + std::to_string(mgr.total_nodes()) +
      " nodes over " +
      std::to_string(mod.netlist.gate_count()) + " gates";
  return ao;
}

AttemptOutcome static_power(const KernelRequest& rq,
                            const exec::Budget& budget) {
  if (rq.degraded) {
    AttemptOutcome ao = sampled_power(rq, budget);
    ao.out.degraded = true;
    ao.out.degraded_from = "static-bounds";
    ao.out.degraded_to = "monte-carlo";
    return ao;
  }
  netlist::Module mod = make_module(rq.design);
  exec::Meter meter(budget);
  const netlist::NetlistIndex ix = netlist::build_index(mod.netlist);
  // Default StaticOptions on purpose: the BDD refinement budget is an
  // analysis constant, never derived from the request budget, so the value
  // for a given (design, epsilon) is budget-invariant — the property the
  // serve result cache requires of everything it stores.
  const analysis::StaticEstimate est =
      analysis::static_estimate(mod.netlist, ix, {}, &meter);
  if (est.stop != exec::StopReason::None) {
    AttemptOutcome ao;
    ao.ok = false;
    ao.stop = est.stop;
    ao.detail = std::string("static analysis stopped (") +
                exec::to_string(est.stop) + ")";
    return ao;
  }
  const double half = (est.upper - est.lower) / 2.0;
  const double tol = rq.epsilon * std::max(est.point, 1e-12);
  if (half <= tol) {
    AttemptOutcome ao;
    ao.ok = true;
    ao.out.value = est.point;
    std::string d = "static-tier0, bounds [";
    d += std::to_string(est.lower);
    d += ", ";
    d += std::to_string(est.upper);
    d += "], ";
    d += std::to_string(est.activity.refined_gates);
    d += " gates bdd-exact";
    ao.detail = ao.out.detail = d;
    return ao;
  }
  // Bounds too loose for the requested accuracy: escalate to the packed
  // Monte Carlo kernel under the same budget/seed. This is the tiered
  // contract working as designed, not a degradation — the result is as
  // cacheable as a direct monte-carlo answer.
  AttemptOutcome ao = sampled_power(rq, budget);
  std::string prefix = "static-escalated (spread ";
  prefix += std::to_string(est.upper - est.lower);
  prefix += " > eps), ";
  ao.detail = prefix + ao.detail;
  ao.out.detail = ao.detail;
  return ao;
}

AttemptOutcome markov_power(const KernelRequest& rq,
                            const exec::Budget& budget) {
  fsm::Stg stg = fsm::controller_by_name(rq.design);
  exec::Outcome<fsm::MarkovAnalysis> out =
      fsm::analyze_markov_budgeted(stg, budget, {}, rq.max_iters);
  AttemptOutcome ao;
  if (out.diag.stop != exec::StopReason::None) {
    ao.ok = false;
    ao.stop = out.diag.stop;
    ao.detail = "power iteration stopped after " +
                std::to_string(out.value.iterations) + " sweeps (" +
                exec::to_string(out.diag.stop) + ")";
    return ao;
  }
  ao.ok = true;
  ao.out.value = out.value.edge_entropy();
  ao.detail = ao.out.detail =
      "power iteration, " + std::to_string(out.value.iterations) +
      " sweeps, " + (out.value.converged ? "converged" : "iteration cap");
  return ao;
}

AttemptOutcome schedule_power(const KernelRequest& rq,
                              const exec::Budget& budget) {
  cdfg::Cdfg g = make_cdfg(rq.design);
  std::map<cdfg::OpKind, int> limits{{cdfg::OpKind::Add, 1},
                                     {cdfg::OpKind::Mul, 1}};
  exec::Outcome<cdfg::Schedule> out =
      core::activity_driven_schedule_budgeted(g, budget, limits);
  AttemptOutcome ao;
  if (out.diag.stop == exec::StopReason::Cancelled) {
    // Cancellation (campaign stop or wall deadline) must interrupt the
    // attempt, not silently accept the ASAP fallback.
    ao.ok = false;
    ao.stop = out.diag.stop;
    ao.detail = "list scheduling cancelled";
    return ao;
  }
  ao.ok = true;
  ao.out.value = static_cast<double>(out.value.length);
  ao.out.degraded = out.diag.degraded;
  ao.out.degraded_from = out.diag.degraded_from;
  ao.out.degraded_to = out.diag.degraded_to;
  ao.detail = ao.out.detail =
      out.diag.degraded ? "asap fallback (budget trip mid-list-schedule)"
                        : "activity-driven list schedule";
  return ao;
}

}  // namespace

AttemptOutcome run_kernel(const KernelRequest& rq, const exec::Budget& budget) {
  switch (rq.kind) {
    case JobKind::Symbolic: return symbolic_power(rq, budget);
    case JobKind::MonteCarlo: return sampled_power(rq, budget);
    case JobKind::Markov: return markov_power(rq, budget);
    case JobKind::Schedule: return schedule_power(rq, budget);
    case JobKind::Static: return static_power(rq, budget);
    case JobKind::Custom:
      throw std::invalid_argument(
          "jobs: custom kernels carry their own callable; run_kernel has "
          "nothing to dispatch");
  }
  throw std::invalid_argument("jobs: unknown job kind");
}

}  // namespace hlp::jobs
