#include "serve/service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <charconv>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analysis/estimate.hpp"
#include "exec/fi.hpp"
#include "fsm/benchmarks.hpp"
#include "fsm/stg.hpp"
#include "netlist/index.hpp"
#include "util/json.hpp"

namespace hlp::serve {

namespace {

void append_hex16(std::string& out, std::uint64_t v) {
  char buf[16];
  for (int i = 15; i >= 0; --i) {
    buf[i] = "0123456789abcdef"[v & 0xf];
    v >>= 4;
  }
  out.append(buf, 16);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(p - buf));
}

/// Splice the caller's id into an id-less response body. Response writers
/// put "id" immediately after the "ok" field, so the insertion point is
/// fixed by whether the body starts {"ok":true or {"ok":false.
std::string attach_id(const std::string& idless, std::string_view id) {
  if (id.empty()) return idless;
  const std::size_t split = idless.compare(0, 10, "{\"ok\":true") == 0 ? 10 : 11;
  std::string out = idless.substr(0, split);
  util::append_field(out, "id", id);
  out.append(idless, split, std::string::npos);
  return out;
}

/// Tag an accuracy-carrying request's kernel/cache answer "tier":"exact".
/// Spliced *after* caching so cache bodies stay byte-identical to the ones
/// non-accuracy requests see; predicted responses already carry their tier
/// and are left alone, as are error responses.
std::string attach_tier_exact(std::string body) {
  if (body.compare(0, 10, "{\"ok\":true") == 0 &&
      body.find("\"tier\":") == std::string::npos) {
    body.insert(body.size() - 1, ",\"tier\":\"exact\"");
  }
  return body;
}

std::size_t clamp_cap(std::size_t requested, std::size_t ceiling) {
  if (ceiling == 0) return requested;
  if (requested == 0) return ceiling;
  return std::min(requested, ceiling);
}

/// Kinds whose design spec elaborates to a netlist — the ones the tier-0
/// static bound can stand in for on a deadline trip.
bool netlist_backed(jobs::JobKind kind) {
  return kind == jobs::JobKind::Symbolic ||
         kind == jobs::JobKind::MonteCarlo || kind == jobs::JobKind::Static;
}

/// How long the waiter lets the wall clock run past the cooperative
/// deadline before abandoning the kernel: enough slack that a well-behaved
/// kernel's own meter trips first (typed by *its* stop reason), while a
/// kernel stuck between meter steps is still bounded.
double wall_limit_for(double cooperative_deadline) {
  if (cooperative_deadline <= 0.0) return 0.0;
  return cooperative_deadline * 1.25 + 0.05;
}

}  // namespace

const char* to_string(IsolateMode m) {
  switch (m) {
    case IsolateMode::Off: return "off";
    case IsolateMode::Symbolic: return "symbolic";
    case IsolateMode::All: return "all";
  }
  return "unknown";
}

bool parse_isolate_mode(std::string_view s, IsolateMode& out) {
  for (IsolateMode m :
       {IsolateMode::Off, IsolateMode::Symbolic, IsolateMode::All}) {
    if (s == to_string(m)) {
      out = m;
      return true;
    }
  }
  return false;
}

void LatencyHistogram::record(std::uint64_t us) {
  int idx = std::bit_width(us);
  if (idx >= kBuckets) idx = kBuckets - 1;
  buckets_[static_cast<std::size_t>(idx)].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::percentile(double p) const {
  std::array<std::uint64_t, kBuckets> snap;
  std::uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    snap[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    total += snap[static_cast<std::size_t>(i)];
  }
  if (total == 0) return 0;
  const double target = p * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += snap[static_cast<std::size_t>(i)];
    if (static_cast<double>(seen) >= target) {
      // Upper bound of bucket i: largest value with bit width i.
      return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
    }
  }
  return (std::uint64_t{1} << (kBuckets - 1)) - 1;
}

std::string serialize_metrics(const ServiceMetrics& m) {
  std::string s = "{\"ok\":true,\"op\":\"metrics\"";
  util::append_field(s, "hits", m.hits);
  util::append_field(s, "misses", m.misses);
  util::append_field(s, "coalesced", m.coalesced);
  util::append_field(s, "shed", m.shed);
  util::append_field(s, "requests", m.requests);
  util::append_field(s, "estimates", m.estimates);
  util::append_field(s, "refused", m.refused);
  util::append_field(s, "errors", m.errors);
  util::append_field(s, "deadline-exceeded", m.deadline_exceeded);
  util::append_field(s, "cancelled", m.cancelled);
  util::append_field(s, "degraded-deadline", m.degraded_deadline);
  util::append_field(s, "inflight",
                     static_cast<std::uint64_t>(m.inflight < 0 ? 0 : m.inflight));
  util::append_field(s, "draining", m.draining);
  util::append_field(s, "queue-depth",
                     static_cast<std::uint64_t>(m.queue_depth));
  util::append_field(
      s, "busy-workers",
      static_cast<std::uint64_t>(m.busy_workers < 0 ? 0 : m.busy_workers));
  util::append_field(s, "warm-entries", m.warm_entries);
  util::append_field(s, "persist-appends", m.persist_appends);
  util::append_field(s, "persist-torn-bytes", m.persist_torn_bytes);
  util::append_field(s, "memo-entries", m.memo_entries);
  util::append_field(s, "ewma-service-us", m.ewma_service_us);
  util::append_field(s, "cache-entries",
                     static_cast<std::uint64_t>(m.cache.entries));
  util::append_field(s, "cache-bytes",
                     static_cast<std::uint64_t>(m.cache.bytes));
  util::append_field(s, "cache-evictions", m.cache.evictions);
  util::append_field(s, "p50-us", m.p50_us);
  util::append_field(s, "p90-us", m.p90_us);
  util::append_field(s, "p99-us", m.p99_us);
  s.push_back('}');
  return s;
}

std::string serialize_health(const ServiceHealth& h) {
  std::string s = "{\"ok\":true,\"op\":\"health\"";
  util::append_field(s, "workers",
                     static_cast<std::uint64_t>(h.workers < 0 ? 0 : h.workers));
  util::append_field(s, "live",
                     static_cast<std::uint64_t>(h.live < 0 ? 0 : h.live));
  util::append_field(s, "busy",
                     static_cast<std::uint64_t>(h.busy < 0 ? 0 : h.busy));
  util::append_field(s, "wedged",
                     static_cast<std::uint64_t>(h.wedged < 0 ? 0 : h.wedged));
  util::append_field(s, "queue-depth",
                     static_cast<std::uint64_t>(h.queue_depth));
  util::append_field(s, "respawns", h.respawns);
  util::append_field(s, "draining", h.draining);
  util::append_field(s, "isolated", h.isolated);
  util::append_field(s, "child-crashes", h.child_crashes);
  // One counter per crash class, named by the sandbox taxonomy
  // ("crash-signal", "crash-oom-kill", ...). Index 0 is CrashKind::None —
  // never counted, never emitted.
  for (std::size_t i = 1; i < h.crashes_by_kind.size(); ++i) {
    std::string key = "crash-";
    key += sandbox::to_string(static_cast<sandbox::CrashKind>(i));
    util::append_field(s, key.c_str(), h.crashes_by_kind[i]);
  }
  util::append_field(s, "quarantine-trips", h.quarantine_trips);
  util::append_field(s, "quarantine-served", h.quarantine_served);
  util::append_field(s, "quarantine-probes", h.quarantine_probes);
  util::append_field(s, "quarantine-reopens", h.quarantine_reopens);
  util::append_field(s, "quarantine-rehabilitated", h.quarantine_rehabilitated);
  util::append_field(s, "quarantine-open",
                     static_cast<std::uint64_t>(h.quarantine_open));
  util::append_field(s, "models",
                     static_cast<std::uint64_t>(h.models_loaded));
  util::append_field(s, "model-predicted", h.model_predicted);
  util::append_field(s, "model-escalated", h.model_escalated);
  util::append_field(s, "model-out-of-hull", h.model_out_of_hull);
  util::append_field(s, "model-miss", h.model_miss);
  s.push_back('}');
  return s;
}

namespace {

sandbox::Quarantine::Options quarantine_options(const ServiceOptions& o) {
  sandbox::Quarantine::Options q;
  q.threshold = o.quarantine_threshold;
  q.base_expiry = std::chrono::duration_cast<sandbox::Quarantine::Clock::duration>(
      std::chrono::duration<double>(o.quarantine_base_expiry_seconds));
  q.max_expiry = std::chrono::duration_cast<sandbox::Quarantine::Clock::duration>(
      std::chrono::duration<double>(o.quarantine_max_expiry_seconds));
  return q;
}

}  // namespace

Service::Service(ServiceOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_bytes, opts_.cache_shards),
      quarantine_(quarantine_options(opts_)) {
  if (!opts_.executor) {
    opts_.executor = [](const jobs::KernelRequest& rq,
                        const exec::Budget& budget) {
      return jobs::run_kernel(rq, budget);
    };
  }
  if (!opts_.cache_path.empty() && opts_.cache_bytes > 0) {
    segment_ = std::make_unique<CacheSegmentFile>(opts_.cache_path);
    std::uint64_t warm = 0;
    segment_->load([&](std::string&& key, std::string&& value) {
      cache_.insert(key, std::move(value));
      ++warm;
    });
    warm_entries_.store(warm, std::memory_order_relaxed);
  }
  if (!opts_.model_path.empty()) load_models(opts_.model_path);
  if (opts_.workers > 0) {
    pool_ = std::make_unique<WorkerPool>(opts_.workers, opts_.queue_limit);
  }
}

Service::ModelsStatus Service::load_models(const std::string& path) {
  ModelsStatus st;
  model::ModelLoad load = model::load_models_file(path);
  st.status = load.status;
  st.torn_bytes = load.torn_bytes;
  st.error = load.error;
  if (!load.ok()) return st;  // previous registry (possibly none) stays
  auto reg = std::make_shared<const model::ModelRegistry>(
      model::build_registry(load));
  st.count = reg->size();
  std::lock_guard<std::mutex> lock(model_mu_);
  models_ = std::move(reg);
  return st;
}

std::shared_ptr<const model::ModelRegistry> Service::models() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return models_;
}

model::FeatureVector Service::features_for(const std::string& design) {
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = feat_memo_.find(design);
    if (it != feat_memo_.end()) return it->second;
  }
  const model::FeatureVector x = model::extract_features(design, 0.5);
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (feat_memo_.size() >= kMemoCap) feat_memo_.clear();
  feat_memo_.emplace(design, x);
  return x;
}

std::string Service::predicted_response(const Request& rq) {
  // Only kinds whose labels a characterization campaign can produce.
  if (rq.kind != jobs::JobKind::Symbolic &&
      rq.kind != jobs::JobKind::MonteCarlo)
    return {};
  const std::shared_ptr<const model::ModelRegistry> reg = models();
  if (!reg || reg->empty()) {
    model_miss_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  model::FeatureVector x;
  try {
    x = features_for(rq.design);
  } catch (...) {
    // Unextractable features: let the real kernel produce the typed error.
    model_miss_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  const std::string family = model::design_family(rq.design);
  const model::Prediction p =
      reg->predict(family, jobs::to_string(rq.kind), x, rq.confidence);
  if (p.status == model::PredictStatus::NoModel) {
    model_miss_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  if (p.status == model::PredictStatus::OutOfHull) {
    model_out_of_hull_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  // The accuracy contract: answer from the model only when the prediction
  // interval's relative half-width is within what the client asked for.
  const double denom = std::max(std::abs(p.value), 1e-12);
  if (!(p.halfwidth / denom <= rq.accuracy)) {
    model_escalated_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  model_predicted_.fetch_add(1, std::memory_order_relaxed);
  std::string detail = "macromodel ";
  detail += family;
  detail += '/';
  detail += jobs::to_string(rq.kind);
  detail += ", interval halfwidth ";
  util::append_json_double(detail, p.halfwidth);
  detail += " at confidence ";
  util::append_json_double(detail, rq.confidence);
  return make_predicted_response({}, p.value, p.value - p.halfwidth,
                                 p.value + p.halfwidth, detail);
}

std::uint64_t Service::fingerprint(jobs::JobKind kind,
                                   const std::string& design) {
  // One memo entry per (design *class*, spec): symbolic and monte-carlo
  // both build netlists, so they share a fingerprint.
  const char* cls = kind == jobs::JobKind::Markov    ? "fsm"
                    : kind == jobs::JobKind::Schedule ? "cdfg"
                                                      : "net";
  std::string memo_key = cls;
  memo_key += '|';
  memo_key += design;
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = fp_memo_.find(memo_key);
    if (it != fp_memo_.end()) return it->second;
  }
  std::uint64_t fp = 0;
  switch (kind) {
    case jobs::JobKind::Markov:
      fp = fsm::structural_hash(fsm::controller_by_name(design));
      break;
    case jobs::JobKind::Schedule:
      fp = cdfg::structural_hash(jobs::make_cdfg(design));
      break;
    default:
      fp = netlist::structural_hash(jobs::make_module(design).netlist);
      break;
  }
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (fp_memo_.size() >= kMemoCap) fp_memo_.clear();
  fp_memo_.emplace(std::move(memo_key), fp);
  return fp;
}

Service::Keys Service::keys(const Request& rq) {
  Keys k;
  // Base key: kind | content fingerprint | budget-irrelevant parameters.
  k.fp = fingerprint(rq.kind, rq.design);
  std::string base = jobs::to_string(rq.kind);
  base += '|';
  append_hex16(base, k.fp);
  switch (rq.kind) {
    // Static estimates carry the Monte Carlo accuracy knobs too: epsilon
    // decides tier-0 vs escalation and the remaining fields shape the
    // escalated sampling run, so they are all value-relevant.
    case jobs::JobKind::Static:
    case jobs::JobKind::MonteCarlo:
      base += "|eps=";
      util::append_json_double(base, rq.epsilon);
      base += "|conf=";
      util::append_json_double(base, rq.confidence);
      base += "|pairs=";
      append_u64(base, rq.min_pairs);
      base += ':';
      append_u64(base, rq.max_pairs);
      break;
    case jobs::JobKind::Markov:
      base += "|iters=";
      append_u64(base, static_cast<std::uint64_t>(rq.max_iters));
      break;
    default:
      break;  // symbolic / schedule results depend only on the design
  }
  // Content-addressed default seed: requests that omit the seed agree on
  // one derived from the content key, so they hit the same cache line.
  k.seed = rq.has_seed ? rq.seed : jobs::job_seed(base);
  k.cache_key = base;
  k.cache_key += "|seed=";
  append_u64(k.cache_key, k.seed);
  // Version of the tier-0 values, bumped whenever the static estimator's
  // numbers change, so a persisted segment never serves stale ones. It sits
  // after the seed, which it must not move.
  if (rq.kind == jobs::JobKind::Static) k.cache_key += "|static-v2";
  // Flight key adds the budget fields (and the cache opt-out): only
  // requests that would do byte-identical work under the same limits may
  // share one execution.
  k.flight_key = k.cache_key;
  k.flight_key += "|b=";
  util::append_json_double(k.flight_key, rq.deadline_seconds);
  k.flight_key += ':';
  append_u64(k.flight_key, rq.node_cap);
  k.flight_key += ':';
  append_u64(k.flight_key, rq.step_quota);
  k.flight_key += ':';
  append_u64(k.flight_key, rq.memory_cap_bytes);
  if (!rq.use_cache) k.flight_key += ":nocache";
  return k;
}

exec::Budget Service::budget_for(const Request& rq) const {
  exec::Budget b;
  b.deadline_seconds = rq.deadline_seconds;
  if (b.deadline_seconds <= 0.0 && opts_.default_deadline_seconds > 0.0)
    b.deadline_seconds = opts_.default_deadline_seconds;
  if (opts_.ceiling_deadline_seconds > 0.0) {
    b.deadline_seconds = b.deadline_seconds > 0.0
                             ? std::min(b.deadline_seconds,
                                        opts_.ceiling_deadline_seconds)
                             : opts_.ceiling_deadline_seconds;
  }
  b.node_cap = clamp_cap(rq.node_cap, opts_.ceiling_node_cap);
  b.step_quota = clamp_cap(rq.step_quota, opts_.ceiling_step_quota);
  b.memory_cap_bytes =
      clamp_cap(rq.memory_cap_bytes, opts_.ceiling_memory_cap_bytes);
  return b;
}

void Service::note_service_time(std::uint64_t us) {
  // EWMA with alpha = 1/8, seeded by the first sample. The load/store pair
  // is deliberately not a CAS loop: a lost update under contention just
  // delays the smoothing of a *hint*.
  const std::uint64_t prev = ewma_us_.load(std::memory_order_relaxed);
  std::uint64_t next = prev == 0 ? us : prev - prev / 8 + us / 8;
  if (next == 0) next = 1;
  ewma_us_.store(next, std::memory_order_relaxed);
}

std::uint64_t Service::retry_after_ms() const {
  const std::uint64_t us = ewma_us_.load(std::memory_order_relaxed);
  std::uint64_t waiting = 1;  // the retry itself
  int width = 1;
  if (pool_) {
    waiting += pool_->queue_depth() +
               static_cast<std::uint64_t>(std::max(0, pool_->busy()));
    // A wedged worker exists on paper but is not draining the queue:
    // discount it so the hint reflects the capacity actually serving.
    width = std::max(1, pool_->workers() - pool_->wedged());
  } else {
    const int inflight = inflight_.load(std::memory_order_relaxed);
    waiting += static_cast<std::uint64_t>(std::max(0, inflight));
  }
  return compute_retry_after_ms(us, waiting, width);
}

std::string Service::response_for_current_exception() {
  try {
    throw;
  } catch (const exec::BudgetExceeded& e) {
    if (e.reason() == exec::StopReason::Cancelled) {
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      return make_error_response({}, "cancelled", e.what());
    }
    if (e.reason() == exec::StopReason::Deadline)
      return make_error_response({}, "deadline-exceeded", e.what());
    return make_error_response({}, "budget-exhausted", e.what());
  } catch (const std::bad_alloc&) {
    return make_error_response({}, "internal", "allocation failure");
  } catch (const std::invalid_argument& e) {
    return make_error_response({}, "invalid-input", e.what());
  } catch (const std::exception& e) {
    return make_error_response({}, "internal", e.what());
  } catch (...) {
    return make_error_response({}, "internal", "unknown exception");
  }
}

bool Service::isolated(jobs::JobKind kind) const {
  switch (opts_.isolate) {
    case IsolateMode::Off: return false;
    case IsolateMode::All: return true;
    case IsolateMode::Symbolic: return kind == jobs::JobKind::Symbolic;
  }
  return false;
}

std::string Service::quarantined_response(const Request& rq) {
  if (netlist_backed(rq.kind)) {
    try {
      // Same tier-0 fallback as a deadline trip, but the detail names the
      // breaker so clients can tell "slow" from "poison". Never cached
      // (degraded), so a rehabilitated design recomputes for real.
      netlist::Module mod = jobs::make_module(rq.design);
      const netlist::NetlistIndex ix = netlist::build_index(mod.netlist);
      exec::Meter meter(exec::Budget::with_deadline(0.25));
      const analysis::StaticEstimate est =
          analysis::static_estimate(mod.netlist, ix, {}, &meter);
      if (est.stop == exec::StopReason::None) {
        std::string detail =
            "quarantined: repeated kernel crashes on this design; serving "
            "tier-0 static bounds [";
        util::append_json_double(detail, est.lower);
        detail += ", ";
        util::append_json_double(detail, est.upper);
        detail += "]";
        return make_value_response({}, est.point, detail, /*degraded=*/true);
      }
    } catch (...) {
      // Fall through to the typed error; degradation is best-effort.
    }
  }
  errors_.fetch_add(1, std::memory_order_relaxed);
  return make_error_response(
      {}, "quarantined",
      "repeated kernel crashes on this design fingerprint; retry after the "
      "quarantine expires");
}

std::string Service::isolated_response(const Request& rq, const Keys& k,
                                       const jobs::KernelRequest& krq,
                                       const exec::Budget& budget) {
  sandbox::Limits lim;
  lim.rlimit_as_bytes = opts_.isolate_rlimit_as_bytes;
  lim.rlimit_cpu_seconds = opts_.isolate_rlimit_cpu_seconds;
  lim.wall_deadline_seconds = wall_limit_for(budget.deadline_seconds);
  if (lim.wall_deadline_seconds <= 0.0)
    lim.wall_deadline_seconds = opts_.isolate_wall_ceiling_seconds;

  isolated_.fetch_add(1, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  const sandbox::RunResult r =
      sandbox::run_isolated(krq, budget, lim, opts_.executor, &budget.cancel);
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  note_service_time(static_cast<std::uint64_t>(us < 0 ? 0 : us));

  if (r.delivered) {
    if (opts_.quarantine_threshold > 0) quarantine_.record_success(k.fp);
    if (r.caught == jobs::ErrorClass::InvalidInput) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return make_error_response({}, "invalid-input", r.caught_detail);
    }
    if (r.caught != jobs::ErrorClass::None) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return make_error_response({}, "internal", r.caught_detail);
    }
    const jobs::AttemptOutcome& out = r.outcome;
    if (!out.ok) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      if (out.stop == exec::StopReason::Cancelled) {
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        return make_error_response({}, "cancelled", out.detail);
      }
      if (out.stop == exec::StopReason::Deadline)
        return make_error_response({}, "deadline-exceeded", out.detail);
      return make_error_response({}, "budget-exhausted", out.detail);
    }
    return make_value_response({}, out.out.value, out.out.detail,
                               out.out.degraded);
  }

  // The child died without delivering a frame: a typed crash, never a lost
  // response and never a dead daemon.
  child_crashes_.fetch_add(1, std::memory_order_relaxed);
  crashes_by_kind_[static_cast<std::size_t>(r.crash.kind)].fetch_add(
      1, std::memory_order_relaxed);
  const bool hard = r.crash.kind != sandbox::CrashKind::Cancelled;
  if (hard && opts_.quarantine_threshold > 0)
    quarantine_.record_failure(k.fp, sandbox::Quarantine::Clock::now());

  switch (r.crash.kind) {
    case sandbox::CrashKind::Cancelled:
      errors_.fetch_add(1, std::memory_order_relaxed);
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      return make_error_response({}, "cancelled", r.crash.detail);
    case sandbox::CrashKind::WallTimeout:
      // Same client contract as an in-process wall abandonment, including
      // the degrade-on-deadline tier-0 fallback.
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      return deadline_response(rq, budget.deadline_seconds > 0.0
                                       ? budget.deadline_seconds
                                       : lim.wall_deadline_seconds);
    case sandbox::CrashKind::OomKill:
    case sandbox::CrashKind::CpuLimit:
      errors_.fetch_add(1, std::memory_order_relaxed);
      return make_error_response({}, "budget-exhausted", r.crash.detail);
    default:
      errors_.fetch_add(1, std::memory_order_relaxed);
      return make_error_response({}, "internal", r.crash.detail);
  }
}

std::string Service::compute_response(const Request& rq, const Keys& k,
                                      const exec::CancelToken& cancel) {
  jobs::KernelRequest krq;
  krq.kind = rq.kind;
  krq.design = rq.design;
  krq.seed = k.seed;
  krq.epsilon = rq.epsilon;
  krq.confidence = rq.confidence;
  krq.min_pairs = rq.min_pairs;
  krq.max_pairs = rq.max_pairs;
  krq.max_iters = rq.max_iters;
  exec::Budget budget = budget_for(rq);
  budget.cancel = cancel;

  // Chaos injection: a kernel stuck between meter steps. Cancellable (the
  // waiter's deadline/drain path), but capped so a faulted request on an
  // unlimited budget cannot wedge a worker forever.
  std::uint64_t stall_ms = 0;
  if (fi::serve_fault_checkpoint(fi::ServeFault::KernelStall, &stall_ms)) {
    const auto cap = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(stall_ms > 0 ? stall_ms : 10000);
    while (!budget.cancel.cancel_requested() &&
           std::chrono::steady_clock::now() < cap) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  if (isolated(rq.kind)) return isolated_response(rq, k, krq, budget);

  const auto t0 = std::chrono::steady_clock::now();
  try {
    jobs::AttemptOutcome out = opts_.executor(krq, budget);
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    note_service_time(static_cast<std::uint64_t>(us < 0 ? 0 : us));
    if (!out.ok) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      if (out.stop == exec::StopReason::Cancelled) {
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        return make_error_response({}, "cancelled", out.detail);
      }
      if (out.stop == exec::StopReason::Deadline)
        return make_error_response({}, "deadline-exceeded", out.detail);
      return make_error_response({}, "budget-exhausted", out.detail);
    }
    return make_value_response({}, out.out.value, out.out.detail,
                               out.out.degraded);
  } catch (...) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return response_for_current_exception();
  }
}

std::string Service::deadline_response(const Request& rq,
                                       double limit_seconds) {
  std::string what = "wall deadline exceeded (";
  util::append_json_double(what, limit_seconds);
  what += "s); kernel cancelled";
  if (opts_.degrade_on_deadline && netlist_backed(rq.kind)) {
    try {
      // Tier-0 fallback (PR 7): the zero-simulation static estimate with
      // guaranteed bounds, under its own small budget so the fallback is
      // never the thing that hangs. Degraded answers are never cached.
      netlist::Module mod = jobs::make_module(rq.design);
      const netlist::NetlistIndex ix = netlist::build_index(mod.netlist);
      exec::Meter meter(exec::Budget::with_deadline(0.25));
      const analysis::StaticEstimate est =
          analysis::static_estimate(mod.netlist, ix, {}, &meter);
      if (est.stop == exec::StopReason::None) {
        degraded_deadline_.fetch_add(1, std::memory_order_relaxed);
        std::string detail = "deadline-degraded to static bounds [";
        util::append_json_double(detail, est.lower);
        detail += ", ";
        util::append_json_double(detail, est.upper);
        detail += "]";
        return make_value_response({}, est.point, detail, /*degraded=*/true);
      }
    } catch (...) {
      // Fall through to the typed error; degradation is best-effort.
    }
  }
  errors_.fetch_add(1, std::memory_order_relaxed);
  return make_error_response({}, "deadline-exceeded", what);
}

std::uint64_t Service::register_task(const std::shared_ptr<Task>& task) {
  std::lock_guard<std::mutex> lock(task_mu_);
  const std::uint64_t id = next_task_id_++;
  active_tasks_.emplace(id, task);
  return id;
}

void Service::unregister_task(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(task_mu_);
  active_tasks_.erase(id);
}

void Service::cancel_inflight() {
  std::lock_guard<std::mutex> lock(task_mu_);
  for (auto& [id, task] : active_tasks_) task->cancel.request_cancel();
}

void Service::abort_pending() {
  abort_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(task_mu_);
  for (auto& [id, task] : active_tasks_) {
    task->cancel.request_cancel();
    task->cv.notify_all();  // wake waiters so they observe the flag now
  }
}

std::string Service::lead_execute(const Request& rq, const Keys& k) {
  // fi injection point (thread-local, like the kernel-layer ones): the
  // allocation that publishes a fresh result. The regression surface for
  // the single-flight waiter-wake satellite — a throw here used to escape
  // through the flight into the connection loop.
  fi::alloc_checkpoint();

  auto task = std::make_shared<Task>();
  const std::uint64_t task_id = register_task(task);

  if (!pool_) {
    // Inline execution (workers = 0): the PR 5 behavior, still registered
    // so drain can cancel it cooperatively.
    struct Unregister {
      Service* s;
      std::uint64_t id;
      ~Unregister() { s->unregister_task(id); }
    } guard{this, task_id};
    std::string body = compute_response(rq, k, task->cancel);
    maybe_cache(rq, k, body);
    return body;
  }

  // The task's wall deadline, shared with the pool so its supervisor can
  // tell a wedged slot (busy past this point) from a merely busy one.
  const double cooperative = budget_for(rq).deadline_seconds;
  const double wall = wall_limit_for(cooperative);
  const auto wall_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(wall));

  const bool submitted = pool_->try_submit(
      [this, task, task_id, rq, k, wall, wall_deadline]() {
        if (isolated(rq.kind) && wall > 0.0 &&
            std::chrono::steady_clock::now() >= wall_deadline) {
          // Dequeued past the waiter's deadline, so the waiter answers
          // deadline-exceeded itself; a child forked now would run a
          // kernel nobody waits for.
          unregister_task(task_id);
          return;
        }
        std::string body;
        try {
          if (fi::serve_fault_checkpoint(fi::ServeFault::WorkerThrow))
            throw std::runtime_error("fi: injected worker crash mid-kernel");
          if (fi::serve_fault_checkpoint(fi::ServeFault::WorkerAlloc))
            throw std::bad_alloc{};
          body = compute_response(rq, k, task->cancel);
          maybe_cache(rq, k, body);
        } catch (...) {
          // compute_response catches everything itself; this guards the
          // injected faults and the response plumbing. A worker must never
          // rethrow — that would terminate the process.
          errors_.fetch_add(1, std::memory_order_relaxed);
          body = response_for_current_exception();
        }
        {
          std::lock_guard<std::mutex> lock(task->mu);
          task->body = std::move(body);
          task->done = true;
        }
        task->cv.notify_all();
        unregister_task(task_id);
      },
      wall > 0.0 ? wall_deadline : WorkerPool::Clock::time_point{});
  if (!submitted) {
    unregister_task(task_id);
    shed_.fetch_add(1, std::memory_order_relaxed);
    return make_error_response({}, "shed",
                               "admission control: kernel queue is full",
                               retry_after_ms());
  }

  std::unique_lock<std::mutex> lock(task->mu);
  for (;;) {
    if (task->done) return std::move(task->body);
    if (abort_.load(std::memory_order_acquire)) {
      task->cancel.request_cancel();
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      errors_.fetch_add(1, std::memory_order_relaxed);
      return make_error_response({}, "cancelled",
                                 "drain deadline abandoned the request");
    }
    if (wall > 0.0 && std::chrono::steady_clock::now() >= wall_deadline) {
      // Abandon: answer without the kernel. An in-process kernel is
      // cancelled. A sandboxed child is left to its own wall kill, counted
      // from its fork, so a WallTimeout (a hard quarantine failure) only
      // ever names a child that overran its own limit, never one that
      // merely waited in the queue. The worker still publishes a completed
      // result to the cache when it finishes.
      if (!isolated(rq.kind)) task->cancel.request_cancel();
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      return deadline_response(rq, cooperative);
    }
    task->cv.wait_for(lock, std::chrono::milliseconds(20));
  }
}

void Service::maybe_cache(const Request& rq, const Keys& k,
                          const std::string& body) {
  if (!rq.use_cache || opts_.cache_bytes == 0) return;
  // Only complete, non-degraded values are cached: anything a budget
  // touched depends on the budget, which the cache key excludes.
  ResponseView v;
  if (!(parse_response(body, v) && v.ok && v.has_value && !v.degraded)) return;
  cache_.insert(k.cache_key, body);
  if (segment_) segment_->append(k.cache_key, body);
}

std::string Service::handle_estimate(const Request& rq) {
  if (draining()) {
    refused_.fetch_add(1, std::memory_order_relaxed);
    return make_error_response(rq.id, "draining",
                               "service is shutting down");
  }
  if (opts_.max_inflight > 0) {
    int now = inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (now > opts_.max_inflight) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      shed_.fetch_add(1, std::memory_order_relaxed);
      return make_error_response(rq.id, "shed",
                                 "admission control: too many in-flight "
                                 "requests",
                                 retry_after_ms());
    }
  } else {
    inflight_.fetch_add(1, std::memory_order_acq_rel);
  }
  struct InflightGuard {
    std::atomic<int>& n;
    ~InflightGuard() { n.fetch_sub(1, std::memory_order_acq_rel); }
  } guard{inflight_};

  estimates_.fetch_add(1, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();

  Keys k;
  try {
    k = keys(rq);
  } catch (const std::invalid_argument& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return make_error_response(rq.id, "invalid-input", e.what());
  }

  std::string body;
  bool predicted = false;
  if (rq.use_cache && cache_.lookup(k.cache_key, body)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else if (rq.has_accuracy && !(body = predicted_response(rq)).empty()) {
    // Predicted tier (DESIGN.md §12): answered from the macromodel in
    // microseconds, interval attached, never cached. An empty return means
    // escalate — fall through to the real kernel below.
    predicted = true;
  } else if (opts_.quarantine_threshold > 0 &&
             quarantine_.admit(k.fp, sandbox::Quarantine::Clock::now()) ==
                 sandbox::Quarantine::Decision::Quarantined) {
    // Poison fingerprint, breaker open: answer degraded in microseconds
    // instead of re-executing the blowup. (An admitted Probe falls through
    // and executes; its child's fate closes or re-opens the breaker.)
    body = quarantined_response(rq);
  } else {
    try {
      SingleFlight::Result fr =
          flights_.run(k.flight_key, [&] { return lead_execute(rq, k); });
      body = std::move(fr.value);
      (fr.leader ? misses_ : coalesced_)
          .fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      // Whatever escaped the flight — the leader's publication failing
      // (fi alloc injection) or the rethrow a waiter received — becomes a
      // typed error response. Waiters are *woken with the error class*,
      // never left blocking (satellite: single-flight waiter leak).
      errors_.fetch_add(1, std::memory_order_relaxed);
      body = response_for_current_exception();
    }
  }

  if (rq.has_accuracy && !predicted) body = attach_tier_exact(std::move(body));

  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  latency_.record(static_cast<std::uint64_t>(us < 0 ? 0 : us));
  return attach_id(body, rq.id);
}

std::string Service::handle_line(std::string_view line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Request rq;
  std::string error;
  if (!Request::parse(line, rq, error)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return make_error_response({}, "malformed", error);
  }
  switch (rq.op) {
    case Op::Ping:
      return attach_id(make_ping_response(), rq.id);
    case Op::Metrics:
      return attach_id(serialize_metrics(metrics()), rq.id);
    case Op::Health:
      return attach_id(serialize_health(health()), rq.id);
    case Op::Estimate:
      return handle_estimate(rq);
  }
  errors_.fetch_add(1, std::memory_order_relaxed);
  return make_error_response(rq.id, "internal", "unhandled op");
}

ServiceMetrics Service::metrics() const {
  ServiceMetrics m;
  m.requests = requests_.load(std::memory_order_relaxed);
  m.estimates = estimates_.load(std::memory_order_relaxed);
  m.hits = hits_.load(std::memory_order_relaxed);
  m.misses = misses_.load(std::memory_order_relaxed);
  m.coalesced = coalesced_.load(std::memory_order_relaxed);
  m.shed = shed_.load(std::memory_order_relaxed);
  m.refused = refused_.load(std::memory_order_relaxed);
  m.errors = errors_.load(std::memory_order_relaxed);
  m.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  m.cancelled = cancelled_.load(std::memory_order_relaxed);
  m.degraded_deadline = degraded_deadline_.load(std::memory_order_relaxed);
  m.inflight = inflight_.load(std::memory_order_relaxed);
  m.draining = draining();
  if (pool_) {
    m.queue_depth = pool_->queue_depth();
    m.busy_workers = pool_->busy();
  }
  m.warm_entries = warm_entries_.load(std::memory_order_relaxed);
  if (segment_) {
    const SegmentStats ss = segment_->stats();
    m.persist_appends = ss.appends;
    m.persist_torn_bytes = ss.torn_bytes;
  }
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    m.memo_entries = fp_memo_.size() + feat_memo_.size();
  }
  m.ewma_service_us = ewma_us_.load(std::memory_order_relaxed);
  m.cache = cache_.stats();
  m.p50_us = latency_.percentile(0.50);
  m.p90_us = latency_.percentile(0.90);
  m.p99_us = latency_.percentile(0.99);
  return m;
}

ServiceHealth Service::health() const {
  ServiceHealth h;
  h.workers = opts_.workers;
  h.draining = draining();
  if (pool_) {
    h.live = pool_->live();
    h.busy = pool_->busy();
    h.wedged = pool_->wedged();
    h.queue_depth = pool_->queue_depth();
    h.respawns = pool_->respawns();
  }
  h.isolated = isolated_.load(std::memory_order_relaxed);
  h.child_crashes = child_crashes_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < crashes_by_kind_.size(); ++i)
    h.crashes_by_kind[i] = crashes_by_kind_[i].load(std::memory_order_relaxed);
  const sandbox::Quarantine::Counters q = quarantine_.counters();
  h.quarantine_trips = q.trips;
  h.quarantine_served = q.served_open;
  h.quarantine_probes = q.probes;
  h.quarantine_reopens = q.reopens;
  h.quarantine_rehabilitated = q.rehabilitated;
  h.quarantine_open = q.open_now;
  const std::shared_ptr<const model::ModelRegistry> reg = models();
  h.models_loaded = reg ? reg->size() : 0;
  h.model_predicted = model_predicted_.load(std::memory_order_relaxed);
  h.model_escalated = model_escalated_.load(std::memory_order_relaxed);
  h.model_out_of_hull = model_out_of_hull_.load(std::memory_order_relaxed);
  h.model_miss = model_miss_.load(std::memory_order_relaxed);
  return h;
}

}  // namespace hlp::serve
