#include "serve/service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <charconv>
#include <new>
#include <stdexcept>
#include <thread>
#include <type_traits>
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
/// static bound can stand in for on a deadline trip or a quarantine.
bool netlist_backed(jobs::JobKind kind) {
  return kind == jobs::JobKind::Symbolic ||
         kind == jobs::JobKind::MonteCarlo || kind == jobs::JobKind::Static;
}

/// Wall budget of the tier-0 static fallback.
constexpr double kStaticFallbackSeconds = 0.25;

/// Tier-0 stand-in for a netlist-backed request: the static estimate's
/// point value, degraded, with `prefix` and the [lower, upper] bounds as
/// detail. "" for other kinds or when the estimate does not finish.
std::string static_fallback(const Request& rq, std::string_view prefix) {
  if (!netlist_backed(rq.kind)) return {};
  try {
    // The zero-simulation static estimate with guaranteed bounds, under its
    // own small budget so the fallback is never the thing that hangs.
    netlist::Module mod = jobs::make_module(rq.design);
    const netlist::NetlistIndex ix = netlist::build_index(mod.netlist);
    exec::Meter meter(exec::Budget::with_deadline(kStaticFallbackSeconds));
    const analysis::StaticEstimate est =
        analysis::static_estimate(mod.netlist, ix, {}, &meter);
    if (est.stop != exec::StopReason::None) return {};
    std::string detail(prefix);
    detail += " [";
    util::append_json_double(detail, est.lower);
    detail += ", ";
    util::append_json_double(detail, est.upper);
    detail += "]";
    return make_value_response({}, est.point, detail, /*degraded=*/true);
  } catch (...) {
    return {};  // degradation is best-effort
  }
}

std::uint64_t micros_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
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
  buckets_[std::min<std::size_t>(std::bit_width(us), kBuckets - 1)].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::percentile(double p) const {
  std::array<std::uint64_t, kBuckets> snap;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    snap[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snap[i];
  }
  if (total == 0) return 0;
  const double target = p * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += snap[i];
    if (static_cast<double>(seen) >= target) {
      // Upper bound of bucket i: largest value with bit width i.
      return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
    }
  }
  return (std::uint64_t{1} << (kBuckets - 1)) - 1;
}

namespace {

using Emit = void (*)(std::string& out, const char* key, const ServiceStats& s);

/// Emits the gauge the member path reaches in the snapshot (a member, or a
/// member of a member): the pool's ints clamped at zero, draining as a
/// bool, everything else as an unsigned number.
template <auto... Path>
void gauge(std::string& out, const char* key, const ServiceStats& s) {
  auto v = (s .* ... .* Path);
  using T = decltype(v);
  if constexpr (std::is_same_v<T, int> || std::is_same_v<T, bool>)
    util::append_field(out, key, v);
  else
    util::append_field(out, key, static_cast<std::uint64_t>(v));
}

/// One counter per crash class, keyed by the prefix and the sandbox
/// taxonomy ("crash-signal", "crash-oom-kill", ...). CrashKind::None is
/// never counted, never emitted.
void crash_block(std::string& out, const char* prefix, const ServiceStats& s) {
  for (std::size_t i = 1; i < kCrashKinds; ++i) {
    std::string key = prefix;
    key += sandbox::to_string(static_cast<sandbox::CrashKind>(i));
    util::append_field(out, key.c_str(), s.crashes_by_kind[i]);
  }
}

/// One field of the metrics or health reply. A counter row names the
/// table slot the gather copies into its snapshot field; every other row
/// emits a gauge.
struct Row {
  constexpr Row(const char* k, Op o, Counter c, std::uint64_t ServiceStats::*f)
      : key(k), op(o), counter(c), field(f) {}
  constexpr Row(const char* k, Op o, Emit e) : key(k), op(o), emit(e) {}
  const char* key;
  Op op;
  Counter counter = Counter::kCount;
  std::uint64_t ServiceStats::*field = nullptr;
  Emit emit = nullptr;
};

using S = ServiceStats;

/// Both replies, each in wire order. Keys and order are client-visible
/// (parse_response, CI greps) and pinned by the ServeStats tests.
constexpr Row kRows[] = {
    {"hits", Op::Metrics, Counter::Hits, &S::hits},
    {"misses", Op::Metrics, Counter::Misses, &S::misses},
    {"coalesced", Op::Metrics, Counter::Coalesced, &S::coalesced},
    {"shed", Op::Metrics, Counter::Shed, &S::shed},
    {"requests", Op::Metrics, Counter::Requests, &S::requests},
    {"estimates", Op::Metrics, Counter::Estimates, &S::estimates},
    {"refused", Op::Metrics, Counter::Refused, &S::refused},
    {"errors", Op::Metrics, Counter::Errors, &S::errors},
    {"deadline-exceeded", Op::Metrics, Counter::DeadlineExceeded,
     &S::deadline_exceeded},
    {"cancelled", Op::Metrics, Counter::Cancelled, &S::cancelled},
    {"degraded-deadline", Op::Metrics, Counter::DegradedDeadline,
     &S::degraded_deadline},
    {"inflight", Op::Metrics, gauge<&S::inflight>},
    {"draining", Op::Metrics, gauge<&S::draining>},
    {"queue-depth", Op::Metrics, gauge<&S::queue_depth>},
    {"busy-workers", Op::Metrics, gauge<&S::busy_workers>},
    {"warm-entries", Op::Metrics, gauge<&S::warm_entries>},
    {"persist-appends", Op::Metrics, gauge<&S::persist_appends>},
    {"persist-torn-bytes", Op::Metrics, gauge<&S::persist_torn_bytes>},
    {"memo-entries", Op::Metrics, gauge<&S::memo_entries>},
    {"ewma-service-us", Op::Metrics, gauge<&S::ewma_service_us>},
    {"cache-entries", Op::Metrics, gauge<&S::cache, &CacheStats::entries>},
    {"cache-bytes", Op::Metrics, gauge<&S::cache, &CacheStats::bytes>},
    {"cache-evictions", Op::Metrics, gauge<&S::cache, &CacheStats::evictions>},
    {"p50-us", Op::Metrics, gauge<&S::p50_us>},
    {"p90-us", Op::Metrics, gauge<&S::p90_us>},
    {"p99-us", Op::Metrics, gauge<&S::p99_us>},

    {"workers", Op::Health, gauge<&S::workers>},
    {"live", Op::Health, gauge<&S::live>},
    {"busy", Op::Health, gauge<&S::busy>},
    {"wedged", Op::Health, gauge<&S::wedged>},
    {"queue-depth", Op::Health, gauge<&S::queue_depth>},
    {"respawns", Op::Health, gauge<&S::respawns>},
    {"draining", Op::Health, gauge<&S::draining>},
    {"isolated", Op::Health, Counter::Isolated, &S::isolated},
    {"child-crashes", Op::Health, Counter::ChildCrashes, &S::child_crashes},
    {"crash-", Op::Health, crash_block},
    {"quarantine-trips", Op::Health, gauge<&S::quarantine_trips>},
    {"quarantine-served", Op::Health, gauge<&S::quarantine_served>},
    {"quarantine-probes", Op::Health, gauge<&S::quarantine_probes>},
    {"quarantine-reopens", Op::Health, gauge<&S::quarantine_reopens>},
    {"quarantine-rehabilitated", Op::Health,
     gauge<&S::quarantine_rehabilitated>},
    {"quarantine-open", Op::Health, gauge<&S::quarantine_open>},
    {"models", Op::Health, gauge<&S::models_loaded>},
    {"model-predicted", Op::Health, Counter::ModelPredicted,
     &S::model_predicted},
    {"model-escalated", Op::Health, Counter::ModelEscalated,
     &S::model_escalated},
    {"model-out-of-hull", Op::Health, Counter::ModelOutOfHull,
     &S::model_out_of_hull},
    {"model-miss", Op::Health, Counter::ModelMiss, &S::model_miss},
};

// Each counter outside the crash block has exactly one row.
static_assert([] {
  std::array<int, static_cast<std::size_t>(Counter::Crash)> rows{};
  for (const Row& r : kRows)
    if (r.field) ++rows[static_cast<std::size_t>(r.counter)];
  return std::all_of(rows.begin(), rows.end(), [](int n) { return n == 1; });
}());

/// The metrics or health reply: the rows of `op`, in table order.
std::string serialize(const ServiceStats& s, Op op) {
  std::string out = "{\"ok\":true";
  util::append_field(out, "op", to_string(op));
  for (const Row& r : kRows) {
    if (r.op != op) continue;
    if (r.emit)
      r.emit(out, r.key, s);
    else
      util::append_field(out, r.key, s.*r.field);
  }
  out.push_back('}');
  return out;
}

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
    warm_entries_ = warm;
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
    count(Counter::ModelMiss);
    return {};
  }
  model::FeatureVector x;
  try {
    x = features_for(rq.design);
  } catch (...) {
    // Unextractable features: let the real kernel produce the typed error.
    count(Counter::ModelMiss);
    return {};
  }
  const std::string family = model::design_family(rq.design);
  const model::Prediction p =
      reg->predict(family, jobs::to_string(rq.kind), x, rq.confidence);
  if (p.status == model::PredictStatus::NoModel) {
    count(Counter::ModelMiss);
    return {};
  }
  if (p.status == model::PredictStatus::OutOfHull) {
    count(Counter::ModelOutOfHull);
    return {};
  }
  // The accuracy contract: answer from the model only when the prediction
  // interval's relative half-width is within what the client asked for.
  const double denom = std::max(std::abs(p.value), 1e-12);
  if (!(p.halfwidth / denom <= rq.accuracy)) {
    count(Counter::ModelEscalated);
    return {};
  }
  count(Counter::ModelPredicted);
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
  if (rq.kind == jobs::JobKind::Static) k.cache_key += "|static-v3";
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
      count(Counter::Cancelled);
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
  // The detail names the breaker so clients can tell "slow" from "poison".
  // Never cached (degraded), so a rehabilitated design recomputes for real.
  std::string body = static_fallback(
      rq,
      "quarantined: repeated kernel crashes on this design; serving tier-0 "
      "static bounds");
  if (!body.empty()) return body;
  count(Counter::Errors);
  return make_error_response(
      {}, "quarantined",
      "repeated kernel crashes on this design fingerprint; retry after the "
      "quarantine expires");
}

std::string Service::outcome_response(const jobs::AttemptOutcome& out) {
  if (out.ok) {
    return make_value_response({}, out.out.value, out.out.detail,
                               out.out.degraded);
  }
  count(Counter::Errors);
  if (out.stop == exec::StopReason::Cancelled) {
    count(Counter::Cancelled);
    return make_error_response({}, "cancelled", out.detail);
  }
  if (out.stop == exec::StopReason::Deadline)
    return make_error_response({}, "deadline-exceeded", out.detail);
  return make_error_response({}, "budget-exhausted", out.detail);
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

  count(Counter::Isolated);
  const auto t0 = std::chrono::steady_clock::now();
  const sandbox::RunResult r =
      sandbox::run_isolated(krq, budget, lim, opts_.executor, &budget.cancel);
  note_service_time(micros_since(t0));

  if (r.delivered) {
    if (opts_.quarantine_threshold > 0) quarantine_.record_success(k.fp);
    if (r.caught == jobs::ErrorClass::InvalidInput) {
      count(Counter::Errors);
      return make_error_response({}, "invalid-input", r.caught_detail);
    }
    if (r.caught != jobs::ErrorClass::None) {
      count(Counter::Errors);
      return make_error_response({}, "internal", r.caught_detail);
    }
    return outcome_response(r.outcome);
  }

  // The child died without delivering a frame: a typed crash, never a lost
  // response and never a dead daemon.
  count(Counter::ChildCrashes);
  count(static_cast<Counter>(static_cast<std::size_t>(Counter::Crash) +
                             static_cast<std::size_t>(r.crash.kind)));
  const bool hard = r.crash.kind != sandbox::CrashKind::Cancelled;
  if (hard && opts_.quarantine_threshold > 0)
    quarantine_.record_failure(k.fp, sandbox::Quarantine::Clock::now());

  if (r.crash.kind == sandbox::CrashKind::WallTimeout) {
    // Same client contract as an in-process wall abandonment, including
    // the degrade-on-deadline tier-0 fallback.
    count(Counter::DeadlineExceeded);
    return deadline_response(rq, budget.deadline_seconds > 0.0
                                     ? budget.deadline_seconds
                                     : lim.wall_deadline_seconds);
  }
  count(Counter::Errors);
  if (!hard) count(Counter::Cancelled);
  return make_error_response(
      {}, jobs::to_string(sandbox::error_class_for(r.crash)), r.crash.detail);
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
    const jobs::AttemptOutcome out = opts_.executor(krq, budget);
    note_service_time(micros_since(t0));
    return outcome_response(out);
  } catch (...) {
    count(Counter::Errors);
    return response_for_current_exception();
  }
}

std::string Service::deadline_response(const Request& rq,
                                       double limit_seconds) {
  std::string what = "wall deadline exceeded (";
  util::append_json_double(what, limit_seconds);
  what += "s); kernel cancelled";
  if (opts_.degrade_on_deadline) {
    // Degraded answers are never cached.
    std::string body =
        static_fallback(rq, "deadline-degraded to static bounds");
    if (!body.empty()) {
      count(Counter::DegradedDeadline);
      return body;
    }
  }
  count(Counter::Errors);
  return make_error_response({}, "deadline-exceeded", what);
}

std::uint64_t Service::register_task(const std::shared_ptr<Task>& task) {
  std::lock_guard<std::mutex> lock(task_mu_);
  const std::uint64_t id = next_task_id_++;
  active_tasks_.emplace(id, task);
  if (cancel_all_) task->cancel.request_cancel();
  return id;
}

void Service::unregister_task(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(task_mu_);
  active_tasks_.erase(id);
}

void Service::cancel_inflight() {
  std::lock_guard<std::mutex> lock(task_mu_);
  cancel_all_ = true;
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
          count(Counter::Errors);
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
    count(Counter::Shed);
    return make_error_response({}, "shed",
                               "admission control: kernel queue is full",
                               retry_after_ms());
  }

  std::unique_lock<std::mutex> lock(task->mu);
  for (;;) {
    if (task->done) return std::move(task->body);
    if (abort_.load(std::memory_order_acquire)) {
      task->cancel.request_cancel();
      count(Counter::Cancelled);
      count(Counter::Errors);
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
      count(Counter::DeadlineExceeded);
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
    count(Counter::Refused);
    return make_error_response(rq.id, "draining",
                               "service is shutting down");
  }
  const int now = inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (opts_.max_inflight > 0 && now > opts_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    count(Counter::Shed);
    return make_error_response(
        rq.id, "shed", "admission control: too many in-flight requests",
        retry_after_ms());
  }
  struct InflightGuard {
    std::atomic<int>& n;
    ~InflightGuard() { n.fetch_sub(1, std::memory_order_acq_rel); }
  } guard{inflight_};

  count(Counter::Estimates);
  const auto t0 = std::chrono::steady_clock::now();

  Keys k;
  try {
    k = keys(rq);
  } catch (const std::invalid_argument& e) {
    count(Counter::Errors);
    return make_error_response(rq.id, "invalid-input", e.what());
  }

  std::string body;
  bool predicted = false;
  if (rq.use_cache && cache_.lookup(k.cache_key, body)) {
    count(Counter::Hits);
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
      count(fr.leader ? Counter::Misses : Counter::Coalesced);
    } catch (...) {
      // Whatever escaped the flight — the leader's publication failing
      // (fi alloc injection) or the rethrow a waiter received — becomes a
      // typed error response. Waiters are *woken with the error class*,
      // never left blocking (satellite: single-flight waiter leak).
      count(Counter::Errors);
      body = response_for_current_exception();
    }
  }

  if (rq.has_accuracy && !predicted) body = attach_tier_exact(std::move(body));

  latency_.record(micros_since(t0));
  return attach_id(body, rq.id);
}

std::string Service::handle_line(std::string_view line) {
  count(Counter::Requests);
  Request rq;
  std::string error;
  if (!Request::parse(line, rq, error)) {
    count(Counter::Errors);
    return make_error_response({}, "malformed", error);
  }
  switch (rq.op) {
    case Op::Ping:
      return attach_id(make_ping_response(), rq.id);
    case Op::Metrics:
    case Op::Health:
      return attach_id(serialize(metrics(), rq.op), rq.id);
    case Op::Estimate:
      return handle_estimate(rq);
  }
  count(Counter::Errors);
  return make_error_response(rq.id, "internal", "unhandled op");
}

ServiceStats Service::metrics() const {
  ServiceStats s;
  for (const Row& r : kRows) {
    if (r.field)
      s.*r.field = counters_[static_cast<std::size_t>(r.counter)].load(
          std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kCrashKinds; ++i) {
    s.crashes_by_kind[i] =
        counters_[static_cast<std::size_t>(Counter::Crash) + i].load(
            std::memory_order_relaxed);
  }
  s.inflight = inflight_.load(std::memory_order_relaxed);
  s.draining = draining();
  s.workers = opts_.workers;
  if (pool_) {
    s.queue_depth = pool_->queue_depth();
    s.busy_workers = s.busy = pool_->busy();
    s.live = pool_->live();
    s.wedged = pool_->wedged();
    s.respawns = pool_->respawns();
  }
  s.warm_entries = warm_entries_;
  if (segment_) {
    const SegmentStats ss = segment_->stats();
    s.persist_appends = ss.appends;
    s.persist_torn_bytes = ss.torn_bytes;
  }
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    s.memo_entries = fp_memo_.size() + feat_memo_.size();
  }
  s.ewma_service_us = ewma_us_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  s.p50_us = latency_.percentile(0.50);
  s.p90_us = latency_.percentile(0.90);
  s.p99_us = latency_.percentile(0.99);
  const sandbox::Quarantine::Counters q = quarantine_.counters();
  s.quarantine_trips = q.trips;
  s.quarantine_served = q.served_open;
  s.quarantine_probes = q.probes;
  s.quarantine_reopens = q.reopens;
  s.quarantine_rehabilitated = q.rehabilitated;
  s.quarantine_open = q.open_now;
  const std::shared_ptr<const model::ModelRegistry> reg = models();
  s.models_loaded = reg ? reg->size() : 0;
  return s;
}

}  // namespace hlp::serve
