#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "exec/exec.hpp"
#include "jobs/kernels.hpp"
#include "model/features.hpp"
#include "model/registry.hpp"
#include "sandbox/quarantine.hpp"
#include "sandbox/sandbox.hpp"
#include "serve/cache.hpp"
#include "serve/cachefile.hpp"
#include "serve/protocol.hpp"
#include "serve/singleflight.hpp"
#include "serve/workerpool.hpp"

namespace hlp::serve {

/// Kernel execution hook. Defaults to jobs::run_kernel; tests substitute a
/// counting or blocking kernel to observe single-flight and shed behavior.
/// Runs on a pool worker thread (or the connection thread when workers=0);
/// the budget's CancelToken is the request's abandonment signal — a
/// deadline-abandoned or drain-cancelled executor should observe it and
/// return promptly.
using Executor = std::function<jobs::AttemptOutcome(const jobs::KernelRequest&,
                                                    const exec::Budget&)>;

/// Which request kinds execute inside a forked sandbox child (DESIGN.md
/// §11). `Symbolic` — the default — isolates only the kinds with
/// exponential worst cases (BDD-based symbolic estimation); cheap sampled
/// and closed-form kinds stay in-process. `All` forks every kernel.
enum class IsolateMode : std::uint8_t { Off, Symbolic, All };

const char* to_string(IsolateMode m);
bool parse_isolate_mode(std::string_view s, IsolateMode& out);

struct ServiceOptions {
  std::size_t cache_bytes = 8u << 20;  ///< 0 disables the result cache
  std::size_t cache_shards = 8;
  /// Maximum estimate requests executing at once across all connections;
  /// beyond it requests are answered "shed" immediately. 0 = unlimited.
  int max_inflight = 0;
  /// Service-wide budget ceilings; a request's own budget fields are
  /// clamped to these. 0 = no ceiling.
  double ceiling_deadline_seconds = 0.0;
  std::size_t ceiling_node_cap = 0;
  std::size_t ceiling_step_quota = 0;
  std::size_t ceiling_memory_cap_bytes = 0;
  /// Kernel execution bulkhead: estimates run on this many pool workers
  /// behind a bounded queue, so connection threads only wait (cancellably)
  /// for results and a stuck kernel cannot wedge its connection. 0 runs
  /// kernels inline on the connection thread (the PR 5 behavior).
  int workers = 4;
  /// Kernel tasks allowed to queue behind the busy workers; at the limit
  /// requests are shed with a retry-after-ms hint. 0 = unbounded.
  std::size_t queue_limit = 256;
  /// Wall-clock deadline applied to estimate requests that do not carry
  /// their own "deadline" (0 = none). The ceiling clamps both.
  double default_deadline_seconds = 0.0;
  /// When a wall deadline trips on a netlist-backed kind, answer with the
  /// tier-0 static bound (degraded:true, never cached) instead of the
  /// "deadline-exceeded" error — a bounded answer beats none.
  bool degrade_on_deadline = false;
  /// Crash-safe persistence: path of the append-only CRC-framed segment
  /// file the result cache spills to (see CacheSegmentFile). Loaded on
  /// construction so a restarted server answers previously-cached designs
  /// warm. Empty = in-memory cache only.
  std::string cache_path;
  /// Macromodel registry file (HLPMODL1, see model::load_models_file),
  /// loaded on construction. Missing or damaged files never prevent
  /// startup — the service just runs without a predicted tier and the load
  /// status is queryable via load_models(). Empty = no models.
  std::string model_path;
  Executor executor;  ///< empty = jobs::run_kernel

  /// Process isolation (DESIGN.md §11): which kinds fork a sandbox child.
  /// Library default is Off (embedders and tests opt in; in-process fakes
  /// and TSan suites must not fork from a threaded process); the hlp_serve
  /// daemon defaults to Symbolic.
  IsolateMode isolate = IsolateMode::Off;
  /// Hard rlimit caps applied inside isolated children (0 = inherit).
  std::size_t isolate_rlimit_as_bytes = 0;
  double isolate_rlimit_cpu_seconds = 0.0;
  /// Wall ceiling for isolated children whose request carries no deadline
  /// (a child must never be unkillable); requests with deadlines use
  /// 1.25x + 50ms like the in-process waiter.
  double isolate_wall_ceiling_seconds = 30.0;

  /// Poison-request quarantine: after `quarantine_threshold` hard child
  /// crashes on one design fingerprint, answer it degraded instead of
  /// re-executing (exponential expiry, see sandbox::Quarantine).
  /// threshold <= 0 disables the breaker.
  int quarantine_threshold = 3;
  double quarantine_base_expiry_seconds = 30.0;
  double quarantine_max_expiry_seconds = 1800.0;
};

/// One counter slot per sandbox::CrashKind, indexed by the kind.
inline constexpr std::size_t kCrashKinds = 8;
static_assert(static_cast<std::size_t>(sandbox::CrashKind::PipeError) + 1 ==
                  kCrashKinds,
              "one crash counter per sandbox::CrashKind");

/// The service's monotone counters, one slot each in Service's counter
/// table. Each is named on the wire once, by the row table in service.cpp.
enum class Counter : std::uint8_t {
  Requests, Estimates, Hits, Misses, Coalesced, Shed, Refused, Errors,
  DeadlineExceeded, Cancelled, DegradedDeadline,
  Isolated, ChildCrashes,
  ModelPredicted, ModelEscalated, ModelOutOfHull, ModelMiss,
  Crash,  ///< first of kCrashKinds slots, indexed by sandbox::CrashKind
  kCount = Crash + kCrashKinds
};

/// Point-in-time service state: one snapshot answers both {"op":"metrics"}
/// and {"op":"health"} (DESIGN.md §9, §11). Counters are monotone; the
/// rest are gauges.
struct ServiceStats {
  // Request counters (metrics).
  std::uint64_t requests = 0;   ///< lines received (any op, incl. malformed)
  std::uint64_t estimates = 0;  ///< estimate requests admitted past shed/drain
  std::uint64_t hits = 0;       ///< served from the result cache
  std::uint64_t misses = 0;     ///< kernel executions led by this request
  std::uint64_t coalesced = 0;  ///< waited on another request's execution
  std::uint64_t shed = 0;       ///< refused by admission control
  std::uint64_t refused = 0;    ///< refused because the service is draining
  std::uint64_t errors = 0;     ///< malformed / invalid-input / kernel errors
  std::uint64_t deadline_exceeded = 0;  ///< wall-deadline abandonments
  std::uint64_t cancelled = 0;  ///< drain/abort-cancelled requests
  std::uint64_t degraded_deadline = 0;  ///< deadline trips degraded to tier-0
  // Sandbox and predicted-tier counters (health, DESIGN.md §11, §12).
  std::uint64_t isolated = 0;       ///< kernel attempts run in a child
  std::uint64_t child_crashes = 0;  ///< children that died without a frame
  std::array<std::uint64_t, kCrashKinds> crashes_by_kind{};
  std::uint64_t model_predicted = 0;    ///< answered from a macromodel
  std::uint64_t model_escalated = 0;    ///< interval too wide for accuracy
  std::uint64_t model_out_of_hull = 0;  ///< extrapolation refused
  std::uint64_t model_miss = 0;         ///< no model for the family/kind

  // Admission, pool and working-set gauges.
  int inflight = 0;
  bool draining = false;
  std::size_t queue_depth = 0;  ///< kernel tasks queued, not yet started
  int busy_workers = 0;
  int workers = 0;  ///< configured pool size (0 = inline execution)
  int live = 0;     ///< threads currently serving the queue
  int busy = 0;     ///< tasks executing (incl. wedged/superseded)
  int wedged = 0;   ///< busy past deadline, not yet superseded
  std::uint64_t respawns = 0;      ///< supervisor replacements (one per wedge)
  std::uint64_t warm_entries = 0;  ///< cache entries loaded from the segment
  std::uint64_t persist_appends = 0;
  std::uint64_t persist_torn_bytes = 0;
  std::uint64_t memo_entries = 0;  ///< fingerprint + feature memo entries
  std::uint64_t ewma_service_us = 0;  ///< smoothed kernel service time
  CacheStats cache;
  std::uint64_t p50_us = 0;  ///< estimate-latency percentiles (log buckets)
  std::uint64_t p90_us = 0;
  std::uint64_t p99_us = 0;
  // Quarantine circuit breaker and model registry.
  std::uint64_t quarantine_trips = 0;
  std::uint64_t quarantine_served = 0;  ///< answered without execution
  std::uint64_t quarantine_probes = 0;
  std::uint64_t quarantine_reopens = 0;
  std::uint64_t quarantine_rehabilitated = 0;
  std::size_t quarantine_open = 0;  ///< fingerprints open right now
  std::size_t models_loaded = 0;    ///< registry entries live right now
};
using ServiceMetrics = ServiceStats;
using ServiceHealth = ServiceStats;

/// Lock-free log-scale latency histogram: bucket i holds samples whose
/// microsecond count has bit width i, so percentiles are exact to a factor
/// of two — enough to tell a cache hit from a kernel run.
class LatencyHistogram {
 public:
  void record(std::uint64_t us);
  /// p in [0,1]; returns the upper bound of the bucket containing the
  /// p-quantile (0 when empty).
  std::uint64_t percentile(double p) const;

 private:
  static constexpr std::size_t kBuckets = 40;
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// The estimation service: protocol handling, content-addressed result
/// cache (optionally spilled to a crash-safe segment file), single-flight
/// deduplication, worker-pool kernel execution with per-request wall
/// deadlines, load-aware admission control, drain.
///
/// Thread-safe: handle_line may be called concurrently from any number of
/// connection threads. Everything transport-level (framing, sockets) lives
/// in Server; Service maps one request line to one response line.
///
/// Cache key (DESIGN.md §9): kind | structural fingerprint of the built
/// design | seed | budget-*irrelevant* kernel parameters. Budget fields
/// are deliberately excluded — a completed, non-degraded result is
/// budget-invariant (a budget trip surfaces as ok=false or degraded=true,
/// and only ok && !degraded results are cached). The single-flight key
/// appends the budget fields, so concurrent requests share one execution
/// only when they would do byte-identical work.
///
/// Execution path (DESIGN.md §9): the single-flight leader registers a
/// cancellable task, submits the kernel to the pool, and waits on the
/// task's latch with a wall-clock deadline. On expiry it cancels the
/// kernel through the task's CancelToken and answers "deadline-exceeded"
/// (or the tier-0 static bound); the worker finishes in the background,
/// still publishing a completed result to the cache so the work is not
/// wasted. Kernel exceptions never cross the pool boundary — workers
/// classify them into typed error responses, which single-flight hands to
/// every coalesced waiter.
class Service {
 public:
  explicit Service(ServiceOptions opts = {});

  /// One request line (newline excluded) -> one response line (newline
  /// excluded). Never throws; protocol and kernel failures become
  /// {"ok":false,...} responses.
  std::string handle_line(std::string_view line);

  /// The one snapshot of every counter and gauge, under the name of
  /// either op it answers.
  ServiceStats metrics() const;
  ServiceStats health() const { return metrics(); }

  /// After begin_drain(), estimate requests are answered "draining";
  /// metrics and ping still work so shutdown can be observed.
  void begin_drain() { draining_.store(true, std::memory_order_relaxed); }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Request cooperative cancellation of every in-flight kernel through
  /// its CancelToken; well-behaved kernels answer "cancelled" within a
  /// meter poll. Sticky: a request admitted earlier that registers its
  /// task only afterwards is cancelled at registration. Used by
  /// Server::shutdown under a drain deadline.
  void cancel_inflight();

  /// Hard abort: every connection thread still waiting on a kernel answers
  /// "cancelled" immediately, without waiting for the worker (the orphaned
  /// task finishes in the background and is discarded). One-way, like
  /// begin_drain. The escalation when the grace period expires.
  void abort_pending();

  /// Derived request identity, exposed for tests and tooling.
  struct Keys {
    std::string cache_key;
    std::string flight_key;
    std::uint64_t seed = 0;  ///< effective seed (derived when not given)
    std::uint64_t fp = 0;    ///< structural fingerprint (quarantine key)
  };
  /// Throws std::invalid_argument for an unbuildable design.
  Keys keys(const Request& rq);

  /// Outcome of (re)loading the model registry — typed, never a throw, so
  /// operational tooling and tests can assert exactly what happened to a
  /// missing / torn / corrupt / version-skewed artifact file.
  struct ModelsStatus {
    model::ModelFileStatus status = model::ModelFileStatus::Missing;
    std::size_t count = 0;        ///< registry entries after the load
    std::uint64_t torn_bytes = 0;
    std::string error;
    bool ok() const { return status == model::ModelFileStatus::Ok; }
  };
  /// Load (or hot-reload) the macromodel registry from `path`. On success
  /// the new registry atomically replaces the old one (in-flight requests
  /// keep the snapshot they started with); on any failure the previous
  /// registry — possibly none — keeps serving. Thread-safe.
  ModelsStatus load_models(const std::string& path);
  /// Current registry snapshot (may be null). Thread-safe.
  std::shared_ptr<const model::ModelRegistry> models() const;

 private:
  /// Per-execution latch shared by the single-flight leader (waiter side)
  /// and the pool worker (producer side). The leader may abandon the wait
  /// (deadline / abort); shared_ptr keeps the state alive for the worker.
  struct Task {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::string body;
    exec::CancelToken cancel;
  };

  std::string handle_estimate(const Request& rq);
  /// Single-flight leader body: execute the kernel (pool or inline) and
  /// return the id-less response body.
  std::string lead_execute(const Request& rq, const Keys& k);
  /// Id-less response for one kernel execution; runs on a pool worker (or
  /// inline). Catches everything. Feeds the quarantine breaker: a
  /// delivered outcome is a success, a child crash a hard failure.
  std::string compute_response(const Request& rq, const Keys& k,
                               const exec::CancelToken& cancel);
  /// True when `kind` executes inside a forked sandbox child.
  bool isolated(jobs::JobKind kind) const;
  /// Run one attempt in a sandbox child and map the RunResult into a
  /// response line plus crash/quarantine bookkeeping.
  std::string isolated_response(const Request& rq, const Keys& k,
                                const jobs::KernelRequest& krq,
                                const exec::Budget& budget);
  /// Map a delivered kernel outcome (in-process or from a sandbox child)
  /// to a value response or its typed budget error.
  std::string outcome_response(const jobs::AttemptOutcome& out);
  /// Answer an open-quarantined fingerprint without executing: tier-0
  /// static bound (degraded, "quarantined" detail) for netlist-backed
  /// kinds, the "quarantined" error class otherwise. Never cached.
  std::string quarantined_response(const Request& rq);
  /// Response for a wall-deadline abandonment: tier-0 static bound when
  /// degrade_on_deadline allows, else the typed error.
  std::string deadline_response(const Request& rq, double limit_seconds);
  /// Predicted-tier attempt for an accuracy-carrying request: answer from
  /// the macromodel when it covers the request and its interval supports
  /// the accuracy; "" means escalate to the real kernel (the miss /
  /// out-of-hull / escalated counter has already been bumped).
  std::string predicted_response(const Request& rq);
  /// Memoized canonical feature extraction (uniform inputs, p = 0.5 — the
  /// statistics serve-time kernels use). Throws like extract_features.
  model::FeatureVector features_for(const std::string& design);
  /// Map the in-flight exception (call inside catch) to a typed error
  /// response. Never throws.
  std::string response_for_current_exception();
  void maybe_cache(const Request& rq, const Keys& k, const std::string& body);
  std::uint64_t fingerprint(jobs::JobKind kind, const std::string& design);
  exec::Budget budget_for(const Request& rq) const;
  std::uint64_t retry_after_ms() const;
  void note_service_time(std::uint64_t us);
  void count(Counter c) {
    counters_[static_cast<std::size_t>(c)].fetch_add(
        1, std::memory_order_relaxed);
  }
  std::uint64_t register_task(const std::shared_ptr<Task>& task);
  void unregister_task(std::uint64_t id);

  ServiceOptions opts_;
  ResultCache cache_;
  SingleFlight flights_;
  LatencyHistogram latency_;
  std::unique_ptr<CacheSegmentFile> segment_;

  /// Client-keyed memos, each cleared when it reaches kMemoCap entries.
  /// Feature extraction builds the netlist and runs static analysis (~ms);
  /// the predicted tier must answer in µs on repeats.
  static constexpr std::size_t kMemoCap = 1024;
  mutable std::mutex memo_mu_;
  std::unordered_map<std::string, std::uint64_t> fp_memo_;
  std::unordered_map<std::string, model::FeatureVector> feat_memo_;

  /// Registry snapshot pointer, swapped whole under model_mu_ (readers
  /// copy the shared_ptr and predict lock-free on an immutable registry).
  mutable std::mutex model_mu_;
  std::shared_ptr<const model::ModelRegistry> models_;

  std::mutex task_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Task>> active_tasks_;
  std::uint64_t next_task_id_ = 0;
  bool cancel_all_ = false;  ///< set by cancel_inflight; guarded by task_mu_

  std::atomic<bool> draining_{false};
  std::atomic<bool> abort_{false};
  std::atomic<int> inflight_{0};
  std::atomic<std::uint64_t> ewma_us_{0};
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(Counter::kCount)>
      counters_{};
  std::uint64_t warm_entries_ = 0;  ///< set once, in the constructor

  sandbox::Quarantine quarantine_;

  /// Declared last: destroyed first, so workers finish (running any queued
  /// task to completion) while every member their closures touch is alive.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace hlp::serve
