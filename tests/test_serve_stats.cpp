// Wire form of the service's counters: the exact keys, order and values of
// the op:metrics and op:health replies, the counter invariants under real
// parallelism, and a soak over client-keyed state.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "jobs/kernels.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HLP_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HLP_SANITIZED 1
#endif
#endif

namespace {

using namespace hlp;
using serve::Op;
using serve::Request;
using serve::Service;
using serve::ServiceOptions;

using Fields = std::vector<std::pair<std::string, std::string>>;

/// Split a flat one-line JSON object into its (key, raw value) pairs in
/// wire order. The metrics and health replies nest nothing, and their
/// only strings are keys and the op name, none holding ',' or '"'.
Fields fields_of(const std::string& line) {
  Fields out;
  std::size_t pos = 1;  // past '{'
  while (pos < line.size() && line[pos] == '"') {
    const std::size_t key_end = line.find('"', pos + 1);
    std::string key = line.substr(pos + 1, key_end - pos - 1);
    std::size_t end = line.find(',', key_end);
    if (end == std::string::npos) end = line.size() - 1;  // the '}'
    out.emplace_back(std::move(key),
                     line.substr(key_end + 2, end - key_end - 2));
    pos = end + 1;
  }
  return out;
}

std::vector<std::string> keys_of(const Fields& f) {
  std::vector<std::string> keys;
  for (const auto& [k, v] : f) keys.push_back(k);
  return keys;
}

std::string value_of(const Fields& f, const std::string& key) {
  for (const auto& [k, v] : f)
    if (k == key) return v;
  return "<absent>";
}

std::uint64_t u64_of(const Fields& f, const std::string& key) {
  return std::stoull(value_of(f, key));
}

Request estimate(const std::string& design, jobs::JobKind kind) {
  Request rq;
  rq.op = Op::Estimate;
  rq.kind = kind;
  rq.design = design;
  return rq;
}

/// Deterministic stand-in kernel: the value depends only on the design.
jobs::AttemptOutcome fake_kernel(const jobs::KernelRequest& krq,
                                 const exec::Budget&) {
  jobs::AttemptOutcome ao;
  ao.ok = true;
  ao.out.value = static_cast<double>(krq.design.size());
  ao.out.detail = "stats-fake";
  return ao;
}

const std::vector<std::string> kMetricsKeys = {
    "ok",
    "op",
    "hits",
    "misses",
    "coalesced",
    "shed",
    "requests",
    "estimates",
    "refused",
    "errors",
    "deadline-exceeded",
    "cancelled",
    "degraded-deadline",
    "inflight",
    "draining",
    "queue-depth",
    "busy-workers",
    "warm-entries",
    "persist-appends",
    "persist-torn-bytes",
    "memo-entries",
    "ewma-service-us",
    "cache-entries",
    "cache-bytes",
    "cache-evictions",
    "p50-us",
    "p90-us",
    "p99-us"};

const std::vector<std::string> kHealthKeys = {
    "ok",
    "op",
    "workers",
    "live",
    "busy",
    "wedged",
    "queue-depth",
    "respawns",
    "draining",
    "isolated",
    "child-crashes",
    "crash-signal",
    "crash-oom-kill",
    "crash-cpu-limit",
    "crash-wall-timeout",
    "crash-cancelled",
    "crash-exit-nonzero",
    "crash-pipe-error",
    "quarantine-trips",
    "quarantine-served",
    "quarantine-probes",
    "quarantine-reopens",
    "quarantine-rehabilitated",
    "quarantine-open",
    "models",
    "model-predicted",
    "model-escalated",
    "model-out-of-hull",
    "model-miss"};

TEST(ServeStats, ScriptedSessionPinsMetricsAndHealthWireForm) {
  // One session touching every request outcome that does not need a
  // sandbox child: a miss, a hit, a malformed line, a shed request and an
  // accuracy request with no models loaded (a model miss that escalates
  // to the kernel).
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  ServiceOptions opts;
  opts.workers = 0;
  opts.max_inflight = 1;
  opts.executor = [&](const jobs::KernelRequest& krq, const exec::Budget& b) {
    if (krq.design == "adder:4") {
      entered.store(true);
      while (!release.load()) std::this_thread::yield();
    }
    return fake_kernel(krq, b);
  };
  Service service(opts);

  const std::string sym = estimate("adder:6", jobs::JobKind::Symbolic).serialize();
  ASSERT_NE(service.handle_line(sym).find("\"ok\":true"), std::string::npos);
  ASSERT_NE(service.handle_line(sym).find("\"ok\":true"), std::string::npos);
  ASSERT_NE(service.handle_line("{\"op\":}").find("\"malformed\""),
            std::string::npos);

  std::string held;
  std::thread holder([&] {
    held = service.handle_line(
        estimate("adder:4", jobs::JobKind::Symbolic).serialize());
  });
  while (!entered.load()) std::this_thread::yield();
  ASSERT_NE(service
                .handle_line(
                    estimate("adder:5", jobs::JobKind::Symbolic).serialize())
                .find("\"shed\""),
            std::string::npos);
  release.store(true);
  holder.join();
  ASSERT_NE(held.find("\"ok\":true"), std::string::npos) << held;

  Request accurate = estimate("adder:8", jobs::JobKind::MonteCarlo);
  accurate.has_accuracy = true;
  accurate.accuracy = 0.1;
  ASSERT_NE(service.handle_line(accurate.serialize()).find("\"tier\":\"exact\""),
            std::string::npos);

  const std::string metrics_line = service.handle_line("{\"op\":\"metrics\"}");
  const serve::ServiceMetrics m = service.metrics();
  const Fields mf = fields_of(metrics_line);
  EXPECT_EQ(keys_of(mf), kMetricsKeys) << metrics_line;
  const Fields want_m = {
      {"ok", "true"},
      {"op", "\"metrics\""},
      {"hits", "1"},
      {"misses", "3"},
      {"coalesced", "0"},
      {"shed", "1"},
      {"requests", "7"},  // six session lines plus the metrics line itself
      {"estimates", "4"},
      {"refused", "0"},
      {"errors", "1"},
      {"deadline-exceeded", "0"},
      {"cancelled", "0"},
      {"degraded-deadline", "0"},
      {"inflight", "0"},
      {"draining", "false"},
      {"queue-depth", "0"},
      {"busy-workers", "0"},
      {"warm-entries", "0"},
      {"persist-appends", "0"},
      {"persist-torn-bytes", "0"},
      {"memo-entries", "3"},
      {"cache-entries", "3"},
      {"cache-evictions", "0"}};
  for (const auto& [k, v] : want_m) EXPECT_EQ(value_of(mf, k), v) << k;
  // Values set by timing or by the cache's byte accounting: the wire
  // agrees with the in-process snapshot.
  EXPECT_EQ(u64_of(mf, "cache-bytes"), m.cache.bytes);
  EXPECT_GT(m.cache.bytes, 0u);
  EXPECT_EQ(u64_of(mf, "ewma-service-us"), m.ewma_service_us);
  EXPECT_EQ(u64_of(mf, "p50-us"), m.p50_us);
  EXPECT_EQ(u64_of(mf, "p90-us"), m.p90_us);
  EXPECT_EQ(u64_of(mf, "p99-us"), m.p99_us);
  EXPECT_EQ(m.requests, 7u);
  EXPECT_EQ(m.hits, 1u);
  EXPECT_EQ(m.misses, 3u);
  EXPECT_EQ(m.shed, 1u);
  EXPECT_EQ(m.errors, 1u);
  EXPECT_EQ(m.estimates, 4u);

  const std::string health_line = service.handle_line("{\"op\":\"health\"}");
  const Fields hf = fields_of(health_line);
  EXPECT_EQ(keys_of(hf), kHealthKeys) << health_line;
  // Nothing forked, crashed, tripped or loaded: every health counter and
  // gauge is zero except the one model miss.
  for (const auto& [k, v] : hf) {
    const char* want = "0";
    if (k == "ok") want = "true";
    if (k == "op") want = "\"health\"";
    if (k == "draining") want = "false";
    if (k == "model-miss") want = "1";
    EXPECT_EQ(v, want) << k;
  }
  const serve::ServiceHealth h = service.health();
  EXPECT_EQ(h.model_miss, 1u);
  EXPECT_EQ(h.model_predicted, 0u);
  EXPECT_EQ(h.isolated, 0u);
  EXPECT_EQ(h.child_crashes, 0u);
  for (std::uint64_t c : h.crashes_by_kind) EXPECT_EQ(c, 0u);

  // Both replies are stable while nothing else happens, except the
  // request count the metrics line itself bumps.
  EXPECT_EQ(service.handle_line("{\"op\":\"health\"}"), health_line);
  EXPECT_EQ(u64_of(fields_of(service.handle_line("{\"op\":\"metrics\"}")),
                   "requests"),
            10u);
}

TEST(ServeStats, CountersAddUpUnderEightThreads) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;
  constexpr int kDesigns = 8;
  ServiceOptions opts;
  opts.workers = 2;
  opts.executor = [](const jobs::KernelRequest& krq, const exec::Budget& b) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return fake_kernel(krq, b);
  };
  Service service(opts);
  std::vector<std::string> lines;
  for (int d = 0; d < kDesigns; ++d) {
    lines.push_back(
        estimate("adder:" + std::to_string(d + 2), jobs::JobKind::Symbolic)
            .serialize());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string r = service.handle_line(
            lines[static_cast<std::size_t>((t + i) % kDesigns)]);
        if (r.find("\"ok\":true") == std::string::npos) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr std::uint64_t kSent = kThreads * kPerThread;
  EXPECT_EQ(failures.load(), 0);
  const serve::ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.hits + m.misses + m.coalesced, kSent);
  EXPECT_EQ(m.requests, kSent);
  EXPECT_EQ(m.estimates, kSent);
  EXPECT_GE(m.misses, static_cast<std::uint64_t>(kDesigns));
  EXPECT_EQ(m.errors, 0u);
  EXPECT_EQ(m.cache.entries, static_cast<std::size_t>(kDesigns));

  const Fields wire = fields_of(service.handle_line("{\"op\":\"metrics\"}"));
  EXPECT_EQ(u64_of(wire, "hits") + u64_of(wire, "misses") +
                u64_of(wire, "coalesced"),
            kSent);
  EXPECT_EQ(u64_of(wire, "requests"), kSent + 1);
}

/// Resident set size in bytes, from /proc/self/statm.
std::uint64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(ServeSoak, DistinctSpecsStayBounded) {
  // Every request names a design no earlier request named, so every
  // client-keyed structure sees a new key each time: the fingerprint memo,
  // the result cache and its persistence-free eviction. Their caps must
  // hold, and memory must plateau once they are full.
  constexpr int kRequests = 100000;
  constexpr int kSample = 10000;
  ServiceOptions opts;
  opts.workers = 0;
  opts.cache_bytes = 1u << 20;
  opts.executor = fake_kernel;
  Service service(opts);

  std::uint64_t rss_at_20k = 0;
  for (int i = 1; i <= kRequests; ++i) {
    const std::string r = service.handle_line(
        estimate("random:8:40:4:" + std::to_string(i), jobs::JobKind::Symbolic)
            .serialize());
    ASSERT_NE(r.find("\"ok\":true"), std::string::npos) << i << ": " << r;
    if (i % kSample != 0) continue;
    const Fields f = fields_of(service.handle_line("{\"op\":\"metrics\"}"));
    EXPECT_LE(u64_of(f, "memo-entries"), 2u * 1024u) << i;
    EXPECT_LE(u64_of(f, "cache-bytes"), opts.cache_bytes) << i;
    EXPECT_EQ(u64_of(f, "misses"), static_cast<std::uint64_t>(i));
    if (i == 2 * kSample) rss_at_20k = rss_bytes();
  }
#ifndef HLP_SANITIZED
  // ASan's quarantine holds freed blocks back, so RSS says nothing about
  // the service there; only uninstrumented builds check the plateau.
  const std::uint64_t rss_at_end = rss_bytes();
  EXPECT_LT(rss_at_end, rss_at_20k + (16u << 20))
      << "RSS grew from " << rss_at_20k << " to " << rss_at_end;
#else
  (void)rss_at_20k;
#endif
}

}  // namespace
