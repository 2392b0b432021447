#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "exec/fi.hpp"
#include "fsm/benchmarks.hpp"
#include "fsm/stg.hpp"
#include "jobs/kernels.hpp"
#include "netlist/netlist.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/singleflight.hpp"
#include "serve/workerpool.hpp"

namespace {

using namespace hlp;
using serve::Op;
using serve::Request;
using serve::ResponseView;
using serve::ResultCache;
using serve::Service;
using serve::ServiceOptions;
using serve::SingleFlight;

bool wait_until(const std::function<bool()>& pred, double seconds = 10.0) {
  const auto t0 = std::chrono::steady_clock::now();
  while (!pred()) {
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() > seconds) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// --- Protocol ---------------------------------------------------------------

TEST(Protocol, FullRequestRoundTripsAndSerializeIsAFixedPoint) {
  Request rq;
  rq.op = Op::Estimate;
  rq.id = "client-7";
  rq.kind = jobs::JobKind::MonteCarlo;
  rq.design = "alu:12";
  rq.has_seed = true;
  rq.seed = 12345678901234567ull;
  rq.epsilon = 0.01;
  rq.confidence = 0.99;
  rq.min_pairs = 50;
  rq.max_pairs = 5000;
  rq.max_iters = 300;
  rq.deadline_seconds = 1.5;
  rq.node_cap = 20000;
  rq.step_quota = 1000000;
  rq.memory_cap_bytes = 1u << 20;
  rq.use_cache = false;

  const std::string line = rq.serialize();
  Request back;
  std::string error;
  ASSERT_TRUE(Request::parse(line, back, error)) << error;
  EXPECT_EQ(back, rq);
  EXPECT_EQ(back.serialize(), line);
}

TEST(Protocol, MinimalEstimateGetsDefaults) {
  Request rq;
  std::string error;
  ASSERT_TRUE(
      Request::parse("{\"op\":\"estimate\",\"design\":\"adder:4\"}", rq, error))
      << error;
  EXPECT_EQ(rq.op, Op::Estimate);
  EXPECT_EQ(rq.kind, jobs::JobKind::MonteCarlo);
  EXPECT_EQ(rq.design, "adder:4");
  EXPECT_FALSE(rq.has_seed);
  EXPECT_TRUE(rq.use_cache);
  EXPECT_EQ(rq.epsilon, 0.02);
  EXPECT_EQ(rq.deadline_seconds, 0.0);
}

TEST(Protocol, HealthOpRoundTrips) {
  Request rq;
  rq.op = Op::Health;
  rq.id = "h";
  const std::string line = rq.serialize();
  Request back;
  std::string error;
  ASSERT_TRUE(Request::parse(line, back, error)) << error;
  EXPECT_EQ(back.op, Op::Health);
  EXPECT_EQ(back.id, "h");
  EXPECT_EQ(back.serialize(), line);
}

TEST(Protocol, AcceptsKeysInAnyOrder) {
  Request rq;
  std::string error;
  ASSERT_TRUE(Request::parse(
      "{\"design\":\"mult:6\",\"seed\":9,\"kind\":\"symbolic\","
      "\"op\":\"estimate\"}",
      rq, error))
      << error;
  EXPECT_EQ(rq.kind, jobs::JobKind::Symbolic);
  EXPECT_EQ(rq.design, "mult:6");
  EXPECT_TRUE(rq.has_seed);
  EXPECT_EQ(rq.seed, 9u);
}

TEST(Protocol, RejectsMalformedRequests) {
  const char* bad[] = {
      "",
      "not json",
      "[1,2]",
      "{\"op\":\"estimate\",\"design\":\"adder:4\"",      // unterminated
      "{\"op\":\"estimate\",\"design\":\"adder:4\"}x",    // trailing garbage
      "{\"design\":\"adder:4\"}",                         // missing op
      "{\"op\":\"estimate\"}",                            // missing design
      "{\"op\":\"nosuch\",\"design\":\"adder:4\"}",       // unknown op
      "{\"op\":\"estimate\",\"design\":\"adder:4\",\"zz\":1}",  // unknown key
      "{\"op\":\"estimate\",\"design\":\"a\",\"design\":\"b\"}",  // duplicate
      "{\"op\":\"estimate\",\"kind\":\"custom\",\"design\":\"x\"}",
      "{\"op\":\"estimate\",\"design\":\"adder:4\",\"epsilon\":0}",
      "{\"op\":\"estimate\",\"design\":\"adder:4\",\"confidence\":1.0}",
      "{\"op\":\"estimate\",\"design\":\"adder:4\",\"max-iters\":0}",
      "{\"op\":\"estimate\",\"design\":\"adder:4\",\"deadline\":-1}",
      "{\"op\":\"ping\",\"design\":\"adder:4\"}",  // estimate-only key
      "{\"op\":\"metrics\",\"seed\":3}",
  };
  for (const char* line : bad) {
    Request rq;
    std::string error;
    EXPECT_FALSE(Request::parse(line, rq, error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(Protocol, RejectsOversizedLine) {
  std::string line = "{\"op\":\"estimate\",\"design\":\"";
  line.append(serve::kMaxLineBytes, 'a');
  line += "\"}";
  Request rq;
  std::string error;
  EXPECT_FALSE(Request::parse(line, rq, error));
  EXPECT_NE(error.find("bytes"), std::string::npos);
}

TEST(Protocol, ResponseWritersParseBack) {
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(
      serve::make_value_response("id1", 42.5, "bdd exact", false), v));
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.id, "id1");
  EXPECT_TRUE(v.has_value);
  EXPECT_EQ(v.value, 42.5);
  EXPECT_FALSE(v.degraded);
  EXPECT_EQ(v.detail, "bdd exact");

  ResponseView e;
  ASSERT_TRUE(serve::parse_response(
      serve::make_error_response({}, "shed", "too busy"), e));
  EXPECT_FALSE(e.ok);
  EXPECT_EQ(e.error, "shed");
  EXPECT_TRUE(e.id.empty());

  ResponseView p;
  ASSERT_TRUE(serve::parse_response(serve::make_ping_response(), p));
  EXPECT_TRUE(p.ok);
}

TEST(Protocol, ResponseParserToleratesUnknownKeys) {
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(
      "{\"ok\":true,\"value\":3.5,\"future-field\":\"x\",\"flag\":true,"
      "\"n\":12}",
      v));
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.value, 3.5);
}

// --- Result cache -----------------------------------------------------------

TEST(ResultCache, LookupMissThenHit) {
  ResultCache cache(1 << 16, 4);
  std::string out;
  EXPECT_FALSE(cache.lookup("k1", out));
  cache.insert("k1", "v1");
  ASSERT_TRUE(cache.lookup("k1", out));
  EXPECT_EQ(out, "v1");
  const serve::CacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.insertions, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_GT(st.bytes, 0u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedUnderByteCap) {
  // Single shard so LRU order is global. Budget fits exactly two entries.
  const std::size_t entry = 2 + 10 + ResultCache::kEntryOverhead;
  ResultCache cache(2 * entry, 1);
  cache.insert("ka", std::string(10, 'a'));
  cache.insert("kb", std::string(10, 'b'));
  std::string out;
  ASSERT_TRUE(cache.lookup("ka", out));  // promote ka over kb
  cache.insert("kc", std::string(10, 'c'));
  EXPECT_TRUE(cache.lookup("ka", out));
  EXPECT_FALSE(cache.lookup("kb", out)) << "LRU entry should have been evicted";
  EXPECT_TRUE(cache.lookup("kc", out));
  const serve::CacheStats st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_LE(st.bytes, 2 * entry);
}

TEST(ResultCache, RefusesEntryLargerThanAShard) {
  ResultCache cache(256, 1);
  cache.insert("big", std::string(4096, 'x'));
  std::string out;
  EXPECT_FALSE(cache.lookup("big", out));
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ResultCache, ZeroCapacityDisablesCaching) {
  ResultCache cache(0, 8);
  cache.insert("k", "v");
  std::string out;
  EXPECT_FALSE(cache.lookup("k", out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, UpdatingAKeyReplacesItsValueAndAccounting) {
  ResultCache cache(1 << 16, 1);
  cache.insert("k", "short");
  cache.insert("k", "a-considerably-longer-value");
  std::string out;
  ASSERT_TRUE(cache.lookup("k", out));
  EXPECT_EQ(out, "a-considerably-longer-value");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, ConcurrentMixedAccessStaysConsistent) {
  ResultCache cache(1 << 14, 4);
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &bad, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string key = "k" + std::to_string((t * 7 + i) % 40);
        const std::string val = "v" + std::to_string((t * 7 + i) % 40);
        std::string out;
        if (cache.lookup(key, out) && out != val) bad.fetch_add(1);
        cache.insert(key, val);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0) << "a key returned another key's value";
  const serve::CacheStats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, 8u * 500u);
}

// --- Single flight ----------------------------------------------------------

TEST(SingleFlightTest, ConcurrentCallersShareOneExecution) {
  SingleFlight sf;
  std::atomic<int> runs{0};
  std::atomic<int> arrived{0};
  constexpr int kThreads = 8;
  std::vector<SingleFlight::Result> results(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      arrived.fetch_add(1);
      results[i] = sf.run("key", [&] {
        runs.fetch_add(1);
        // Hold the flight open until every thread has at least called
        // run(), so followers coalesce instead of starting a generation.
        wait_until([&] { return arrived.load() == kThreads; });
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return std::string("answer");
      });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(runs.load(), 1);
  int leaders = 0;
  for (const auto& r : results) {
    EXPECT_EQ(r.value, "answer");
    leaders += r.leader ? 1 : 0;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(SingleFlightTest, LeaderExceptionReachesEveryWaiter) {
  SingleFlight sf;
  std::atomic<int> arrived{0};
  std::atomic<int> caught{0};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      arrived.fetch_add(1);
      try {
        sf.run("boom", [&]() -> std::string {
          wait_until([&] { return arrived.load() == kThreads; });
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          throw std::runtime_error("kernel exploded");
        });
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()) == "kernel exploded") caught.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(caught.load(), kThreads);
}

TEST(SingleFlightTest, GenerationsRetireAfterCompletion) {
  SingleFlight sf;
  int runs = 0;
  auto r1 = sf.run("k", [&] { ++runs; return std::string("a"); });
  auto r2 = sf.run("k", [&] { ++runs; return std::string("b"); });
  EXPECT_TRUE(r1.leader);
  EXPECT_TRUE(r2.leader);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(r2.value, "b");  // no memoization across generations
}

// --- Structural fingerprints ------------------------------------------------

TEST(Fingerprint, NetlistHashIgnoresNamesButNotStructure) {
  auto build = [](const char* n1, const char* n2, bool extra_not_gate) {
    netlist::Netlist nl;
    const auto a = nl.add_input(n1);
    const auto b = nl.add_input(n2);
    auto g = nl.add_binary(netlist::GateKind::And, a, b, "g");
    if (extra_not_gate) g = nl.add_unary(netlist::GateKind::Not, g, "inv");
    nl.mark_output(g, "out");
    return nl;
  };
  const auto h1 = netlist::structural_hash(build("x", "y", false));
  const auto h2 = netlist::structural_hash(build("p", "q", false));
  const auto h3 = netlist::structural_hash(build("x", "y", true));
  EXPECT_EQ(h1, h2) << "names must not affect the fingerprint";
  EXPECT_NE(h1, h3) << "structure must affect the fingerprint";
}

TEST(Fingerprint, DesignSpecsHashStablyAndDistinctly) {
  EXPECT_EQ(netlist::structural_hash(jobs::make_module("adder:8").netlist),
            netlist::structural_hash(jobs::make_module("adder:8").netlist));
  EXPECT_NE(netlist::structural_hash(jobs::make_module("adder:8").netlist),
            netlist::structural_hash(jobs::make_module("adder:16").netlist));
  EXPECT_EQ(cdfg::structural_hash(jobs::make_cdfg("fir:8")),
            cdfg::structural_hash(jobs::make_cdfg("fir:8")));
  EXPECT_NE(cdfg::structural_hash(jobs::make_cdfg("fir:8")),
            cdfg::structural_hash(jobs::make_cdfg("fir:16")));
  EXPECT_EQ(fsm::structural_hash(fsm::controller_by_name("dma")),
            fsm::structural_hash(fsm::controller_by_name("dma")));
  EXPECT_NE(fsm::structural_hash(fsm::counter_fsm(4)),
            fsm::structural_hash(fsm::counter_fsm(5)));
}

// --- Service: keys ----------------------------------------------------------

Request estimate_request(const std::string& design,
                         jobs::JobKind kind = jobs::JobKind::MonteCarlo) {
  Request rq;
  rq.op = Op::Estimate;
  rq.kind = kind;
  rq.design = design;
  return rq;
}

TEST(ServeKeys, DefaultSeedIsContentAddressed) {
  Service service;
  Request rq = estimate_request("adder:8");
  const Service::Keys k1 = service.keys(rq);
  const Service::Keys k2 = service.keys(rq);
  EXPECT_EQ(k1.cache_key, k2.cache_key);
  EXPECT_EQ(k1.seed, k2.seed);

  Request with_seed = rq;
  with_seed.has_seed = true;
  with_seed.seed = 5;
  const Service::Keys k3 = service.keys(with_seed);
  EXPECT_EQ(k3.seed, 5u);
  EXPECT_NE(k3.cache_key, k1.cache_key);
}

TEST(ServeKeys, BudgetFieldsAffectFlightKeyOnly) {
  Service service;
  Request rq = estimate_request("adder:8");
  Request budgeted = rq;
  budgeted.node_cap = 100000;
  budgeted.deadline_seconds = 2.5;
  const Service::Keys plain = service.keys(rq);
  const Service::Keys limited = service.keys(budgeted);
  EXPECT_EQ(plain.cache_key, limited.cache_key)
      << "budget must not change the cache key";
  EXPECT_NE(plain.flight_key, limited.flight_key)
      << "budget must separate flights";
}

TEST(ServeKeys, KindAndParametersSeparateKeys) {
  Service service;
  const auto mc = service.keys(estimate_request("adder:8"));
  const auto sym =
      service.keys(estimate_request("adder:8", jobs::JobKind::Symbolic));
  EXPECT_NE(mc.cache_key, sym.cache_key);

  Request tighter = estimate_request("adder:8");
  tighter.epsilon = 0.01;
  EXPECT_NE(service.keys(tighter).cache_key, mc.cache_key)
      << "monte-carlo accuracy parameters are part of the result identity";
}

TEST(ServeKeys, InvalidDesignThrows) {
  Service service;
  EXPECT_THROW(service.keys(estimate_request("nosuch:4")),
               std::invalid_argument);
}

TEST(ServeKeys, ClientKeyedMemosStayBounded) {
  // Every distinct design spec is a memo key, and random:...:<seed> alone
  // admits 2^62 of them: the memos must stay capped, and a design whose
  // entry was dropped must recompute the same fingerprint.
  Service service;
  const Request first = estimate_request("random:4:8:2:0");
  const std::uint64_t fp0 = service.keys(first).fp;
  for (int seed = 1; seed <= 2048; ++seed) {
    service.keys(estimate_request("random:4:8:2:" + std::to_string(seed)));
  }
  EXPECT_LE(service.metrics().memo_entries, 2048u);
  EXPECT_EQ(service.keys(first).fp, fp0);

  Request metrics;
  metrics.op = Op::Metrics;
  EXPECT_NE(service.handle_line(metrics.serialize()).find("\"memo-entries\":"),
            std::string::npos);
}

// --- Service: request handling ---------------------------------------------

TEST(Serve, EightConcurrentIdenticalRequestsExecuteOnceBitIdentically) {
  std::atomic<int> executions{0};
  std::atomic<int> arrived{0};
  constexpr int kClients = 8;
  ServiceOptions opts;
  opts.executor = [&](const jobs::KernelRequest& krq, const exec::Budget& b) {
    executions.fetch_add(1);
    if (krq.seed == 7) {
      // Hold the flight open until all clients have submitted, so the
      // other seven must coalesce rather than miss-and-lead.
      wait_until([&] { return arrived.load() == kClients; });
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    return jobs::run_kernel(krq, b);
  };
  Service service(opts);

  Request rq = estimate_request("adder:8");
  rq.epsilon = 0.05;
  rq.has_seed = true;
  rq.seed = 7;
  const std::string line = rq.serialize();

  // Warm the fingerprint memo (different seed: does not gate, not the same
  // cache line) so the per-client path to the flight table is short.
  Request warm = rq;
  warm.seed = 999;
  ASSERT_NE(service.handle_line(warm.serialize()).find("\"ok\":true"),
            std::string::npos);
  ASSERT_EQ(executions.load(), 1);

  std::vector<std::string> responses(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      arrived.fetch_add(1);
      responses[i] = service.handle_line(line);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(executions.load(), 2) << "the batch must execute exactly once";
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(responses[i], responses[0]) << "client " << i;
  }
  const serve::ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.misses, 2u);  // warm-up + batch leader
  EXPECT_EQ(m.coalesced, 7u);
  EXPECT_EQ(m.hits, 0u);

  // The coalesced answer matches an uncached, single-client run bit for
  // bit (kernel determinism end to end).
  ServiceOptions plain_opts;
  plain_opts.cache_bytes = 0;
  Service plain(plain_opts);
  EXPECT_EQ(plain.handle_line(line), responses[0]);

  // And a later identical request is a cache hit with identical bytes.
  EXPECT_EQ(service.handle_line(line), responses[0]);
  EXPECT_EQ(service.metrics().hits, 1u);
}

TEST(Serve, CacheHitSkipsExecutionAndIgnoresBudgetFields) {
  std::atomic<int> executions{0};
  ServiceOptions opts;
  opts.executor = [&](const jobs::KernelRequest& krq, const exec::Budget& b) {
    executions.fetch_add(1);
    return jobs::run_kernel(krq, b);
  };
  Service service(opts);
  Request rq = estimate_request("adder:6");
  rq.epsilon = 0.05;
  const std::string r1 = service.handle_line(rq.serialize());
  Request budgeted = rq;
  budgeted.step_quota = 1000000000;
  budgeted.deadline_seconds = 30.0;
  const std::string r2 = service.handle_line(budgeted.serialize());
  EXPECT_EQ(executions.load(), 1)
      << "a budgeted request must reuse the unbudgeted cached result";
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(service.metrics().hits, 1u);
}

TEST(Serve, DegradedResultsAreNotCached) {
  std::atomic<int> executions{0};
  ServiceOptions opts;
  opts.executor = [&](const jobs::KernelRequest&, const exec::Budget&) {
    executions.fetch_add(1);
    jobs::AttemptOutcome ao;
    ao.ok = true;
    ao.out.value = 1.5;
    ao.out.detail = "fallback";
    ao.out.degraded = true;
    return ao;
  };
  Service service(opts);
  const std::string line = estimate_request("adder:4").serialize();
  const std::string r1 = service.handle_line(line);
  const std::string r2 = service.handle_line(line);
  EXPECT_EQ(executions.load(), 2);
  EXPECT_EQ(r1, r2);
  EXPECT_NE(r1.find("\"degraded\":true"), std::string::npos);
  EXPECT_EQ(service.metrics().cache.entries, 0u);
}

TEST(Serve, BudgetStoppedRequestsReportAndAreNotCached) {
  std::atomic<int> executions{0};
  ServiceOptions opts;
  opts.executor = [&](const jobs::KernelRequest&, const exec::Budget&) {
    executions.fetch_add(1);
    jobs::AttemptOutcome ao;
    ao.ok = false;
    ao.stop = exec::StopReason::StepQuota;
    ao.detail = "step quota exhausted";
    return ao;
  };
  Service service(opts);
  Request rq = estimate_request("adder:4");
  rq.step_quota = 10;
  const std::string line = rq.serialize();
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(service.handle_line(line), v));
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.error, "budget-exhausted");
  service.handle_line(line);
  EXPECT_EQ(executions.load(), 2) << "failures must not be cached";
  EXPECT_EQ(service.metrics().cache.entries, 0u);
}

TEST(Serve, CacheOptOutBypassesTheCache) {
  std::atomic<int> executions{0};
  ServiceOptions opts;
  opts.executor = [&](const jobs::KernelRequest& krq, const exec::Budget& b) {
    executions.fetch_add(1);
    return jobs::run_kernel(krq, b);
  };
  Service service(opts);
  Request rq = estimate_request("adder:6");
  rq.epsilon = 0.05;
  service.handle_line(rq.serialize());  // populates the cache
  Request bypass = rq;
  bypass.use_cache = false;
  service.handle_line(bypass.serialize());
  EXPECT_EQ(executions.load(), 2) << "cache:false must recompute";
}

TEST(Serve, InvalidDesignAnswersInvalidInput) {
  Service service;
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(
      service.handle_line(estimate_request("nosuch:9").serialize()), v));
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.error, "invalid-input");
  EXPECT_NE(v.detail.find("nosuch"), std::string::npos);
}

TEST(Serve, MalformedLineAnswersMalformed) {
  Service service;
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(service.handle_line("{\"op\":}"), v));
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.error, "malformed");
  EXPECT_EQ(service.metrics().errors, 1u);
}

TEST(Serve, IdIsEchoedAndDoesNotAffectTheCachedBytes) {
  Service service;
  Request rq = estimate_request("adder:6", jobs::JobKind::Symbolic);
  rq.id = "first";
  ResponseView v1;
  ASSERT_TRUE(serve::parse_response(service.handle_line(rq.serialize()), v1));
  EXPECT_EQ(v1.id, "first");
  rq.id = "second";
  ResponseView v2;
  ASSERT_TRUE(serve::parse_response(service.handle_line(rq.serialize()), v2));
  EXPECT_EQ(v2.id, "second");
  EXPECT_EQ(service.metrics().hits, 1u) << "id must not be part of the key";
  EXPECT_EQ(v1.value, v2.value);

  rq.id.clear();
  const std::string idless = service.handle_line(rq.serialize());
  EXPECT_EQ(idless.find("\"id\""), std::string::npos);
}

TEST(Serve, ShedsWhenSaturated) {
  std::atomic<bool> release{false};
  ServiceOptions opts;
  opts.max_inflight = 1;
  opts.executor = [&](const jobs::KernelRequest& krq, const exec::Budget& b) {
    wait_until([&] { return release.load(); });
    return jobs::run_kernel(krq, b);
  };
  Service service(opts);
  Request slow = estimate_request("adder:6");
  slow.epsilon = 0.05;
  std::string slow_response;
  std::thread holder(
      [&] { slow_response = service.handle_line(slow.serialize()); });
  ASSERT_TRUE(wait_until([&] { return service.metrics().inflight == 1; }));

  ResponseView v;
  ASSERT_TRUE(serve::parse_response(
      service.handle_line(estimate_request("adder:4").serialize()), v));
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.error, "shed");
  EXPECT_EQ(service.metrics().shed, 1u);

  release.store(true);
  holder.join();
  EXPECT_NE(slow_response.find("\"ok\":true"), std::string::npos);
}

TEST(Serve, DrainRefusesEstimatesButServesMetricsAndPing) {
  Service service;
  service.begin_drain();
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(
      service.handle_line(estimate_request("adder:4").serialize()), v));
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.error, "draining");

  ResponseView m;
  ASSERT_TRUE(serve::parse_response(service.handle_line("{\"op\":\"metrics\"}"), m));
  EXPECT_TRUE(m.ok);
  ResponseView p;
  ASSERT_TRUE(serve::parse_response(service.handle_line("{\"op\":\"ping\"}"), p));
  EXPECT_TRUE(p.ok);
  EXPECT_EQ(service.metrics().refused, 1u);
}

TEST(Serve, MetricsResponseCarriesTheCounters) {
  Service service;
  Request rq = estimate_request("adder:6", jobs::JobKind::Symbolic);
  const std::string line = rq.serialize();
  service.handle_line(line);  // miss
  service.handle_line(line);  // hit
  ResponseView v;
  ASSERT_TRUE(
      serve::parse_response(service.handle_line("{\"op\":\"metrics\"}"), v));
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.hits, 1u);
  EXPECT_EQ(v.misses, 1u);
  EXPECT_EQ(v.coalesced, 0u);
  EXPECT_EQ(v.shed, 0u);
}

TEST(Serve, HealthReportsPoolStateAndKeepsWorkingWhileDraining) {
  ServiceOptions opts;
  opts.workers = 2;
  Service service(opts);
  const std::string body = service.handle_line("{\"op\":\"health\"}");
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(body, v)) << body;
  EXPECT_TRUE(v.ok);
  // The supervision-state fields ride on the wire in fixed order.
  EXPECT_NE(body.find("\"op\":\"health\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"workers\":2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"live\":2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"wedged\":0"), std::string::npos) << body;
  EXPECT_NE(body.find("\"respawns\":0"), std::string::npos) << body;
  EXPECT_NE(body.find("\"child-crashes\":0"), std::string::npos) << body;
  EXPECT_NE(body.find("\"crash-signal\":0"), std::string::npos) << body;
  EXPECT_NE(body.find("\"quarantine-trips\":0"), std::string::npos) << body;
  EXPECT_NE(body.find("\"draining\":false"), std::string::npos) << body;

  const serve::ServiceHealth h = service.health();
  EXPECT_EQ(h.workers, 2);
  EXPECT_EQ(h.live, 2);
  EXPECT_EQ(h.wedged, 0);
  EXPECT_EQ(h.isolated, 0u);

  // Like metrics, health answers while draining — incident response needs
  // the supervision state most when the service is going down.
  service.begin_drain();
  ResponseView d;
  ASSERT_TRUE(serve::parse_response(service.handle_line("{\"op\":\"health\"}"), d));
  EXPECT_TRUE(d.ok);
  EXPECT_NE(service.handle_line("{\"op\":\"health\"}").find("\"draining\":true"),
            std::string::npos);
}

TEST(Serve, HealthEchoesIdAndRejectsEstimateKeys) {
  Service service;
  const std::string body =
      service.handle_line("{\"op\":\"health\",\"id\":\"h-1\"}");
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(body, v)) << body;
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.id, "h-1");
  // Estimate-only keys on a health request are a protocol error, same as
  // for metrics/ping.
  ResponseView bad;
  ASSERT_TRUE(serve::parse_response(
      service.handle_line("{\"op\":\"health\",\"design\":\"adder:4\"}"), bad));
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, "malformed");
}

// --- TCP server -------------------------------------------------------------

/// Minimal blocking line-protocol client for loopback tests.
class LineClient {
 public:
  bool connect_to(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool send_line(std::string line) {
    line.push_back('\n');
    return send_raw(line);
  }

  bool send_raw(const std::string& line) {
    const char* p = line.data();
    std::size_t left = line.size();
    while (left > 0) {
      const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    return true;
  }

  bool recv_line(std::string& out) {
    while (true) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

TEST(ServeTcp, EndToEndEstimateMetricsPing) {
  serve::ServerOptions sopts;
  serve::Server server(sopts);
  server.start();
  ASSERT_GT(server.port(), 0);

  LineClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  Request rq = estimate_request("adder:6", jobs::JobKind::Symbolic);
  rq.id = "tcp-1";
  ASSERT_TRUE(client.send_line(rq.serialize()));
  std::string resp;
  ASSERT_TRUE(client.recv_line(resp));
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(resp, v)) << resp;
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.id, "tcp-1");
  EXPECT_TRUE(v.has_value);

  ASSERT_TRUE(client.send_line("{\"op\":\"metrics\"}"));
  ASSERT_TRUE(client.recv_line(resp));
  ResponseView m;
  ASSERT_TRUE(serve::parse_response(resp, m));
  EXPECT_EQ(m.misses, 1u);

  ASSERT_TRUE(client.send_line("{\"op\":\"ping\"}"));
  ASSERT_TRUE(client.recv_line(resp));
  EXPECT_EQ(resp, serve::make_ping_response());

  server.shutdown();
  EXPECT_FALSE(server.running());
}

TEST(ServeTcp, ConcurrentConnectionsCoalesceToOneExecution) {
  std::atomic<int> executions{0};
  std::atomic<int> arrived{0};
  constexpr int kClients = 8;
  serve::ServerOptions sopts;
  sopts.service.executor = [&](const jobs::KernelRequest& krq,
                               const exec::Budget& b) {
    executions.fetch_add(1);
    if (krq.seed == 7) {
      wait_until([&] { return arrived.load() == kClients; });
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    return jobs::run_kernel(krq, b);
  };
  serve::Server server(sopts);
  server.start();

  Request rq = estimate_request("adder:8");
  rq.epsilon = 0.05;
  rq.has_seed = true;
  rq.seed = 7;
  const std::string line = rq.serialize();

  Request warm = rq;
  warm.seed = 999;
  {
    LineClient c;
    ASSERT_TRUE(c.connect_to(server.port()));
    ASSERT_TRUE(c.send_line(warm.serialize()));
    std::string resp;
    ASSERT_TRUE(c.recv_line(resp));
  }

  std::vector<std::string> responses(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      LineClient c;
      if (!c.connect_to(server.port())) return;
      arrived.fetch_add(1);
      if (!c.send_line(line)) return;
      c.recv_line(responses[i]);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(executions.load(), 2);  // warm-up + one for the batch
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(responses[i], responses[0]) << "client " << i;
    EXPECT_FALSE(responses[i].empty()) << "client " << i;
  }
  const serve::ServiceMetrics m = server.service().metrics();
  EXPECT_EQ(m.misses, 2u);
  EXPECT_EQ(m.coalesced, 7u);
  server.shutdown();
}

TEST(ServeTcp, GracefulDrainCompletesInFlightRequests) {
  std::atomic<bool> release{false};
  serve::ServerOptions sopts;
  sopts.service.executor = [&](const jobs::KernelRequest& krq,
                               const exec::Budget& b) {
    wait_until([&] { return release.load(); });
    return jobs::run_kernel(krq, b);
  };
  serve::Server server(sopts);
  server.start();
  const std::uint16_t port = server.port();

  LineClient client;
  ASSERT_TRUE(client.connect_to(port));
  Request rq = estimate_request("adder:6");
  rq.epsilon = 0.05;
  ASSERT_TRUE(client.send_line(rq.serialize()));
  ASSERT_TRUE(
      wait_until([&] { return server.service().metrics().inflight == 1; }));

  std::thread closer([&] { server.shutdown(); });
  // The drain must wait for the in-flight request, not abandon it.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  release.store(true);
  closer.join();

  std::string resp;
  ASSERT_TRUE(client.recv_line(resp))
      << "in-flight response must be flushed before the connection closes";
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(resp, v));
  EXPECT_TRUE(v.ok);

  LineClient late;
  EXPECT_FALSE(late.connect_to(port)) << "drained server must refuse connects";
}

TEST(ServeTcp, ConnectionCapShedsExtraConnections) {
  serve::ServerOptions sopts;
  sopts.max_connections = 1;
  serve::Server server(sopts);
  server.start();

  LineClient first;
  ASSERT_TRUE(first.connect_to(server.port()));
  std::string resp;
  ASSERT_TRUE(first.send_line("{\"op\":\"ping\"}"));
  ASSERT_TRUE(first.recv_line(resp));  // first connection is now registered

  LineClient second;
  ASSERT_TRUE(second.connect_to(server.port()));
  ASSERT_TRUE(second.recv_line(resp)) << "shed notice expected";
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(resp, v));
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.error, "shed");
  EXPECT_FALSE(second.recv_line(resp)) << "shed connection must be closed";
  server.shutdown();
}

TEST(ServeTcp, MalformedJsonKeepsTheConnectionOpen) {
  serve::ServerOptions sopts;
  serve::Server server(sopts);
  server.start();
  LineClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  ASSERT_TRUE(client.send_line("this is not json"));
  std::string resp;
  ASSERT_TRUE(client.recv_line(resp));
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(resp, v));
  EXPECT_EQ(v.error, "malformed");
  // A parse error poisons one request, not the connection.
  ASSERT_TRUE(client.send_line("{\"op\":\"ping\"}"));
  ASSERT_TRUE(client.recv_line(resp));
  EXPECT_EQ(resp, serve::make_ping_response());
  server.shutdown();
}

// --- Worker pool ------------------------------------------------------------

TEST(ServePool, PoolResultsMatchInlineExecutionBitForBit) {
  Request rq = estimate_request("adder:8", jobs::JobKind::Symbolic);
  ServiceOptions inline_opts;
  inline_opts.workers = 0;
  inline_opts.cache_bytes = 0;
  Service inline_svc(inline_opts);
  ServiceOptions pool_opts;
  pool_opts.workers = 4;
  pool_opts.cache_bytes = 0;
  Service pool_svc(pool_opts);
  EXPECT_EQ(pool_svc.handle_line(rq.serialize()),
            inline_svc.handle_line(rq.serialize()));
}

TEST(ServePool, QueuedTasksRunToCompletionOnStop) {
  std::atomic<int> ran{0};
  serve::WorkerPool pool(1, 16);
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.try_submit([&] {
    wait_until([&] { return release.load(); });
    ran.fetch_add(1);
  }));
  ASSERT_TRUE(wait_until([&] { return pool.busy() == 1; }));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pool.try_submit([&] { ran.fetch_add(1); }));
  }
  EXPECT_EQ(pool.queue_depth(), 5u);
  release.store(true);
  pool.stop();  // runs the queued tasks, then joins
  EXPECT_EQ(ran.load(), 6);
  EXPECT_FALSE(pool.try_submit([&] { ran.fetch_add(1); }))
      << "a stopped pool must refuse new work";
}

TEST(ServePool, BoundedQueueRefusesExcessTasks) {
  serve::WorkerPool pool(1, 1);
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.try_submit([&] { wait_until([&] { return release.load(); }); }));
  ASSERT_TRUE(wait_until([&] { return pool.busy() == 1; }));
  ASSERT_TRUE(pool.try_submit([] {}));  // fills the queue slot
  EXPECT_FALSE(pool.try_submit([] {})) << "queue_limit=1 must refuse a third";
  release.store(true);
  pool.stop();
}

TEST(ServePool, WedgedTaskIsSupersededAndCapacityRestored) {
  // Supervision (DESIGN.md §11): a task stalled past its deadline first
  // reads as wedged, then has its thread superseded — the pool's serving
  // capacity comes back while the stalled task still holds its old thread.
  serve::WorkerPool pool(2, 16);
  std::atomic<bool> release{false};
  const auto deadline = serve::WorkerPool::Clock::now() +
                        std::chrono::milliseconds(50);
  ASSERT_TRUE(pool.try_submit(
      [&] { wait_until([&] { return release.load(); }); }, deadline));

  // Past the deadline, before the supersede grace: visible as wedged.
  ASSERT_TRUE(wait_until([&] { return pool.wedged() == 1; }));
  EXPECT_EQ(pool.busy(), 1);
  EXPECT_EQ(pool.respawns(), 0u);

  // The supervisor replaces the thread: wedged clears, capacity restored.
  ASSERT_TRUE(wait_until([&] { return pool.respawns() == 1; }));
  ASSERT_TRUE(
      wait_until([&] { return pool.live() == 2 && pool.wedged() == 0; }));
  EXPECT_EQ(pool.busy(), 1) << "the stalled task is still running";

  // Both restored slots serve new work while the wedge holds its thread.
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.try_submit([&] { ran.fetch_add(1); }));
  ASSERT_TRUE(pool.try_submit([&] { ran.fetch_add(1); }));
  ASSERT_TRUE(wait_until([&] { return ran.load() == 2; }));

  release.store(true);  // the stalled task returns; its thread retires
  ASSERT_TRUE(wait_until([&] { return pool.busy() == 0; }));
  pool.stop();
  EXPECT_EQ(pool.respawns(), 1u) << "exactly one respawn per wedged task";
  EXPECT_EQ(pool.live(), 0) << "stop() joins every thread";
}

TEST(ServePool, TasksWithinDeadlineAreNeverSuperseded) {
  serve::WorkerPool pool(1, 16);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.try_submit(
        [&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          ran.fetch_add(1);
        },
        serve::WorkerPool::Clock::now() + std::chrono::seconds(30)));
  }
  ASSERT_TRUE(wait_until([&] { return ran.load() == 8; }));
  EXPECT_EQ(pool.respawns(), 0u)
      << "healthy deadline-carrying tasks must not trigger the supervisor";
  EXPECT_EQ(pool.wedged(), 0);
  pool.stop();
}

// --- Per-request deadlines --------------------------------------------------

/// Executor that ignores its meter and spins until cancelled — the "stuck
/// symbolic estimate" a wall deadline exists for. Cooperative only through
/// the CancelToken.
jobs::AttemptOutcome stuck_until_cancelled(const jobs::KernelRequest&,
                                           const exec::Budget& b) {
  while (!b.cancel.cancel_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  jobs::AttemptOutcome ao;
  ao.ok = false;
  ao.stop = exec::StopReason::Cancelled;
  ao.detail = "cancelled mid-kernel";
  return ao;
}

TEST(ServeDeadline, StuckKernelReturnsTypedDeadlineExceeded) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.executor = stuck_until_cancelled;
  Service service(opts);
  Request rq = estimate_request("adder:8", jobs::JobKind::Symbolic);
  rq.id = "dl-1";
  rq.deadline_seconds = 0.1;
  const auto t0 = std::chrono::steady_clock::now();
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(service.handle_line(rq.serialize()), v));
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.error, "deadline-exceeded");
  EXPECT_EQ(v.id, "dl-1");
  EXPECT_LT(took, 5.0) << "the connection must not wedge on a stuck kernel";
  EXPECT_GE(service.metrics().deadline_exceeded, 1u);
  EXPECT_EQ(service.metrics().cache.entries, 0u);
}

TEST(ServeDeadline, DeadlineDegradesToStaticBoundWhenEnabled) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.degrade_on_deadline = true;
  opts.executor = stuck_until_cancelled;
  Service service(opts);
  Request rq = estimate_request("adder:8", jobs::JobKind::Symbolic);
  rq.deadline_seconds = 0.1;
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(service.handle_line(rq.serialize()), v));
  EXPECT_TRUE(v.ok) << "degradation turns the deadline into a bounded answer";
  EXPECT_TRUE(v.degraded);
  EXPECT_GT(v.value, 0.0);
  EXPECT_NE(v.detail.find("deadline-degraded"), std::string::npos);
  EXPECT_EQ(service.metrics().degraded_deadline, 1u);
  EXPECT_EQ(service.metrics().cache.entries, 0u)
      << "degraded answers must never be cached";
}

TEST(ServeDeadline, DefaultDeadlineAppliesToRequestsWithoutOne) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.default_deadline_seconds = 0.1;
  opts.executor = stuck_until_cancelled;
  Service service(opts);
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(
      service.handle_line(
          estimate_request("adder:8", jobs::JobKind::Symbolic).serialize()),
      v));
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.error, "deadline-exceeded");
}

TEST(ServeDeadline, CooperativeKernelDeadlineIsTypedFromItsStopReason) {
  ServiceOptions opts;
  opts.executor = [](const jobs::KernelRequest&, const exec::Budget&) {
    jobs::AttemptOutcome ao;
    ao.ok = false;
    ao.stop = exec::StopReason::Deadline;
    ao.detail = "deadline exceeded in kernel";
    return ao;
  };
  Service service(opts);
  Request rq = estimate_request("adder:4");
  rq.deadline_seconds = 5.0;
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(service.handle_line(rq.serialize()), v));
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.error, "deadline-exceeded");
}

// --- Overload shedding ------------------------------------------------------

TEST(ServeShed, QueueFullShedsWithRetryAfterHint) {
  std::atomic<bool> release{false};
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_limit = 1;
  opts.executor = [&](const jobs::KernelRequest& krq, const exec::Budget& b) {
    wait_until([&] { return release.load(); });
    return jobs::run_kernel(krq, b);
  };
  Service service(opts);

  auto line_with_seed = [](std::uint64_t seed) {
    Request rq = estimate_request("adder:4", jobs::JobKind::Symbolic);
    rq.has_seed = true;
    rq.seed = seed;
    rq.use_cache = false;  // distinct flights, no coalescing
    return rq.serialize();
  };
  std::string r1, r2;
  std::thread busy([&] { r1 = service.handle_line(line_with_seed(1)); });
  ASSERT_TRUE(wait_until([&] { return service.metrics().busy_workers == 1; }));
  std::thread queued([&] { r2 = service.handle_line(line_with_seed(2)); });
  ASSERT_TRUE(wait_until([&] { return service.metrics().queue_depth == 1; }));

  ResponseView v;
  ASSERT_TRUE(
      serve::parse_response(service.handle_line(line_with_seed(3)), v));
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.error, "shed");
  EXPECT_GE(v.retry_after_ms, 1u) << "shed must carry a backoff hint";
  EXPECT_LE(v.retry_after_ms, 30000u);
  EXPECT_EQ(service.metrics().shed, 1u);

  release.store(true);
  busy.join();
  queued.join();
  EXPECT_NE(r1.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(r2.find("\"ok\":true"), std::string::npos)
      << "a queued request must be served, not lost";
}

TEST(ServeShed, InflightCapShedCarriesRetryAfterHint) {
  std::atomic<bool> release{false};
  ServiceOptions opts;
  opts.workers = 0;
  opts.max_inflight = 1;
  opts.executor = [&](const jobs::KernelRequest& krq, const exec::Budget& b) {
    wait_until([&] { return release.load(); });
    return jobs::run_kernel(krq, b);
  };
  Service service(opts);
  Request slow = estimate_request("adder:6");
  slow.epsilon = 0.05;
  std::thread holder([&] { service.handle_line(slow.serialize()); });
  ASSERT_TRUE(wait_until([&] { return service.metrics().inflight == 1; }));
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(
      service.handle_line(estimate_request("adder:4").serialize()), v));
  EXPECT_EQ(v.error, "shed");
  EXPECT_GE(v.retry_after_ms, 1u);
  release.store(true);
  holder.join();
}

TEST(ServeShed, RetryAfterHintIsPositiveMonotoneAndCapped) {
  // Property sweep over the free function behind the shed hint: strictly
  // positive, monotone non-decreasing in backlog, non-increasing in pool
  // width, and capped — for any input, including adversarial extremes.
  const std::uint64_t kMax = ~0ull;
  const std::uint64_t ewmas[] = {0, 1, 999, 1000, 25'000, 1'000'000, kMax};
  const int widths[] = {-3, 0, 1, 2, 8, 64};
  const std::uint64_t backlogs[] = {0, 1, 2, 7, 100, 10'000, kMax};
  for (std::uint64_t ewma : ewmas) {
    for (int width : widths) {
      std::uint64_t prev = 0;
      for (std::uint64_t waiting : backlogs) {
        const std::uint64_t hint =
            serve::compute_retry_after_ms(ewma, waiting, width);
        ASSERT_GE(hint, 1u) << ewma << "/" << waiting << "/" << width;
        ASSERT_LE(hint, serve::kMaxRetryAfterMs)
            << ewma << "/" << waiting << "/" << width;
        ASSERT_GE(hint, prev)
            << "hint must not shrink as the backlog grows: ewma=" << ewma
            << " waiting=" << waiting << " width=" << width;
        prev = hint;
      }
    }
    for (int width = 1; width < 64; ++width) {
      ASSERT_LE(serve::compute_retry_after_ms(ewma, 100, width + 1),
                serve::compute_retry_after_ms(ewma, 100, width))
          << "a wider pool must never lengthen the hint: ewma=" << ewma;
    }
  }
  // Sanity anchor: 100 waiting at 5ms each across 2 workers ≈ 250ms.
  EXPECT_EQ(serve::compute_retry_after_ms(5000, 100, 2), 300u);
}

TEST(ServeShed, BoundedRetryDelayHonorsTheHintButNeverExceedsTheCap) {
  using serve::bounded_retry_delay_seconds;
  // No hint: the policy backoff passes through.
  EXPECT_DOUBLE_EQ(bounded_retry_delay_seconds(0.05, 0), 0.05);
  // The server's hint wins when it is longer than the backoff.
  EXPECT_DOUBLE_EQ(bounded_retry_delay_seconds(0.05, 2000), 2.0);
  // ... and loses when the backoff is already longer.
  EXPECT_DOUBLE_EQ(bounded_retry_delay_seconds(5.0, 2000), 5.0);
  // Both sides are capped: a pathological hint or an overflowed policy
  // must not put the client to sleep for minutes.
  EXPECT_DOUBLE_EQ(bounded_retry_delay_seconds(1e9, 0), 30.0);
  EXPECT_DOUBLE_EQ(bounded_retry_delay_seconds(0.0, ~0ull), 30.0);
  EXPECT_DOUBLE_EQ(bounded_retry_delay_seconds(0.0, serve::kMaxRetryAfterMs),
                   30.0);
  // Degenerate policy outputs are sanitized but still honor the hint.
  EXPECT_DOUBLE_EQ(bounded_retry_delay_seconds(std::nan(""), 500), 0.5);
  EXPECT_DOUBLE_EQ(bounded_retry_delay_seconds(-3.0, 0), 0.0);
}

// --- Single-flight exception propagation (regression) -----------------------

TEST(ServeFlight, LeaderAllocFailureBecomesTypedInternalForEveryCaller) {
  // Regression: an allocation failure while the leader publishes a result
  // used to escape handle_estimate and kill the connection thread. Inline
  // mode so the thread-local fi arming reaches the leader body.
  ServiceOptions opts;
  opts.workers = 0;
  Service service(opts);
  const std::string line =
      estimate_request("adder:6", jobs::JobKind::Symbolic).serialize();

  constexpr int kThreads = 4;
  std::vector<std::string> responses(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      fi::arm_alloc_failure(0);  // fires on whichever thread leads
      responses[i] = service.handle_line(line);
      fi::disarm();
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) {
    ResponseView v;
    ASSERT_TRUE(serve::parse_response(responses[i], v)) << responses[i];
    EXPECT_FALSE(v.ok) << "caller " << i;
    EXPECT_EQ(v.error, "internal") << "caller " << i;
  }
  // The flight retired cleanly: the service still answers.
  ResponseView ok;
  ASSERT_TRUE(serve::parse_response(service.handle_line(line), ok));
  EXPECT_TRUE(ok.ok);
}

TEST(ServeFlight, WorkerCrashIsTypedAndDoesNotKillTheService) {
  ServiceOptions opts;
  opts.workers = 2;
  Service service(opts);
  const std::string line =
      estimate_request("adder:6", jobs::JobKind::Symbolic).serialize();

  fi::arm_serve_fault(fi::ServeFault::WorkerThrow, 0);
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(service.handle_line(line), v));
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.error, "internal");
  EXPECT_NE(v.detail.find("worker crash"), std::string::npos);
  fi::disarm_serve_faults();

  ResponseView ok;
  ASSERT_TRUE(serve::parse_response(service.handle_line(line), ok));
  EXPECT_TRUE(ok.ok) << "one worker crash must not poison the pool";

  fi::arm_serve_fault(fi::ServeFault::WorkerAlloc, 0);
  Request rq = estimate_request("mult:4", jobs::JobKind::Symbolic);
  ResponseView a;
  ASSERT_TRUE(serve::parse_response(service.handle_line(rq.serialize()), a));
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.error, "internal");
  EXPECT_NE(a.detail.find("allocation"), std::string::npos);
  fi::disarm_serve_faults();
}

// --- Bounded drain ----------------------------------------------------------

TEST(ServeDrain, BoundedDrainCancelsCooperativeKernels) {
  serve::ServerOptions sopts;
  sopts.drain_deadline_seconds = 3.0;
  sopts.service.workers = 2;
  sopts.service.executor = stuck_until_cancelled;
  serve::Server server(sopts);
  server.start();

  LineClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  ASSERT_TRUE(client.send_line(estimate_request("adder:8").serialize()));
  ASSERT_TRUE(
      wait_until([&] { return server.service().metrics().inflight == 1; }));

  const auto t0 = std::chrono::steady_clock::now();
  server.shutdown();
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(took, 2.5) << "cooperative cancel must beat the grace period";

  std::string resp;
  ASSERT_TRUE(client.recv_line(resp))
      << "the abandoned request still gets its response line";
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(resp, v));
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.error, "cancelled");
}

TEST(ServeDrain, CancelReachesTasksRegisteredAfterIt) {
  // A request admitted before a drain but still building its keys when
  // cancel_inflight() runs registers its task afterwards; the cancel must
  // reach it at registration, not only at the drain deadline's abort.
  ServiceOptions opts;
  opts.workers = 1;
  opts.executor = [](const jobs::KernelRequest&, const exec::Budget& b) {
    wait_until([&] { return b.cancel.cancel_requested(); }, 5.0);
    jobs::AttemptOutcome ao;
    ao.ok = false;
    ao.stop = exec::StopReason::Cancelled;
    ao.detail = "cancelled mid-kernel";
    return ao;
  };
  Service service(opts);
  service.cancel_inflight();

  const auto t0 = std::chrono::steady_clock::now();
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(
      service.handle_line(estimate_request("adder:8").serialize()), v));
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.error, "cancelled");
  EXPECT_LT(took, 0.5) << "the cancel was lost: the kernel ran to its limit";
}

TEST(ServeDrain, DrainDeadlineBoundsShutdownOnCancelIgnoringKernel) {
  std::atomic<bool> release{false};
  serve::ServerOptions sopts;
  sopts.drain_deadline_seconds = 0.3;
  sopts.service.workers = 1;
  sopts.service.executor = [&](const jobs::KernelRequest&,
                               const exec::Budget&) {
    // Pathological kernel: ignores its CancelToken entirely.
    wait_until([&] { return release.load(); }, 30.0);
    jobs::AttemptOutcome ao;
    ao.ok = false;
    ao.stop = exec::StopReason::Cancelled;
    ao.detail = "late";
    return ao;
  };
  serve::Server server(sopts);
  server.start();

  LineClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  ASSERT_TRUE(client.send_line(estimate_request("adder:8").serialize()));
  ASSERT_TRUE(
      wait_until([&] { return server.service().metrics().inflight == 1; }));

  const auto t0 = std::chrono::steady_clock::now();
  server.shutdown();
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(took, 2.0)
      << "shutdown must be bounded even when the kernel ignores cancel";
  release.store(true);  // let the orphaned worker finish before destruction
}

// --- Protocol edge cases over TCP -------------------------------------------

TEST(ServeProtocolEdge, OversizedLineWithNewlineAnswersMalformedAndKeepsConnection) {
  serve::ServerOptions sopts;
  serve::Server server(sopts);
  server.start();
  LineClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  // Over the frame limit but with a newline: the boundary is known, so the
  // request is answered and the connection survives.
  std::string big = "{\"op\":\"estimate\",\"design\":\"";
  big.append(serve::kMaxLineBytes, 'a');
  big += "\"}";
  ASSERT_TRUE(client.send_line(big));
  std::string resp;
  ASSERT_TRUE(client.recv_line(resp));
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(resp, v));
  EXPECT_EQ(v.error, "malformed");
  ASSERT_TRUE(client.send_line("{\"op\":\"ping\"}"));
  ASSERT_TRUE(client.recv_line(resp));
  EXPECT_EQ(resp, serve::make_ping_response());
  server.shutdown();
}

TEST(ServeProtocolEdge, MidLineEofIsDroppedAndTheServerSurvives) {
  serve::ServerOptions sopts;
  serve::Server server(sopts);
  server.start();
  {
    LineClient abrupt;
    ASSERT_TRUE(abrupt.connect_to(server.port()));
    // Half a request, no newline, then the destructor closes the socket.
    ASSERT_TRUE(abrupt.send_raw("{\"op\":\"estim"));
  }
  LineClient next;
  ASSERT_TRUE(next.connect_to(server.port()));
  ASSERT_TRUE(next.send_line("{\"op\":\"ping\"}"));
  std::string resp;
  ASSERT_TRUE(next.recv_line(resp));
  EXPECT_EQ(resp, serve::make_ping_response());
  EXPECT_EQ(server.service().metrics().requests, 1u)
      << "the truncated line must not be interpreted as a request";
  server.shutdown();
}

TEST(ServeProtocolEdge, NonUtf8BytesInDetailAndIdRoundTripExactly) {
  // The protocol is byte-transparent above 0x1f: invalid UTF-8 sequences
  // pass through unescaped and unmangled in both directions.
  const std::string raw = "g\xC3\x28\xFF\xFEuge";
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(
      serve::make_error_response(raw, "internal", raw), v));
  EXPECT_EQ(v.id, raw);
  EXPECT_EQ(v.detail, raw);

  // Control characters are escaped on the way out and decoded on the way
  // back — no truncation at the first odd byte.
  const std::string ctl = std::string("a\x01b\t") + "\xC3\x28";
  ResponseView c;
  ASSERT_TRUE(serve::parse_response(
      serve::make_value_response({}, 1.0, ctl, false), c));
  EXPECT_EQ(c.detail, ctl);

  // End to end: a request id carrying raw bytes is echoed bit-exactly.
  ServiceOptions opts;
  opts.executor = [](const jobs::KernelRequest&, const exec::Budget&) {
    jobs::AttemptOutcome ao;
    ao.ok = true;
    ao.out.value = 2.0;
    ao.out.detail = "fake";
    return ao;
  };
  Service service(opts);
  Request rq = estimate_request("adder:4");
  rq.id = raw;
  ResponseView echoed;
  ASSERT_TRUE(serve::parse_response(service.handle_line(rq.serialize()),
                                    echoed));
  EXPECT_TRUE(echoed.ok);
  EXPECT_EQ(echoed.id, raw);
}

TEST(ServeProtocolEdge, FuzzCorpusRegressions) {
  const char* bad[] = {
      "{\"op\":\"estimate\",\"design\":\"adder:4\",\"seed\":-1}",
      "{\"op\":\"estimate\",\"design\":\"adder:4\",\"epsilon\":1e999}",
      "{\"op\":\"estimate\",\"design\":\"adder:4\",\"epsilon\":\"x\"}",
      "{\"op\":\"estimate\",\"design\":\"adder:4\"} trailing",
      "{\"op\":\"estimate\",\"design\":\"adder:4\",\"deadline\":nan}",
  };
  for (const char* line : bad) {
    Request rq;
    std::string error;
    EXPECT_FALSE(Request::parse(line, rq, error)) << line;
  }
}

TEST(ServeTcp, UnframableOversizedLineAnswersOnceAndCloses) {
  serve::ServerOptions sopts;
  serve::Server server(sopts);
  server.start();
  LineClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  // > kMaxLineBytes without a newline: no record boundary exists.
  ASSERT_TRUE(client.send_raw(std::string(serve::kMaxLineBytes + 4096, 'x')));
  std::string resp;
  ASSERT_TRUE(client.recv_line(resp));
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(resp, v));
  EXPECT_EQ(v.error, "malformed");
  EXPECT_FALSE(client.recv_line(resp)) << "connection must be closed";
  server.shutdown();
}

}  // namespace
