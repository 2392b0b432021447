// Chaos harness for the serve tier (DESIGN.md §9): deterministic fault
// schedules driven through hlp::fi's process-global serve faults, asserting
// the tier's contract under faults — every request gets exactly one typed
// response, no waiter leaks, and the persistent cache recovers to a
// byte-identical live set after a mid-load kill.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exec/fi.hpp"
#include "jobs/kernels.hpp"
#include "sandbox/sandbox.hpp"
#include "serve/cachefile.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "serve/workerpool.hpp"

namespace {

using namespace hlp;
using serve::CacheSegmentFile;
using serve::Op;
using serve::Request;
using serve::ResponseView;
using serve::SegmentStats;
using serve::Service;
using serve::ServiceOptions;

std::string temp_segment_path(const std::string& tag) {
  return ::testing::TempDir() + "hlp_seg_" + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

/// splitmix64: the schedule generator. Every fault choice in a schedule is
/// a pure function of the schedule id, so a failing schedule replays
/// exactly from its index alone.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Load a segment into an ordered map (append order is irrelevant for
/// equality; the map makes comparison order-insensitive).
std::map<std::string, std::string> load_live_set(const std::string& path,
                                                 SegmentStats* stats = nullptr) {
  std::map<std::string, std::string> out;
  CacheSegmentFile seg(path);
  seg.load([&](std::string&& k, std::string&& v) {
    out.emplace(std::move(k), std::move(v));
  });
  if (stats) *stats = seg.stats();
  return out;
}

Request estimate_request(const std::string& design,
                         jobs::JobKind kind = jobs::JobKind::Symbolic) {
  Request rq;
  rq.op = Op::Estimate;
  rq.kind = kind;
  rq.design = design;
  return rq;
}

bool wait_for(const std::function<bool()>& pred, double seconds = 10.0) {
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

// --- Crash-safe persistent cache --------------------------------------------

TEST(ServePersist, RestartServesWarmByteIdenticalWithoutExecuting) {
  const std::string path = temp_segment_path("warm");
  std::remove(path.c_str());

  Request rq = estimate_request("adder:8");
  rq.id = "warm-1";
  std::string first;
  {
    ServiceOptions opts;
    opts.cache_path = path;
    Service cold(opts);
    first = cold.handle_line(rq.serialize());
    ASSERT_NE(first.find("\"ok\":true"), std::string::npos) << first;
    EXPECT_EQ(cold.metrics().persist_appends, 1u);
  }  // "restart": the service (and its cache) is gone; only the file remains

  std::atomic<int> executions{0};
  ServiceOptions opts;
  opts.cache_path = path;
  opts.executor = [&](const jobs::KernelRequest& krq, const exec::Budget& b) {
    executions.fetch_add(1);
    return jobs::run_kernel(krq, b);
  };
  Service warm(opts);
  EXPECT_GE(warm.metrics().warm_entries, 1u);
  EXPECT_EQ(warm.handle_line(rq.serialize()), first)
      << "a warm restart must serve the cached bytes unchanged";
  EXPECT_EQ(executions.load(), 0)
      << "a warm restart must not re-execute the kernel";
  EXPECT_EQ(warm.metrics().hits, 1u);
  std::remove(path.c_str());
}

TEST(ServePersist, StaticEntryUnderPreTagKeyIsRecomputedAfterRestart) {
  // A segment persisted before the static kind's key carried its version
  // tag: the symbolic entry keeps its key and must load warm, while the
  // static entry sits under the untagged key and must never be served.
  const std::string path = temp_segment_path("static_tag");
  std::remove(path.c_str());
  const Request sym = estimate_request("adder:8");
  const Request stat = estimate_request("adder:8", jobs::JobKind::Static);
  std::string sym_first;
  std::string untagged;
  {
    ServiceOptions opts;
    opts.cache_path = path;
    Service cold(opts);
    sym_first = cold.handle_line(sym.serialize());
    ASSERT_NE(sym_first.find("\"ok\":true"), std::string::npos) << sym_first;
    EXPECT_EQ(cold.keys(sym).cache_key.find("|static-v"), std::string::npos);
    const std::string tagged = cold.keys(stat).cache_key;
    const std::size_t cut = tagged.rfind("|static-v");
    ASSERT_NE(cut, std::string::npos) << tagged;
    untagged = tagged.substr(0, cut);
  }
  {
    // A well-formed response body with the wrong value, as a stale entry.
    CacheSegmentFile seg(path);
    seg.load([](std::string&&, std::string&&) {});
    seg.append(untagged, sym_first);
  }

  std::string fresh;
  {
    Service uncached;
    fresh = uncached.handle_line(stat.serialize());
  }
  ServiceOptions opts;
  opts.cache_path = path;
  Service warm(opts);
  EXPECT_EQ(warm.metrics().warm_entries, 2u);
  EXPECT_EQ(warm.handle_line(sym.serialize()), sym_first);
  EXPECT_EQ(warm.metrics().hits, 1u);
  EXPECT_EQ(warm.handle_line(stat.serialize()), fresh)
      << "a static entry persisted under the untagged key must recompute";
  EXPECT_EQ(warm.metrics().hits, 1u);
  EXPECT_EQ(warm.metrics().misses, 1u);
  std::remove(path.c_str());
}

TEST(ServePersist, MonteCarloEntryUnderPreTagKeyIsRecomputedAfterRestart) {
  // Monte Carlo values moved when the estimator switched to exact integer
  // moments, and tier-0 escalates to Monte Carlo: a Monte Carlo entry
  // persisted under the untagged key must never be served, and both kinds
  // carry the current tags.
  const std::string path = temp_segment_path("mc_tag");
  std::remove(path.c_str());
  const Request mc = estimate_request("adder:8", jobs::JobKind::MonteCarlo);
  std::string fresh;
  std::string untagged;
  {
    Service cold;
    const std::string tagged = cold.keys(mc).cache_key;
    ASSERT_TRUE(tagged.ends_with("|mc-v2")) << tagged;
    const std::string stat =
        cold.keys(estimate_request("adder:8", jobs::JobKind::Static))
            .cache_key;
    EXPECT_TRUE(stat.ends_with("|static-v4")) << stat;
    untagged = tagged.substr(0, tagged.size() - std::string("|mc-v2").size());
    fresh = cold.handle_line(mc.serialize());
    ASSERT_NE(fresh.find("\"ok\":true"), std::string::npos) << fresh;
  }
  {
    // A well-formed response body with the wrong value, as a stale entry.
    std::string stale = fresh;
    const std::size_t at = stale.find("\"value\":");
    ASSERT_NE(at, std::string::npos) << stale;
    stale.insert(at + 8, "1");
    CacheSegmentFile seg(path);
    seg.load([](std::string&&, std::string&&) {});
    seg.append(untagged, stale);
  }
  ServiceOptions opts;
  opts.cache_path = path;
  Service warm(opts);
  EXPECT_EQ(warm.metrics().warm_entries, 1u);
  EXPECT_EQ(warm.handle_line(mc.serialize()), fresh)
      << "a Monte Carlo entry persisted under the untagged key must recompute";
  EXPECT_EQ(warm.metrics().hits, 0u);
  EXPECT_EQ(warm.metrics().misses, 1u);
  std::remove(path.c_str());
}

TEST(ServePersist, TornTailIsTruncatedAndEarlierEntriesSurvive) {
  const std::string path = temp_segment_path("torn");
  std::remove(path.c_str());
  {
    CacheSegmentFile seg(path);
    seg.load([](std::string&&, std::string&&) {});
    seg.append("k1", "value-one");
    seg.append("k2", "value-two");
    fi::arm_serve_fault(fi::ServeFault::CacheTornWrite, 0, /*param=*/5);
    seg.append("k3", "value-three");  // torn: only 5 bytes reach the file
    fi::disarm_serve_faults();
    EXPECT_TRUE(seg.stats().wedged);
    EXPECT_EQ(seg.stats().appends, 2u);
  }
  SegmentStats stats;
  const auto live = load_live_set(path, &stats);
  EXPECT_EQ(stats.torn_bytes, 5u);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live.at("k1"), "value-one");
  EXPECT_EQ(live.at("k2"), "value-two");
  // Recovery truncated the torn tail: a second load sees a clean file.
  SegmentStats again;
  EXPECT_EQ(load_live_set(path, &again), live);
  EXPECT_EQ(again.torn_bytes, 0u);
  std::remove(path.c_str());
}

TEST(ServePersist, CorruptCrcMidFileDropsTheTailOnly) {
  const std::string path = temp_segment_path("crc");
  std::remove(path.c_str());
  {
    CacheSegmentFile seg(path);
    seg.load([](std::string&&, std::string&&) {});
    seg.append("ka", "alpha");
    seg.append("kb", "beta");
    seg.append("kc", "gamma");
  }
  {
    // Flip one payload byte inside the second record. Offsets: magic(8),
    // rec = 8 + klen + vlen + 4; rec1 = 8+2+5+4 = 19 bytes.
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 8 + 19 + 8 + 1, SEEK_SET), 0);
    std::fputc('X', f);
    std::fclose(f);
  }
  SegmentStats stats;
  const auto live = load_live_set(path, &stats);
  ASSERT_EQ(live.size(), 1u) << "everything after a bad CRC is unframable";
  EXPECT_EQ(live.at("ka"), "alpha");
  EXPECT_GT(stats.torn_bytes, 0u);
  std::remove(path.c_str());
}

TEST(ServePersist, LastWriteWinsAndCompactionShrinksTheFile) {
  const std::string path = temp_segment_path("compact");
  std::remove(path.c_str());
  const std::string big(256, 'x');
  {
    CacheSegmentFile seg(path);
    seg.load([](std::string&&, std::string&&) {});
    for (int i = 0; i < 40; ++i) {
      seg.append("hot-key", big + std::to_string(i));
    }
    seg.append("other", "small");
  }
  SegmentStats stats;
  const auto live = load_live_set(path, &stats);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live.at("hot-key"), big + "39") << "last write must win";
  EXPECT_EQ(stats.superseded, 39u);
  EXPECT_EQ(stats.compactions, 1u)
      << "39 superseded copies outweigh 2 live records";
  SegmentStats after;
  EXPECT_EQ(load_live_set(path, &after), live)
      << "compaction must preserve the live set exactly";
  EXPECT_EQ(after.superseded, 0u);
  std::remove(path.c_str());
}

TEST(ServePersist, ConcurrentAppendsGroupCommitLoseNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  const std::string path = temp_segment_path("group");
  std::remove(path.c_str());
  {
    CacheSegmentFile seg(path);
    seg.load([](std::string&&, std::string&&) {});
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&seg, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string key =
              "t" + std::to_string(t) + "-" + std::to_string(i);
          seg.append(key, "value-" + key);
        }
      });
    }
    for (auto& th : threads) th.join();
    const SegmentStats st = seg.stats();
    EXPECT_FALSE(st.wedged);
    EXPECT_EQ(st.appends, static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_LE(st.flush_batches, st.appends);
  }
  SegmentStats stats;
  const auto live = load_live_set(path, &stats);
  ASSERT_EQ(live.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (const auto& [key, value] : live) EXPECT_EQ(value, "value-" + key);
  EXPECT_EQ(stats.torn_bytes, 0u);
  std::remove(path.c_str());
}

TEST(ServePersist, PreviousFormatSegmentStartsFresh) {
  // An "HLPCACH1" segment (klen:u32le vlen:u32le key value crc, CRC over
  // lengths and payloads) from before the record-file format: it must never
  // be misread, only replaced by a fresh segment.
  const std::string path = temp_segment_path("v1");
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const unsigned char v1[] = {'H', 'L', 'P', 'C', 'A', 'C', 'H', '1',
                                2, 0, 0, 0, 5, 0, 0, 0, 'k', '1',
                                'a', 'l', 'p', 'h', 'a', 0x54, 0x1c, 0x57,
                                0x5e};
    std::fwrite(v1, 1, sizeof v1, f);
    std::fclose(f);
  }
  {
    CacheSegmentFile seg(path);
    std::size_t loaded = 0;
    seg.load([&](std::string&&, std::string&&) { ++loaded; });
    EXPECT_EQ(loaded, 0u);
    EXPECT_FALSE(seg.stats().wedged);
    seg.append("k1", "fresh");
    EXPECT_EQ(seg.stats().appends, 1u);
  }
  SegmentStats stats;
  const auto live = load_live_set(path, &stats);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live.at("k1"), "fresh");
  EXPECT_EQ(stats.torn_bytes, 0u);
  std::remove(path.c_str());
}

// --- Deterministic chaos schedules ------------------------------------------

TEST(ServeChaos, HundredFaultSchedulesLoseNoResponses) {
  constexpr int kSchedules = 100;
  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 12;
  const char* kDesigns[] = {"adder:4", "adder:8", "mult:4", "mult:6"};

  const std::string path = temp_segment_path("chaos");
  for (int sched = 0; sched < kSchedules; ++sched) {
    std::remove(path.c_str());
    fi::disarm_serve_faults();

    // Derive this schedule's fault plan from its id alone. Only the four
    // in-process faults: the Child* crash faults fire behind fork() and
    // have their own schedules (ServeCrash below).
    std::uint64_t rng = 0x5eedull * 2654435761ull + static_cast<std::uint64_t>(sched);
    const auto fault = static_cast<fi::ServeFault>(splitmix64(rng) % 4);
    const std::uint64_t at_hit = splitmix64(rng) % 8;
    const std::uint64_t stall_ms = 150 + splitmix64(rng) % 150;
    fi::arm_serve_fault(fault, at_hit,
                        fault == fi::ServeFault::KernelStall ? stall_ms : 0);

    std::vector<std::vector<std::string>> responses(kThreads);
    {
      ServiceOptions opts;
      opts.workers = 3;
      opts.queue_limit = 8;
      opts.default_deadline_seconds = 0.1;
      opts.degrade_on_deadline = (sched % 2) == 1;
      opts.cache_path = path;
      opts.executor = [](const jobs::KernelRequest& krq, const exec::Budget&) {
        jobs::AttemptOutcome ao;  // fast deterministic fake kernel
        ao.ok = true;
        ao.out.value =
            static_cast<double>(krq.design.size()) + static_cast<double>(krq.seed % 7);
        ao.out.detail = "chaos-fake";
        return ao;
      };
      Service service(opts);

      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (int i = 0; i < kRequestsPerThread; ++i) {
            Request rq = estimate_request(kDesigns[(t + i) % 4]);
            rq.id = "s" + std::to_string(sched) + "-t" + std::to_string(t) +
                    "-r" + std::to_string(i);
            rq.has_seed = true;
            rq.seed = static_cast<std::uint64_t>(i % 3);  // forces sharing
            responses[static_cast<std::size_t>(t)].push_back(
                service.handle_line(rq.serialize()));
          }
        });
      }
      for (auto& th : threads) th.join();  // no leaked waiters: all return
    }  // service destruction joins the pool — the "kill" for persistence

    fi::disarm_serve_faults();

    // Exactly one well-formed, correctly-addressed response per request,
    // and failures only of the classes the fault model can produce.
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(responses[static_cast<std::size_t>(t)].size(),
                static_cast<std::size_t>(kRequestsPerThread))
          << "schedule " << sched << " thread " << t;
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::string& body =
            responses[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
        ResponseView v;
        ASSERT_TRUE(serve::parse_response(body, v))
            << "schedule " << sched << ": " << body;
        EXPECT_EQ(v.id, "s" + std::to_string(sched) + "-t" +
                            std::to_string(t) + "-r" + std::to_string(i))
            << "schedule " << sched << ": response delivered to the wrong "
            << "request";
        if (!v.ok) {
          EXPECT_TRUE(v.error == "internal" || v.error == "shed" ||
                      v.error == "deadline-exceeded" ||
                      v.error == "cancelled" || v.error == "budget-exhausted")
              << "schedule " << sched << ": unexpected class " << v.error;
        }
      }
    }

    // Crash discipline: whatever the fault did to the segment file, two
    // recovery loads agree byte for byte and every surviving value is a
    // complete, cacheable response.
    const auto live1 = load_live_set(path);
    const auto live2 = load_live_set(path);
    EXPECT_EQ(live1, live2) << "schedule " << sched
                            << ": recovery must be deterministic";
    for (const auto& [key, value] : live1) {
      ResponseView v;
      ASSERT_TRUE(serve::parse_response(value, v))
          << "schedule " << sched << ": cached garbage under " << key;
      EXPECT_TRUE(v.ok && v.has_value && !v.degraded)
          << "schedule " << sched << ": only complete results may persist";
    }
  }
  std::remove(path.c_str());
}

// --- Crash-fault schedules (process-isolated sandbox, DESIGN.md §11) --------
//
// ServeCrash.* is deliberately named outside the TSan allowlist: these
// schedules fork sandbox children from a multithreaded service, which TSan
// cannot follow. The ASan chaos job runs them in full.

/// Fast deterministic fake kernel for isolated children: the crash faults
/// fire before it runs, so a crashing round never reaches it.
jobs::AttemptOutcome crash_fake_kernel(const jobs::KernelRequest& krq,
                                       const exec::Budget&) {
  jobs::AttemptOutcome ao;
  ao.ok = true;
  ao.out.value = static_cast<double>(krq.design.size());
  ao.out.detail = "crash-fake";
  return ao;
}

TEST(ServeCrash, HundredCrashStormLosesNoResponsesAndRestoresCapacity) {
  // The survival proof: >= 100 deterministic child faults mixing
  // segfaults, OOM kills, and non-cooperative wedges, across 4 client
  // threads — zero lost responses, the daemon process never dies, and
  // pool capacity is restored after every fault.
  constexpr int kRounds = 100;
  constexpr int kThreads = 4;
  const char* kDesigns[] = {"adder:4", "adder:8", "mult:4", "mult:6"};

  ServiceOptions opts;
  opts.workers = 4;
  opts.isolate = serve::IsolateMode::All;
  opts.default_deadline_seconds = 0.15;  // bounds every wedged child
  opts.quarantine_threshold = 0;  // breaker measured separately below
  opts.executor = crash_fake_kernel;
  Service service(opts);

  int armed_segv = 0, armed_oom = 0, armed_wedge = 0;
  for (int round = 0; round < kRounds; ++round) {
    fi::disarm_serve_faults();
    std::uint64_t rng =
        0xc4a5ull * 2654435761ull + static_cast<std::uint64_t>(round);
    fi::ServeFault fault;
    switch (splitmix64(rng) % 3) {
      case 0: fault = fi::ServeFault::ChildSegv; ++armed_segv; break;
      case 1: fault = fi::ServeFault::ChildOom; ++armed_oom; break;
      default: fault = fi::ServeFault::ChildWedge; ++armed_wedge; break;
    }
    const std::uint64_t at_hit = splitmix64(rng) % kThreads;
    fi::arm_serve_fault(fault, at_hit);

    std::vector<std::string> responses(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Request rq = estimate_request(kDesigns[t]);
        rq.id = "r" + std::to_string(round) + "-t" + std::to_string(t);
        rq.has_seed = true;
        // Unique seed per (round, thread): every request is a fresh miss.
        rq.seed = static_cast<std::uint64_t>(round) * kThreads +
                  static_cast<std::uint64_t>(t);
        responses[static_cast<std::size_t>(t)] =
            service.handle_line(rq.serialize());
      });
    }
    for (auto& th : threads) th.join();  // zero lost responses: all return

    int failures = 0;
    for (int t = 0; t < kThreads; ++t) {
      const std::string& body = responses[static_cast<std::size_t>(t)];
      ResponseView v;
      ASSERT_TRUE(serve::parse_response(body, v))
          << "round " << round << ": " << body;
      EXPECT_EQ(v.id, "r" + std::to_string(round) + "-t" + std::to_string(t))
          << "round " << round;
      if (v.ok) continue;
      ++failures;
      // Crash class -> wire class is fixed: segv is internal, an OOM kill
      // is budget-exhausted, a wedge dies as a wall-deadline abandonment.
      switch (fault) {
        case fi::ServeFault::ChildSegv:
          EXPECT_EQ(v.error, "internal") << "round " << round;
          break;
        case fi::ServeFault::ChildOom:
          EXPECT_EQ(v.error, "budget-exhausted") << "round " << round;
          break;
        default:
          EXPECT_EQ(v.error, "deadline-exceeded") << "round " << round;
          break;
      }
    }
    EXPECT_EQ(failures, 1)
        << "round " << round << ": exactly the faulted request fails";
  }
  fi::disarm_serve_faults();

  // Every fault becomes a typed crash report (the wedge's counter may lag
  // its response: the waiter answers at the deadline, the worker reaps the
  // child at the wall kill shortly after).
  ASSERT_TRUE(wait_for([&] {
    return service.health().child_crashes ==
           static_cast<std::uint64_t>(kRounds);
  })) << service.health().child_crashes;
  const serve::ServiceHealth h = service.health();
  using CK = hlp::sandbox::CrashKind;
  EXPECT_EQ(h.crashes_by_kind[static_cast<std::size_t>(CK::Signal)],
            static_cast<std::uint64_t>(armed_segv));
  EXPECT_EQ(h.crashes_by_kind[static_cast<std::size_t>(CK::OomKill)],
            static_cast<std::uint64_t>(armed_oom));
  EXPECT_EQ(h.crashes_by_kind[static_cast<std::size_t>(CK::WallTimeout)],
            static_cast<std::uint64_t>(armed_wedge));

  // Capacity restored: every worker thread is back (wedged children were
  // reaped, any superseded slot was replaced), and the service still
  // executes clean requests.
  ASSERT_TRUE(wait_for([&] {
    const serve::ServiceHealth now = service.health();
    return now.busy == 0 && now.live == opts.workers && now.wedged == 0;
  }));
  Request clean = estimate_request("adder:8");
  clean.id = "after-the-storm";
  ResponseView v;
  ASSERT_TRUE(serve::parse_response(service.handle_line(clean.serialize()), v));
  EXPECT_TRUE(v.ok) << "the service must execute normally after 100 crashes";
  EXPECT_EQ(service.health().isolated,
            static_cast<std::uint64_t>(kRounds * kThreads + 1));
}

TEST(ServeCrash, RespawnCounterMatchesWedgeCountExactly) {
  // Ten wedged tasks through a two-slot pool: the supervisor must replace
  // each wedged thread exactly once and end with full capacity.
  constexpr int kWedges = 10;
  serve::WorkerPool pool(2, 64);
  std::atomic<bool> release{false};
  std::atomic<int> finished{0};
  for (int i = 0; i < kWedges; ++i) {
    ASSERT_TRUE(pool.try_submit(
        [&] {
          wait_for([&] { return release.load(); }, 60.0);
          finished.fetch_add(1);
        },
        serve::WorkerPool::Clock::now() + std::chrono::milliseconds(30)));
  }
  ASSERT_TRUE(wait_for(
      [&] {
        return pool.respawns() == static_cast<std::uint64_t>(kWedges) &&
               pool.live() == 2;
      },
      30.0))
      << "respawns=" << pool.respawns() << " live=" << pool.live();
  EXPECT_EQ(pool.live(), 2) << "capacity restored after every supersede";
  EXPECT_EQ(pool.busy(), kWedges) << "every wedge still holds its thread";
  release.store(true);
  ASSERT_TRUE(wait_for([&] { return finished.load() == kWedges; }));
  pool.stop();
  EXPECT_EQ(pool.respawns(), static_cast<std::uint64_t>(kWedges))
      << "exactly one respawn per wedged task, none after release";
}

TEST(ServeCrash, PoisonFingerprintQuarantinesAfterExactlyKThenRehabilitates) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.isolate = serve::IsolateMode::All;
  opts.quarantine_threshold = 3;
  opts.quarantine_base_expiry_seconds = 0.3;
  opts.executor = crash_fake_kernel;
  Service service(opts);

  auto poison_line = [](int i) {
    Request rq = estimate_request("adder:4");
    rq.id = "p" + std::to_string(i);
    rq.use_cache = false;  // force execution on every attempt
    return rq.serialize();
  };

  // K-1 crashes: the breaker counts but stays closed (still executing).
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.health().quarantine_trips, 0u)
        << "tripped before the K-th failure (i=" << i << ")";
    fi::arm_serve_fault(fi::ServeFault::ChildSegv, 0);
    ResponseView v;
    ASSERT_TRUE(serve::parse_response(service.handle_line(poison_line(i)), v));
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.error, "internal");
  }
  fi::disarm_serve_faults();
  EXPECT_EQ(service.health().quarantine_trips, 1u)
      << "the K-th hard failure must trip the breaker";

  // Open: answered degraded from the tier-0 static bound, in microseconds
  // not kernel-seconds, without forking another child.
  const std::uint64_t isolated_before = service.health().isolated;
  const auto t0 = std::chrono::steady_clock::now();
  ResponseView q;
  ASSERT_TRUE(serve::parse_response(service.handle_line(poison_line(100)), q));
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  EXPECT_TRUE(q.ok) << "netlist-backed kinds degrade, not error";
  EXPECT_TRUE(q.degraded);
  EXPECT_NE(q.detail.find("quarantined"), std::string::npos) << q.detail;
  EXPECT_LT(ms, 10.0) << "a quarantined answer must not cost a kernel run";
  EXPECT_EQ(service.health().isolated, isolated_before)
      << "an open breaker must not fork a child";
  EXPECT_GE(service.health().quarantine_served, 1u);
  EXPECT_EQ(service.health().quarantine_open, 1u);

  // A different design is unaffected by the poison fingerprint.
  ResponseView other;
  ASSERT_TRUE(serve::parse_response(
      service.handle_line(estimate_request("adder:8").serialize()), other));
  EXPECT_TRUE(other.ok);
  EXPECT_FALSE(other.degraded);

  // Past expiry the breaker half-opens: one probe executes for real, and
  // its delivered outcome rehabilitates the fingerprint.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ResponseView probe;
  ASSERT_TRUE(
      serve::parse_response(service.handle_line(poison_line(101)), probe));
  EXPECT_TRUE(probe.ok);
  EXPECT_FALSE(probe.degraded) << "the probe ran the real kernel";
  EXPECT_EQ(service.health().quarantine_rehabilitated, 1u);
  EXPECT_EQ(service.health().quarantine_open, 0u);
  EXPECT_GT(service.health().isolated, isolated_before);
}

/// Kernels for the queue-wait schedule, run in isolated children: "mult:4"
/// and "mult:6" hold the single worker for 250 ms and 800 ms; any other
/// design is a healthy cooperative kernel that uses its whole budget,
/// counted from its own start, and stops gracefully at the deadline.
jobs::AttemptOutcome queue_wait_kernel(const jobs::KernelRequest& krq,
                                       const exec::Budget& budget) {
  jobs::AttemptOutcome ao;
  if (krq.design == "mult:4" || krq.design == "mult:6") {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(krq.design == "mult:4" ? 250 : 800));
    ao.ok = true;
    ao.out.value = 1.0;
    return ao;
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(budget.deadline_seconds));
  ao.stop = exec::StopReason::Deadline;
  ao.detail = "cooperative deadline trip";
  return ao;
}

TEST(ServeCrash, QueueWaitIsNeitherACrashNorAQuarantineFailure) {
  // A healthy isolated request that waits behind a busy worker past its
  // abandon point (0.4 s deadline: 0.55 s wall) is answered
  // deadline-exceeded by its waiter. It is not a child crash and does not
  // feed the breaker, which here trips at the first hard failure.
  ServiceOptions opts;
  opts.workers = 1;
  opts.isolate = serve::IsolateMode::All;
  opts.quarantine_threshold = 1;
  opts.executor = queue_wait_kernel;
  Service service(opts);

  auto victim_behind = [&](const std::string& blocker_design,
                           const std::string& id) {
    Request blocker = estimate_request(blocker_design);
    blocker.id = id + "-blocker";
    blocker.deadline_seconds = 5.0;
    Request victim = estimate_request("adder:4");
    victim.id = id;
    victim.use_cache = false;
    victim.deadline_seconds = 0.4;
    std::thread busy([&] { service.handle_line(blocker.serialize()); });
    ASSERT_TRUE(wait_for([&] { return service.health().busy == 1; }));
    ResponseView v;
    ASSERT_TRUE(
        serve::parse_response(service.handle_line(victim.serialize()), v));
    busy.join();
    EXPECT_FALSE(v.ok) << id;
    EXPECT_EQ(v.error, "deadline-exceeded") << id;
    ASSERT_TRUE(wait_for([&] { return service.health().busy == 0; })) << id;
  };

  // Dequeued at ~0.25 s, forked, and still running at the waiter's
  // abandon point: the child runs on to its own graceful trip at ~0.65 s,
  // inside the wall limit counted from its fork, and delivers.
  victim_behind("mult:4", "forked-late");
  // Still queued at its abandon point (the worker frees at ~0.8 s): the
  // child is never forked.
  victim_behind("mult:6", "abandoned-in-queue");

  const serve::ServiceHealth h = service.health();
  EXPECT_EQ(h.child_crashes, 0u) << "queue wait is not a child crash";
  EXPECT_EQ(h.quarantine_trips, 0u) << "nor a hard quarantine failure";
  EXPECT_EQ(h.quarantine_open, 0u);
  EXPECT_EQ(h.isolated, 3u)
      << "two blockers and the victim forked late; the victim abandoned "
         "in the queue must not fork";
}

}  // namespace
