// E-SERVE — Cost and benefit of the estimation service (src/serve).
//
// Two questions decide whether serving estimates through a daemon makes
// sense at all:
//
//  1. Cold vs hot: how much does the content-addressed result cache buy on
//     a repeated request? Cold = distinct cache keys (every request runs
//     the symbolic kernel); hot = one key asked again and again. The
//     acceptance bar is hot >= 5x cold throughput for symbolic adder:16 —
//     in practice the gap is orders of magnitude, since a hit is a map
//     probe plus one TCP round trip.
//
//  2. Concurrency: requests/sec for a hot workload at 1/2/4/8 client
//     connections. The cache is sharded and the server is
//     thread-per-connection, so hot throughput should scale until
//     loopback syscalls dominate.
//
// Two more decide whether the fault-tolerance layer earns its keep:
//
//  3. Warm restart: with --cache-file persistence, a restarted server's
//     first request for a previously-cached design must be a cache hit —
//     byte-identical to the pre-restart response and orders of magnitude
//     faster than the cold computation it replaces.
//
//  4. Overload: at 4x the worker pool's closed-loop capacity, admission
//     control must shed the excess with a retry-after-ms hint while the
//     p99 latency of *admitted* requests stays within 2x of the unloaded
//     p99 (bounded queueing, not collapse).
//
// Results go to BENCH_serve.json (cwd, or argv[1] after the
// google-benchmark flags).

#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "exec/fi.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

using namespace hlp;
using clock_type = std::chrono::steady_clock;

/// Minimal blocking line client (loopback only).
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

  bool roundtrip(const std::string& line, std::string& resp) {
    std::string framed = line;
    framed.push_back('\n');
    const char* p = framed.data();
    std::size_t left = framed.size();
    while (left > 0) {
      const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    while (true) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        resp = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

std::string symbolic_line(std::uint64_t seed) {
  serve::Request rq;
  rq.op = serve::Op::Estimate;
  rq.kind = jobs::JobKind::Symbolic;
  rq.design = "adder:16";
  rq.has_seed = true;
  rq.seed = seed;
  return rq.serialize();
}

/// In-process hot path (no sockets): what one cached handle_line costs.
void BM_HotHandleLine(benchmark::State& st) {
  serve::Service service;
  const std::string line = symbolic_line(1);
  benchmark::DoNotOptimize(service.handle_line(line));  // warm the cache
  for (auto _ : st) {
    benchmark::DoNotOptimize(service.handle_line(line));
  }
}

void write_report(const std::string& path) {
  std::printf("\n--- BENCH_serve report ---\n");

  serve::ServerOptions sopts;
  serve::Server server(sopts);
  server.start();
  const std::uint16_t port = server.port();

  // --- Cold vs hot latency over TCP, symbolic adder:16 -------------------
  // Distinct seeds give distinct cache keys, so every cold request runs
  // the full BDD kernel; the hot line reuses one key.
  constexpr int kColdReps = 3;
  double cold_total = 0.0;
  {
    LineClient c;
    if (!c.connect_to(port)) {
      std::fprintf(stderr, "bench_serve: connect failed\n");
      return;
    }
    std::string resp;
    for (int i = 0; i < kColdReps; ++i) {
      const auto t0 = clock_type::now();
      if (!c.roundtrip(symbolic_line(1000 + static_cast<std::uint64_t>(i)),
                       resp)) {
        std::fprintf(stderr, "bench_serve: cold request failed\n");
        return;
      }
      cold_total +=
          std::chrono::duration<double>(clock_type::now() - t0).count();
    }
  }
  const double cold_latency = cold_total / kColdReps;
  const double cold_rps = 1.0 / cold_latency;

  constexpr int kHotReps = 2000;
  double hot_total = 0.0;
  {
    LineClient c;
    if (!c.connect_to(port)) return;
    std::string resp;
    c.roundtrip(symbolic_line(1), resp);  // fill the cache line
    const auto t0 = clock_type::now();
    for (int i = 0; i < kHotReps; ++i) {
      if (!c.roundtrip(symbolic_line(1), resp)) return;
    }
    hot_total = std::chrono::duration<double>(clock_type::now() - t0).count();
  }
  const double hot_latency = hot_total / kHotReps;
  const double hot_rps = 1.0 / hot_latency;
  const double ratio = hot_rps / cold_rps;

  std::printf("cold (symbolic adder:16, unique keys): %8.2f ms/req "
              "(%6.2f req/s)\n",
              cold_latency * 1e3, cold_rps);
  std::printf("hot  (same key, cache hit):            %8.4f ms/req "
              "(%6.0f req/s)\n",
              hot_latency * 1e3, hot_rps);
  std::printf("hot/cold throughput ratio: %.0fx %s\n", ratio,
              ratio >= 5.0 ? "(>= 5x bar met)" : "(BELOW 5x bar)");

  // --- Hot throughput vs connection count --------------------------------
  constexpr int kPerConn = 500;
  benchjson::Array scaling;
  double serial_rps = 0.0;
  std::printf("hot throughput vs connections (%d req/conn):\n", kPerConn);
  for (int conns : {1, 2, 4, 8}) {
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    const auto t0 = clock_type::now();
    for (int t = 0; t < conns; ++t) {
      threads.emplace_back([&] {
        LineClient c;
        if (!c.connect_to(port)) {
          failures.fetch_add(1);
          return;
        }
        std::string resp;
        for (int i = 0; i < kPerConn; ++i) {
          if (!c.roundtrip(symbolic_line(1), resp)) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    const double secs =
        std::chrono::duration<double>(clock_type::now() - t0).count();
    const double rps = failures.load() == 0
                           ? static_cast<double>(conns * kPerConn) / secs
                           : 0.0;
    if (conns == 1) serial_rps = rps;
    std::printf("  connections %d: %8.0f req/s (speedup %.2fx)\n", conns, rps,
                serial_rps > 0.0 ? rps / serial_rps : 0.0);
    scaling.push_back(benchjson::Object{
        {"connections", conns},
        {"requests_per_sec", rps},
        {"speedup", serial_rps > 0.0 ? rps / serial_rps : 0.0},
    });
  }

  const serve::ServiceMetrics m = server.service().metrics();
  server.shutdown();

  // --- Warm restart via the persistent segment file ----------------------
  // Cold-compute once with --cache-file persistence, tear the server down,
  // start a fresh one on the same file: the first request must hit warm.
  const std::string seg =
      "/tmp/hlp_bench_seg_" + std::to_string(::getpid()) + ".bin";
  std::remove(seg.c_str());
  const std::string warm_line = symbolic_line(4242);
  double warm_cold_s = 0.0;
  double warm_first_s = 0.0;
  bool warm_identical = false;
  std::uint64_t warm_entries = 0;
  {
    serve::ServerOptions cold_opts;
    cold_opts.service.cache_path = seg;
    serve::Server cold_srv(cold_opts);
    cold_srv.start();
    LineClient c;
    std::string resp;
    if (c.connect_to(cold_srv.port())) {
      const auto t0 = clock_type::now();
      c.roundtrip(warm_line, resp);
      warm_cold_s =
          std::chrono::duration<double>(clock_type::now() - t0).count();
    }
    cold_srv.shutdown();

    serve::ServerOptions warm_opts;
    warm_opts.service.cache_path = seg;
    serve::Server warm_srv(warm_opts);
    warm_srv.start();
    warm_entries = warm_srv.service().metrics().warm_entries;
    LineClient w;
    std::string warm_resp;
    if (w.connect_to(warm_srv.port())) {
      const auto t0 = clock_type::now();
      w.roundtrip(warm_line, warm_resp);
      warm_first_s =
          std::chrono::duration<double>(clock_type::now() - t0).count();
    }
    warm_identical = !warm_resp.empty() && warm_resp == resp;
    warm_srv.shutdown();
  }
  std::remove(seg.c_str());
  std::printf("warm restart (segment file): cold %8.2f ms -> first warm "
              "request %8.4f ms, byte-identical: %s\n",
              warm_cold_s * 1e3, warm_first_s * 1e3,
              warm_identical ? "yes" : "NO");

  // --- Overload: 4x the pool's closed-loop capacity ----------------------
  // Paced fake kernel (fixed service time) so the row measures admission
  // control, not kernel variance. 16 closed-loop connections against 4
  // workers = 4x overload; queue_limit bounds the latency of whatever is
  // admitted and everything else sheds with a retry hint.
  constexpr double kServiceSeconds = 0.005;
  constexpr int kWorkers = 4;
  constexpr int kOverloadConns = 16;
  constexpr int kOverloadPerConn = 120;
  serve::ServerOptions oopts;
  oopts.service.workers = kWorkers;
  oopts.service.queue_limit = 2;
  oopts.service.executor = [&](const jobs::KernelRequest& krq,
                               const exec::Budget&) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kServiceSeconds));
    jobs::AttemptOutcome ao;
    ao.ok = true;
    ao.out.value = static_cast<double>(krq.seed % 97);
    ao.out.detail = "paced";
    return ao;
  };
  serve::Server oserver(oopts);
  oserver.start();
  const std::uint16_t oport = oserver.port();

  auto nocache_line = [](std::uint64_t seed) {
    serve::Request rq;
    rq.op = serve::Op::Estimate;
    rq.kind = jobs::JobKind::Symbolic;
    rq.design = "adder:16";
    rq.has_seed = true;
    rq.seed = seed;
    rq.use_cache = false;
    return rq.serialize();
  };
  auto p99_of = [](std::vector<double>& xs) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    return xs[std::min(xs.size() - 1,
                       static_cast<std::size_t>(
                           static_cast<double>(xs.size()) * 0.99))];
  };

  std::vector<double> unloaded;
  {
    LineClient c;
    std::string resp;
    if (c.connect_to(oport)) {
      for (int i = 0; i < 200; ++i) {
        const auto t0 = clock_type::now();
        if (!c.roundtrip(nocache_line(static_cast<std::uint64_t>(i)), resp))
          break;
        unloaded.push_back(
            std::chrono::duration<double>(clock_type::now() - t0).count());
      }
    }
  }
  const double p99_unloaded = p99_of(unloaded);

  std::vector<std::vector<double>> admitted_lat(kOverloadConns);
  std::atomic<std::uint64_t> shed_count{0};
  std::atomic<std::uint64_t> admitted_count{0};
  std::atomic<std::uint64_t> hints_present{0};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kOverloadConns; ++t) {
      threads.emplace_back([&, t] {
        LineClient c;
        if (!c.connect_to(oport)) return;
        std::string resp;
        for (int i = 0; i < kOverloadPerConn; ++i) {
          const std::uint64_t seed =
              1000000ull + static_cast<std::uint64_t>(t) * 100000ull +
              static_cast<std::uint64_t>(i);
          const auto t0 = clock_type::now();
          if (!c.roundtrip(nocache_line(seed), resp)) return;
          const double secs =
              std::chrono::duration<double>(clock_type::now() - t0).count();
          serve::ResponseView v;
          if (!serve::parse_response(resp, v)) continue;
          if (!v.ok && v.error == "shed") {
            shed_count.fetch_add(1);
            if (v.retry_after_ms > 0) hints_present.fetch_add(1);
          } else if (v.ok) {
            admitted_count.fetch_add(1);
            admitted_lat[static_cast<std::size_t>(t)].push_back(secs);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  oserver.shutdown();

  std::vector<double> admitted_all;
  for (auto& v : admitted_lat)
    admitted_all.insert(admitted_all.end(), v.begin(), v.end());
  const double p99_admitted = p99_of(admitted_all);
  const double total_offered =
      static_cast<double>(kOverloadConns) * kOverloadPerConn;
  const double shed_rate =
      static_cast<double>(shed_count.load()) / total_offered;
  const double p99_ratio =
      p99_unloaded > 0.0 ? p99_admitted / p99_unloaded : 0.0;
  std::printf("overload %dx (%d conns vs %d workers): shed %.0f%% with "
              "retry-after on %llu/%llu, admitted p99 %.2f ms vs unloaded "
              "p99 %.2f ms (%.2fx %s)\n",
              kOverloadConns / kWorkers, kOverloadConns, kWorkers,
              shed_rate * 100.0,
              static_cast<unsigned long long>(hints_present.load()),
              static_cast<unsigned long long>(shed_count.load()),
              p99_admitted * 1e3, p99_unloaded * 1e3, p99_ratio,
              p99_ratio <= 2.0 ? "(<= 2x bar met)" : "(ABOVE 2x bar)");

  // --- Isolated cold: what the fork-per-request sandbox costs ------------
  // Same symbolic kernel, in-process vs forked into a single-request child
  // (--isolate all). The bar: isolated cold p50 <= 1.3x in-process cold
  // p50 (fork + pipe framing is noise next to a BDD build), and the hot
  // path is unchanged — a cache hit never forks.
  auto median_of = [](std::vector<double>& xs) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
  };
  auto cold_and_hot_p50 = [&](serve::IsolateMode mode, std::uint64_t base,
                              double& hot_p50) {
    serve::ServerOptions iopts;
    iopts.service.isolate = mode;
    serve::Server srv(iopts);
    srv.start();
    std::vector<double> lat, hot;
    {
      LineClient c;
      std::string resp;
      if (c.connect_to(srv.port())) {
        for (int i = 0; i < 9; ++i) {  // unique seeds: every request cold
          const auto t0 = clock_type::now();
          if (!c.roundtrip(symbolic_line(base + static_cast<std::uint64_t>(i)),
                           resp))
            break;
          lat.push_back(
              std::chrono::duration<double>(clock_type::now() - t0).count());
        }
        c.roundtrip(symbolic_line(base + 5000), resp);  // warm one key
        for (int i = 0; i < 400; ++i) {
          const auto t0 = clock_type::now();
          if (!c.roundtrip(symbolic_line(base + 5000), resp)) break;
          hot.push_back(
              std::chrono::duration<double>(clock_type::now() - t0).count());
        }
      }
    }
    srv.shutdown();
    hot_p50 = median_of(hot);
    return median_of(lat);
  };
  double hot_p50_inproc = 0.0, hot_p50_isolated = 0.0;
  const double cold_p50_inproc =
      cold_and_hot_p50(serve::IsolateMode::Off, 70000, hot_p50_inproc);
  const double cold_p50_isolated =
      cold_and_hot_p50(serve::IsolateMode::All, 80000, hot_p50_isolated);
  const double isolate_overhead =
      cold_p50_inproc > 0.0 ? cold_p50_isolated / cold_p50_inproc : 0.0;
  std::printf("isolated cold p50: in-process %8.2f ms vs forked child "
              "%8.2f ms (%.2fx %s); hot p50 %8.4f ms vs %8.4f ms\n",
              cold_p50_inproc * 1e3, cold_p50_isolated * 1e3, isolate_overhead,
              isolate_overhead > 0.0 && isolate_overhead <= 1.3
                  ? "(<= 1.3x bar met)"
                  : "(ABOVE 1.3x bar)",
              hot_p50_inproc * 1e3, hot_p50_isolated * 1e3);

  // --- Crash storm: throughput while children die --------------------------
  // One injected child fault per round (segv / OOM kill / wedge in
  // rotation), four concurrent requests per round against an isolate=all
  // service. The row records that every request got a typed answer, every
  // fault became a typed crash report, and the worker pool ends at full
  // strength — the survival proof as a benchmark.
  constexpr int kStormRounds = 50;
  constexpr int kStormThreads = 4;
  serve::ServiceOptions copts;
  copts.workers = 4;
  copts.isolate = serve::IsolateMode::All;
  copts.quarantine_threshold = 0;  // measure the sandbox, not the breaker
  copts.default_deadline_seconds = 0.1;
  copts.executor = [](const jobs::KernelRequest& krq, const exec::Budget&) {
    jobs::AttemptOutcome ao;
    ao.ok = true;
    ao.out.value = static_cast<double>(krq.seed % 97);
    ao.out.detail = "storm";
    return ao;
  };
  serve::Service storm_svc(copts);
  std::atomic<std::uint64_t> storm_typed{0};
  const auto storm_t0 = clock_type::now();
  for (int round = 0; round < kStormRounds; ++round) {
    fi::disarm_serve_faults();
    const fi::ServeFault fault = round % 3 == 0   ? fi::ServeFault::ChildSegv
                                 : round % 3 == 1 ? fi::ServeFault::ChildOom
                                                  : fi::ServeFault::ChildWedge;
    fi::arm_serve_fault(fault, static_cast<std::uint64_t>(round) % kStormThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kStormThreads; ++t) {
      threads.emplace_back([&, round, t] {
        serve::Request rq;
        rq.op = serve::Op::Estimate;
        rq.kind = jobs::JobKind::Symbolic;
        rq.design = "adder:16";
        rq.has_seed = true;
        rq.seed = 900000ull + static_cast<std::uint64_t>(round) * 100 +
                  static_cast<std::uint64_t>(t);
        serve::ResponseView v;
        if (serve::parse_response(storm_svc.handle_line(rq.serialize()), v))
          storm_typed.fetch_add(1);
      });
    }
    for (auto& th : threads) th.join();
  }
  fi::disarm_serve_faults();
  const double storm_secs =
      std::chrono::duration<double>(clock_type::now() - storm_t0).count();
  // Wedge crash reports land at the wall kill, slightly after the waiter
  // gave up at the deadline; give the reaper a moment to finish.
  for (int i = 0; i < 500; ++i) {
    const serve::ServiceHealth sh = storm_svc.health();
    if (sh.child_crashes >= static_cast<std::uint64_t>(kStormRounds) &&
        sh.busy == 0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const serve::ServiceHealth storm_health = storm_svc.health();
  const double storm_offered =
      static_cast<double>(kStormRounds) * kStormThreads;
  const double storm_rps = storm_secs > 0.0 ? storm_offered / storm_secs : 0.0;
  std::printf("crash storm (%d faulted rounds x %d conns): %.0f req/s, "
              "typed responses %llu/%.0f, child crashes %llu, live workers "
              "%d/%d\n",
              kStormRounds, kStormThreads, storm_rps,
              static_cast<unsigned long long>(storm_typed.load()),
              storm_offered,
              static_cast<unsigned long long>(storm_health.child_crashes),
              storm_health.live, copts.workers);

  benchjson::Object root{
      {"bench", "serve"},
      {"machine", benchjson::machine()},
      {"design", "adder:16"},
      {"kind", "symbolic"},
      {"cold",
       benchjson::Object{
           {"reps", kColdReps},
           {"latency_seconds", cold_latency},
           {"requests_per_sec", cold_rps},
       }},
      {"hot",
       benchjson::Object{
           {"reps", kHotReps},
           {"latency_seconds", hot_latency},
           {"requests_per_sec", hot_rps},
       }},
      {"hot_over_cold_throughput", ratio},
      {"meets_5x_bar", ratio >= 5.0},
      {"connection_scaling", std::move(scaling)},
      {"server_metrics",
       benchjson::Object{
           {"hits", m.hits},
           {"misses", m.misses},
           {"coalesced", m.coalesced},
           {"shed", m.shed},
       }},
      {"warm_restart",
       benchjson::Object{
           {"cold_first_request_seconds", warm_cold_s},
           {"warm_first_request_seconds", warm_first_s},
           {"byte_identical", warm_identical},
           {"warm_entries", warm_entries},
           {"speedup", warm_first_s > 0.0 ? warm_cold_s / warm_first_s : 0.0},
           {"warm_under_1ms", warm_first_s > 0.0 && warm_first_s < 1e-3},
       }},
      {"overload_4x",
       benchjson::Object{
           {"workers", kWorkers},
           {"queue_limit", 2},
           {"connections", kOverloadConns},
           {"service_seconds", kServiceSeconds},
           {"offered", total_offered},
           {"admitted", admitted_count.load()},
           {"shed", shed_count.load()},
           {"shed_rate", shed_rate},
           {"retry_after_hints", hints_present.load()},
           {"p99_unloaded_seconds", p99_unloaded},
           {"p99_admitted_seconds", p99_admitted},
           {"p99_admitted_over_unloaded", p99_ratio},
           {"meets_2x_bar", p99_ratio > 0.0 && p99_ratio <= 2.0},
       }},
      {"isolated_cold",
       benchjson::Object{
           {"in_process_p50_seconds", cold_p50_inproc},
           {"isolated_p50_seconds", cold_p50_isolated},
           {"overhead_ratio", isolate_overhead},
           {"meets_1p3x_bar",
            isolate_overhead > 0.0 && isolate_overhead <= 1.3},
           {"hot_p50_in_process_seconds", hot_p50_inproc},
           {"hot_p50_isolated_seconds", hot_p50_isolated},
       }},
      {"crash_storm",
       benchjson::Object{
           {"rounds", kStormRounds},
           {"connections", kStormThreads},
           {"offered", storm_offered},
           {"typed_responses", storm_typed.load()},
           {"requests_per_sec", storm_rps},
           {"child_crashes", storm_health.child_crashes},
           {"respawns", storm_health.respawns},
           {"live_workers", storm_health.live},
           {"all_responses_typed",
            storm_typed.load() == static_cast<std::uint64_t>(storm_offered)},
           {"capacity_restored", storm_health.live == copts.workers},
       }},
  };
  if (benchjson::save(path, root))
    std::printf("\nwrote %s\n", path.c_str());
  else
    std::printf("\nfailed to write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RegisterBenchmark("BM_HotHandleLine", BM_HotHandleLine)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RunSpecifiedBenchmarks();
  const char* path = "BENCH_serve.json";
  if (argc > 1 && argv[1][0] != '-') path = argv[1];
  write_report(path);
  return 0;
}
