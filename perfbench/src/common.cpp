#include "common.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <cstdint>
#include <numeric>

namespace pb {

namespace {
double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}
}  // namespace

CpuTimes cpu_now() {
  rusage self{}, kids{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &kids);
  return {tv_s(self.ru_utime) + tv_s(self.ru_stime),
          tv_s(kids.ru_utime) + tv_s(kids.ru_stime)};
}

double peak_rss_mb() {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostCpu host_cpu() {
  HostCpu h;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return h;
  double v[8] = {};
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (double x : v) h.total += x;
    h.steal = v[7];
  }
  std::fclose(f);
  return h;
}

double steal_share(const HostCpu& a, const HostCpu& b) {
  const double total = b.total - a.total;
  return total > 0 ? (b.steal - a.steal) / total : 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = k == 0 ? 0 : std::min(k - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

namespace {
constexpr double kHistLowUs = 0.1;
constexpr double kHistRatio = 1.005;
const double kHistLogRatio = std::log(kHistRatio);
// 0.1 µs * 1.005^4155 ~ 1e8 µs.
constexpr std::size_t kHistBuckets = 4156;
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kHistBuckets, 0) {}

void LatencyHistogram::add(double us) {
  std::size_t b = 0;
  if (us > kHistLowUs)
    b = std::min(kHistBuckets - 1,
                 static_cast<std::size_t>(std::log(us / kHistLowUs) /
                                          kHistLogRatio));
  ++buckets_[b];
  ++n_;
  sum_ += us;
}

void LatencyHistogram::merge(const LatencyHistogram& o) {
  for (std::size_t b = 0; b < kHistBuckets; ++b) buckets_[b] += o.buckets_[b];
  n_ += o.n_;
  sum_ += o.sum_;
}

void LatencyHistogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0u);
  n_ = 0;
  sum_ = 0.0;
}

double LatencyHistogram::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_))), 1,
      n_);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    const std::uint64_t c = buckets_[b];
    if (below + c >= rank) {
      // Spread the bucket's samples evenly (in log space) across its width.
      const double f = (static_cast<double>(rank - below) - 0.5) /
                       static_cast<double>(c);
      return kHistLowUs * std::exp((static_cast<double>(b) + f) * kHistLogRatio);
    }
    below += c;
  }
  return kHistLowUs * std::exp(static_cast<double>(kHistBuckets) * kHistLogRatio);
}

void Window::set_latency(const LatencyHistogram& h) {
  p50 = h.quantile(0.50);
  p90 = h.quantile(0.90);
  p99 = h.quantile(0.99);
  latencies = h.count();
}

EndToEnd summarize(const std::vector<Window>& slices,
                   const LatencyHistogram& all) {
  EndToEnd e;
  std::vector<Window> windows = slices;
  std::stable_sort(windows.begin(), windows.end(),
                   [](const Window& a, const Window& b) { return a.steal < b.steal; });
  windows.resize((windows.size() + 3) / 4);
  std::vector<double> rate, cpu;
  std::uint64_t fewest = windows.empty() ? 0 : UINT64_MAX;
  for (const Window& w : windows) {
    fewest = std::min(fewest, w.latencies);
    if (w.wall_s > 0) rate.push_back(w.ops / w.wall_s);
    if (w.ops > 0) cpu.push_back(w.cpu_s * 1e6 / w.ops);
  }
  auto q = [&](double p, double Window::*field) {
    if (static_cast<double>(fewest) < 10.0 / (1.0 - p)) return all.quantile(p);
    std::vector<double> per;
    for (const Window& w : windows) per.push_back(w.*field);
    return median(per);
  };
  e.p50 = q(0.50, &Window::p50);
  e.p90 = q(0.90, &Window::p90);
  e.p99 = q(0.99, &Window::p99);
  e.throughput = median(rate);
  e.cpu_us_per_op = median(cpu);
  return e;
}

bool ok_response(const std::string& resp) {
  return resp.compare(0, 10, "{\"ok\":true") == 0;
}

jobs::KernelRequest kernel_request(const serve::Request& rq) {
  jobs::KernelRequest k;
  k.kind = rq.kind;
  k.design = rq.design;
  k.seed = rq.seed;
  k.epsilon = rq.epsilon;
  k.confidence = rq.confidence;
  k.min_pairs = rq.min_pairs;
  k.max_pairs = rq.max_pairs;
  k.max_iters = rq.max_iters;
  return k;
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::printf("# gate FAILED: %s\n", what.c_str());
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineClient::connect_to(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

bool LineClient::roundtrip(const std::string& framed, std::string& resp) {
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
      resp.assign(buf_, 0, nl);
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

void ValueDigest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    h_ ^= (bits >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

std::string ValueDigest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace pb
