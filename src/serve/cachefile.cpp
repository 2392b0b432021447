#include "serve/cachefile.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/fi.hpp"
#include "util/fileio.hpp"
#include "util/hash.hpp"

namespace hlp::serve {

using util::fsync_parent_dir;
using util::get_u32le;
using util::put_u32le;
using util::write_all_fd;

namespace {

constexpr char kMagic[8] = {'H', 'L', 'P', 'C', 'A', 'C', 'H', '1'};
constexpr std::size_t kFrameHeaderBytes = 8;  // klen + vlen
constexpr std::size_t kFrameCrcBytes = 4;
/// Sanity cap per field: keys and values both derive from wire lines, which
/// are capped at 64 KiB, so anything larger is corruption, not data.
constexpr std::uint32_t kMaxFieldBytes = 1u << 20;

/// One record's frame: lengths + payloads + CRC over all of the former.
void frame_record(std::string& out, std::string_view key,
                  std::string_view value) {
  const std::size_t frame_start = out.size();
  put_u32le(out, static_cast<std::uint32_t>(key.size()));
  put_u32le(out, static_cast<std::uint32_t>(value.size()));
  out.append(key);
  out.append(value);
  const std::uint32_t crc =
      util::crc32(out.data() + frame_start, out.size() - frame_start);
  put_u32le(out, crc);
}

}  // namespace

CacheSegmentFile::CacheSegmentFile(std::string path) : path_(std::move(path)) {}

CacheSegmentFile::~CacheSegmentFile() {
  if (fd_ >= 0) ::close(fd_);
}

void CacheSegmentFile::open_fresh() {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    stats_.wedged = true;
    return;
  }
  if (!write_all_fd(fd_, kMagic, sizeof(kMagic))) {
    stats_.wedged = true;
    return;
  }
  ::fsync(fd_);
}

void CacheSegmentFile::load(const LoadCallback& cb) {
  std::lock_guard<std::mutex> lock(mu_);

  std::string data;
  if (FILE* f = std::fopen(path_.c_str(), "rb")) {
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
    std::fclose(f);
  }

  struct Rec {
    std::size_t key_off, val_off;
    std::uint32_t key_len, val_len;
    std::size_t frame_bytes;
  };
  std::vector<Rec> recs;
  std::size_t good = 0;
  if (data.size() >= sizeof(kMagic) &&
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) == 0) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
    std::size_t off = sizeof(kMagic);
    good = off;
    while (data.size() - off >= kFrameHeaderBytes + kFrameCrcBytes) {
      const std::uint32_t klen = get_u32le(bytes + off);
      const std::uint32_t vlen = get_u32le(bytes + off + 4);
      if (klen == 0 || klen > kMaxFieldBytes || vlen > kMaxFieldBytes) break;
      const std::size_t payload = kFrameHeaderBytes +
                                  static_cast<std::size_t>(klen) + vlen;
      if (payload + kFrameCrcBytes > data.size() - off) break;  // torn tail
      if (util::crc32(data.data() + off, payload) !=
          get_u32le(bytes + off + payload))
        break;  // torn or corrupt frame: everything after is unframable
      recs.push_back({off + kFrameHeaderBytes,
                      off + kFrameHeaderBytes + klen, klen, vlen,
                      payload + kFrameCrcBytes});
      off += payload + kFrameCrcBytes;
      good = off;
    }
  }
  stats_.torn_bytes = static_cast<std::uint64_t>(data.size() - good);

  // Replay last-write-wins, preserving first-append order for the live set
  // (the cache's LRU seeds in write order, oldest first).
  std::unordered_map<std::string_view, std::size_t> last;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    last[std::string_view(data.data() + recs[i].key_off, recs[i].key_len)] = i;
  }
  std::uint64_t live_bytes = 0;
  std::uint64_t waste_bytes = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = recs[i];
    std::string_view key(data.data() + r.key_off, r.key_len);
    if (last[key] != i) {
      ++stats_.superseded;
      waste_bytes += r.frame_bytes;
      continue;
    }
    ++stats_.loaded;
    live_bytes += r.frame_bytes;
    cb(std::string(key),
       std::string(data.data() + r.val_off, r.val_len));
  }

  const bool torn = good < data.size();
  if (waste_bytes > live_bytes && waste_bytes > 4096) {
    // Compact: rewrite the live set to a temp segment, fsync, rename over
    // the old file. A crash anywhere leaves either the old file (with its
    // recoverable tail) or the complete new one — never a mix.
    std::string out(kMagic, sizeof(kMagic));
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const Rec& r = recs[i];
      std::string_view key(data.data() + r.key_off, r.key_len);
      if (last[key] != i) continue;
      frame_record(out, key,
                   std::string_view(data.data() + r.val_off, r.val_len));
    }
    const std::string tmp = path_ + ".compact";
    const int tfd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (tfd >= 0 && write_all_fd(tfd, out.data(), out.size())) {
      ::fsync(tfd);
      ::close(tfd);
      if (::rename(tmp.c_str(), path_.c_str()) == 0) {
        fsync_parent_dir(path_);
        ++stats_.compactions;
        fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
        if (fd_ < 0) stats_.wedged = true;
        return;
      }
    }
    if (tfd >= 0) ::close(tfd);
    // Compaction failed; fall through and keep appending to the old file.
  }

  if (good < sizeof(kMagic)) {
    // Missing, empty, or unrecognizable header: start a fresh segment.
    open_fresh();
    return;
  }
  if (torn && ::truncate(path_.c_str(), static_cast<off_t>(good)) != 0) {
    // Could not cut the torn tail; appending after it would be unframable.
    stats_.wedged = true;
    return;
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) stats_.wedged = true;
}

void CacheSegmentFile::append(std::string_view key, std::string_view value) {
  if (key.empty() || key.size() > kMaxFieldBytes ||
      value.size() > kMaxFieldBytes)
    return;
  std::string rec;
  rec.reserve(kFrameHeaderBytes + key.size() + value.size() + kFrameCrcBytes);
  frame_record(rec, key, value);

  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0 || stats_.wedged) return;
  std::uint64_t cut = 0;
  if (fi::serve_fault_checkpoint(fi::ServeFault::CacheTornWrite, &cut)) {
    // Injected crash mid-write: persist only a prefix of the frame and stop
    // persisting, exactly what dying between write() and completion leaves
    // behind. The next load() must truncate this tail.
    if (cut == 0 || cut >= rec.size()) cut = rec.size() / 2;
    write_all_fd(fd_, rec.data(), static_cast<std::size_t>(cut));
    ::fsync(fd_);
    stats_.wedged = true;
    return;
  }
  if (!write_all_fd(fd_, rec.data(), rec.size())) {
    stats_.wedged = true;
    return;
  }
  ::fsync(fd_);
  ++stats_.appends;
}

SegmentStats CacheSegmentFile::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace hlp::serve
