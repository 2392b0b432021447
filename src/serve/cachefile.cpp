#include "serve/cachefile.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/fi.hpp"
#include "util/fileio.hpp"

namespace hlp::serve {

namespace {

constexpr std::string_view kMagic = "HLPCACH2";
/// Sanity cap per field: keys and values both derive from wire lines, which
/// are capped at 64 KiB, so anything larger is corruption, not data.
constexpr std::uint32_t kMaxFieldBytes = 1u << 20;
constexpr std::uint32_t kMaxPayloadBytes = 4 + 2 * kMaxFieldBytes;

struct Rec {
  std::string_view payload, key, value;
};

}  // namespace

CacheSegmentFile::CacheSegmentFile(std::string path) : path_(std::move(path)) {}

void CacheSegmentFile::load(const LoadCallback& cb) {
  std::string data;
  util::read_file(path_, data);  // missing or unreadable: starts fresh below
  const util::FrameScan scan =
      util::scan_frames(data, kMagic, kMaxPayloadBytes);
  std::size_t good = scan.good;
  std::vector<Rec> recs;
  for (std::string_view p : scan.payloads) {
    const auto* raw = reinterpret_cast<const unsigned char*>(p.data());
    const std::uint32_t klen = p.size() < 4 ? 0 : util::get_u32le(raw);
    if (klen == 0 || klen > p.size() - 4) {
      // Sound framing, but a record no writer produces: cut it as torn.
      good = static_cast<std::size_t>(p.data() - data.data()) - 4;
      break;
    }
    recs.push_back({p, p.substr(4, klen), p.substr(4 + klen)});
  }
  loaded_.torn_bytes = static_cast<std::uint64_t>(data.size() - good);

  // Replay last-write-wins, preserving first-append order for the live set
  // (the cache's LRU seeds in write order, oldest first).
  std::unordered_map<std::string_view, std::size_t> last;
  for (std::size_t i = 0; i < recs.size(); ++i) last[recs[i].key] = i;
  std::uint64_t live_bytes = 0;
  std::uint64_t waste_bytes = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = recs[i];
    const std::uint64_t frame_bytes =
        r.payload.size() + util::kFrameOverheadBytes;
    if (last[r.key] != i) {
      ++loaded_.superseded;
      waste_bytes += frame_bytes;
      continue;
    }
    ++loaded_.loaded;
    live_bytes += frame_bytes;
    cb(std::string(r.key), std::string(r.value));
  }

  // Compact when superseded copies outweigh live data. A crash anywhere
  // leaves either the old file (with its recoverable tail) or the complete
  // new one; a failed compaction keeps appending to the old file.
  bool compacted = false;
  if (waste_bytes > live_bytes && waste_bytes > 4096) {
    std::string image(kMagic);
    for (std::size_t i = 0; i < recs.size(); ++i)
      if (last[recs[i].key] == i) util::append_frame(image, recs[i].payload);
    std::string error;
    compacted = util::replace_file(path_, image, error);
    loaded_.compactions += compacted ? 1 : 0;
  }
  // A missing, empty or unrecognizable header starts a fresh segment. A
  // torn tail that cannot be cut wedges the segment (fd -1): appending
  // after it would be unframable.
  const bool fresh = !compacted && good < kMagic.size();
  const int flags = O_WRONLY | O_APPEND | O_CLOEXEC;
  int fd = -1;
  if (fresh) {
    fd = ::open(path_.c_str(), flags | O_CREAT | O_TRUNC, 0644);
  } else if (compacted || good == data.size() ||
             ::truncate(path_.c_str(), static_cast<off_t>(good)) == 0) {
    fd = ::open(path_.c_str(), flags);
  }
  log_ = std::make_unique<util::GroupCommitAppender>(fd);
  if (fresh) log_->append(kMagic, 0);
}

void CacheSegmentFile::append(std::string_view key, std::string_view value) {
  if (!log_ || log_->wedged() || key.empty() || key.size() > kMaxFieldBytes ||
      value.size() > kMaxFieldBytes)
    return;
  std::string payload;
  util::put_u32le(payload, static_cast<std::uint32_t>(key.size()));
  payload.append(key);
  payload.append(value);
  std::string rec;
  util::append_frame(rec, payload);

  std::uint64_t cut = 0;
  if (fi::serve_fault_checkpoint(fi::ServeFault::CacheTornWrite, &cut)) {
    // Injected crash mid-write: a prefix of the frame is the last thing
    // persisted, behind every record already enqueued — what dying inside
    // write() leaves behind. The next load() must truncate this tail.
    if (cut == 0 || cut >= rec.size()) cut = rec.size() / 2;
    log_->append(std::string_view(rec).substr(0, cut), 0, /*seal=*/true);
    return;
  }
  log_->append(rec, 1);
}

SegmentStats CacheSegmentFile::stats() const {
  SegmentStats s = loaded_;
  if (log_) {
    s.appends = log_->records_committed();
    s.flush_batches = log_->flush_batches();
    s.wedged = log_->wedged();
  }
  return s;
}

}  // namespace hlp::serve
