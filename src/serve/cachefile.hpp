#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "util/recordfile.hpp"

namespace hlp::serve {

/// Point-in-time segment-file counters. `appends` and `flush_batches` grow
/// as records become durable; the rest are set once by load().
struct SegmentStats {
  std::uint64_t loaded = 0;      ///< live records handed to the load callback
  std::uint64_t superseded = 0;  ///< duplicate-key records dropped at load
  std::uint64_t appends = 0;     ///< records made durable since load
  std::uint64_t flush_batches = 0;  ///< write + fsync batches since load
  std::uint64_t torn_bytes = 0;  ///< trailing bytes truncated by recovery
  std::uint64_t compactions = 0;
  bool wedged = false;  ///< persistence stopped (I/O error or injected fault)
};

/// Append-only, fsync'd, CRC-framed spill file for the serve result cache,
/// in the util/recordfile format (DESIGN.md §9):
///
///   file    := magic "HLPCACH2" frame*
///   frame   := len:u32le payload[len] crc:u32le
///   payload := klen:u32le key[klen] value
///
/// Appends are group-committed (util::GroupCommitAppender): acknowledged
/// only once written and fsync'd, so after a crash the file is a valid
/// prefix plus at most one torn record. load() truncates the file at the
/// first bad frame and replays the survivors last-write-wins; when
/// superseded duplicates outweigh live data it compacts the file. A file in
/// any other format (such as the older "HLPCACH1") starts a fresh segment.
///
/// Thread-safe for concurrent append(); load() must complete first (the
/// service calls it from its constructor).
class CacheSegmentFile {
 public:
  using LoadCallback = std::function<void(std::string&&, std::string&&)>;

  explicit CacheSegmentFile(std::string path);

  CacheSegmentFile(const CacheSegmentFile&) = delete;
  CacheSegmentFile& operator=(const CacheSegmentFile&) = delete;

  /// Scan + recover + replay as described above, invoking `cb` once per
  /// live record in append order, then open the file for appending. A
  /// missing or unrecognizable file starts a fresh segment. Never throws on
  /// I/O failure — persistence is best-effort by design; `stats().wedged`
  /// records that it stopped.
  void load(const LoadCallback& cb);

  /// Durably append one record. Does nothing once wedged or before load().
  void append(std::string_view key, std::string_view value);

  SegmentStats stats() const;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  SegmentStats loaded_;  ///< load()'s counters
  std::unique_ptr<util::GroupCommitAppender> log_;  ///< created by load()
};

}  // namespace hlp::serve
