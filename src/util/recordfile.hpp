#pragma once

// The one durable record-file implementation, shared by the serve cache
// segment, the macromodel artifact and the jobs ledger (DESIGN.md §8, §9,
// §12). POSIX only. Framed files are
//
//   file  := magic frame*
//   frame := len:u32le payload[len] crc:u32le   (CRC-32 over len + payload)
//
// A crash leaves a valid prefix plus a torn tail, so a scan verifies frames
// in order and stops at the first unframable byte.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hlp::util {

/// Frame bytes around a payload: the length prefix plus the CRC trailer.
inline constexpr std::size_t kFrameOverheadBytes = 8;

void append_frame(std::string& out, std::string_view payload);

struct FrameScan {
  std::vector<std::string_view> payloads;  ///< verified, in file order
  /// Valid prefix length (magic + whole frames); 0 when the magic does not
  /// match. The torn tail is the rest of the bytes.
  std::size_t good = 0;
};

/// Views point into `bytes`. A frame that is short, empty, longer than
/// `max_payload` or fails its CRC ends the scan.
FrameScan scan_frames(std::string_view bytes, std::string_view magic,
                      std::uint32_t max_payload);

/// Missing: the file cannot be opened (errno says why); IoError: a read
/// failed.
enum class ReadStatus : std::uint8_t { Ok, Missing, IoError };
ReadStatus read_file(const std::string& path, std::string& out);

/// Write `path + ".tmp"`, fsync it, rename it over `path`, fsync the parent
/// directory: a crash leaves the old file or the complete new one. On
/// failure returns false with `error` set and `path` untouched.
bool replace_file(const std::string& path, std::string_view bytes,
                  std::string& error);

/// Durable append-only writer on an owned descriptor, with group commit:
/// an append returns only once its bytes are written and fsync'd, and when
/// several threads append at once the first becomes the flush leader and
/// takes everything enqueued so far to disk with one write + fsync while
/// the others wait for their bytes' durable horizon.
///
/// A failed write or fsync fails the whole batch (its appends return
/// false), closes the descriptor and wedges the appender: nothing is
/// acknowledged that is not known to be on disk. Thread-safe.
class GroupCommitAppender {
 public:
  /// A negative fd yields a wedged appender.
  explicit GroupCommitAppender(int fd = -1) : fd_(fd), wedged_(fd < 0) {}
  ~GroupCommitAppender();
  GroupCommitAppender(const GroupCommitAppender&) = delete;
  GroupCommitAppender& operator=(const GroupCommitAppender&) = delete;

  /// Durably append `bytes` holding `records` records. With `seal`, the
  /// bytes are the last this appender ever writes (behind everything
  /// already enqueued), after which it wedges. False if wedged first.
  bool append(std::string_view bytes, std::uint64_t records,
              bool seal = false);

  bool wedged() const { return wedged_; }
  std::uint64_t records_committed() const { return records_; }
  /// Write + fsync batches issued.
  std::uint64_t flush_batches() const { return flushes_; }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int fd_;
  std::string pending_;  ///< enqueued bytes awaiting a leader
  std::uint64_t pending_records_ = 0;
  std::uint64_t enqueued_ = 0;  ///< appends ever enqueued
  std::uint64_t durable_ = 0;   ///< appends known on disk
  bool flushing_ = false;       ///< a leader owns the descriptor
  std::atomic<bool> wedged_;    ///< failed, closed, or final bytes enqueued
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> flushes_{0};
};

}  // namespace hlp::util
