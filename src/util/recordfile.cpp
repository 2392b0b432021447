#include "util/recordfile.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/fileio.hpp"
#include "util/hash.hpp"

namespace hlp::util {

void append_frame(std::string& out, std::string_view payload) {
  const std::size_t start = out.size();
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  put_u32le(out, crc32(out.data() + start, out.size() - start));
}

FrameScan scan_frames(std::string_view bytes, std::string_view magic,
                      std::uint32_t max_payload) {
  FrameScan scan;
  if (bytes.size() < magic.size() || bytes.substr(0, magic.size()) != magic)
    return scan;
  const auto* raw = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t off = magic.size();
  while (bytes.size() - off >= kFrameOverheadBytes) {
    const std::uint32_t len = get_u32le(raw + off);
    if (len == 0 || len > max_payload) break;
    const std::size_t body = 4 + static_cast<std::size_t>(len);
    if (body + 4 > bytes.size() - off) break;  // torn tail
    if (crc32(bytes.data() + off, body) != get_u32le(raw + off + body))
      break;  // torn or corrupt: everything after is unframable
    scan.payloads.push_back(bytes.substr(off + 4, len));
    off += body + 4;
  }
  scan.good = off;
  return scan;
}

ReadStatus read_file(const std::string& path, std::string& out) {
  out.clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return ReadStatus::Missing;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  return failed ? ReadStatus::IoError : ReadStatus::Ok;
}

bool replace_file(const std::string& path, std::string_view bytes,
                  std::string& error) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    error = "cannot create " + tmp + ": " + std::strerror(errno);
    return false;
  }
  const bool ok = write_all_fd(fd, bytes.data(), bytes.size()) &&
                  ::fsync(fd) == 0;
  if (!ok) error = "write failed on " + tmp + ": " + std::strerror(errno);
  ::close(fd);
  if (ok && ::rename(tmp.c_str(), path.c_str()) == 0) {
    // Make the rename itself durable; best effort, it has happened.
    const std::size_t slash = path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int dfd = ::open(dir.empty() ? "/" : dir.c_str(),
                           O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
    return true;
  }
  if (ok) error = "rename to " + path + " failed: " + std::strerror(errno);
  ::unlink(tmp.c_str());
  return false;
}

GroupCommitAppender::~GroupCommitAppender() {
  if (fd_ >= 0) ::close(fd_);
}

bool GroupCommitAppender::append(std::string_view bytes,
                                 std::uint64_t records, bool seal) {
  std::unique_lock<std::mutex> lk(mu_);
  if (wedged_) return false;
  pending_.append(bytes);
  pending_records_ += records;
  const std::uint64_t mine = ++enqueued_;
  if (seal) wedged_ = true;
  // Leader-flush: whoever finds the descriptor free takes the whole pending
  // buffer to disk; everyone else sleeps until a leader's durable horizon
  // covers their append or the descriptor is closed.
  while (durable_ < mine && fd_ >= 0) {
    if (flushing_) {
      cv_.wait(lk, [this] { return !flushing_; });
      continue;
    }
    flushing_ = true;
    std::string buf;
    buf.swap(pending_);
    const std::uint64_t upto = enqueued_;
    const std::uint64_t recs = std::exchange(pending_records_, 0);
    const bool last = wedged_;  // the sealing bytes are in this batch
    const int fd = fd_;
    lk.unlock();
    const bool ok =
        write_all_fd(fd, buf.data(), buf.size()) && ::fsync(fd) == 0;
    lk.lock();
    flushing_ = false;
    if (ok) {
      durable_ = upto;
      records_ += recs;
      ++flushes_;
    }
    if (!ok || last) {
      ::close(fd_);
      fd_ = -1;
      wedged_ = true;
    }
    cv_.notify_all();
  }
  return durable_ >= mine;
}

}  // namespace hlp::util
