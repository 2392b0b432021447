#pragma once

// Byte-level helpers shared by the durable record files (the serve result
// cache segment, the macromodel artifact) and the sandbox's pipe frames:
// little-endian u32 framing, a short-write/EINTR-safe write loop, and the
// directory fsync that makes a rename durable. POSIX only.

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <string>

namespace hlp::util {

inline void put_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

inline std::uint32_t get_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Write all `n` bytes to `fd`, retrying short writes and EINTR. Returns
/// false on any other error.
inline bool write_all_fd(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Best-effort fsync of the directory holding `path`, so a rename into
/// place survives a crash of the metadata journal too.
inline void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.empty() ? "/" : dir.c_str(),
                         O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace hlp::util
