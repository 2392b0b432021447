// The shared durable record-file module (util/recordfile): the CRC frame
// scanner's torn-tail cut, the atomic replace's failure path, and the
// group-commit appender's refusal to acknowledge what is not on disk.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/recordfile.hpp"

namespace {

using namespace hlp;

constexpr std::string_view kMagic = "TESTMAG1";

std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "hlp_recordfile_" + tag + "_" +
         std::to_string(::getpid());
}

TEST(RecordFile, ScanStopsAtEveryCut) {
  const std::vector<std::string> payloads = {"a", "second-record",
                                             std::string(300, 'z')};
  std::string file(kMagic);
  std::vector<std::size_t> ends;  // offset just past each whole frame
  for (const std::string& p : payloads) {
    util::append_frame(file, p);
    ends.push_back(file.size());
  }
  ASSERT_EQ(ends.back(), kMagic.size() + 3 * util::kFrameOverheadBytes +
                             1 + 13 + 300);

  for (std::size_t cut = 0; cut <= file.size(); ++cut) {
    const std::string_view prefix = std::string_view(file).substr(0, cut);
    const util::FrameScan scan = util::scan_frames(prefix, kMagic, 1024);
    std::size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= cut) ++whole;
    const std::size_t good =
        cut < kMagic.size() ? 0 : whole == 0 ? kMagic.size() : ends[whole - 1];
    ASSERT_EQ(scan.payloads.size(), whole) << "cut at " << cut;
    EXPECT_EQ(scan.good, good) << "cut at " << cut;
    EXPECT_EQ(prefix.size() - scan.good, cut - good)
        << "the rest of the cut file is torn";
    for (std::size_t i = 0; i < whole; ++i)
      EXPECT_EQ(scan.payloads[i], payloads[i]) << "cut at " << cut;
  }

  // A flipped bit in the middle frame keeps only the first.
  std::string flipped = file;
  flipped[ends[0] + 6] ^= 0x01;
  const util::FrameScan bad = util::scan_frames(flipped, kMagic, 1024);
  EXPECT_EQ(bad.payloads.size(), 1u);
  EXPECT_EQ(bad.good, ends[0]);
  // A frame longer than the cap is unframable even with a sound CRC.
  EXPECT_EQ(util::scan_frames(file, kMagic, 100).payloads.size(), 2u);
}

TEST(RecordFile, FailedReplaceKeepsTheOriginal) {
  const std::string dir = temp_path("ro_dir");
  const std::string path = dir + "/file.bin";
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  std::string error;
  ASSERT_TRUE(util::replace_file(path, "original bytes", error)) << error;
  // Root ignores directory permissions, so the temp name is also occupied
  // by a directory: either way the temp file cannot be created.
  ASSERT_EQ(::mkdir((path + ".tmp").c_str(), 0755), 0);
  ASSERT_EQ(::chmod(dir.c_str(), 0555), 0);

  error.clear();
  EXPECT_FALSE(util::replace_file(path, "replacement", error));
  EXPECT_FALSE(error.empty());
  std::string back;
  ASSERT_EQ(util::read_file(path, back), util::ReadStatus::Ok);
  EXPECT_EQ(back, "original bytes") << "a failed replace must not touch it";

  ::chmod(dir.c_str(), 0755);
  ::rmdir((path + ".tmp").c_str());
  ::unlink(path.c_str());
  ::rmdir(dir.c_str());
  EXPECT_EQ(util::read_file(path, back), util::ReadStatus::Missing);
}

TEST(RecordFile, FailedFsyncIsNotAcknowledged) {
  // A pipe accepts the write but fsync fails on it (EINVAL): the batch must
  // fail exactly like a failed write, and the appender must wedge.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  util::GroupCommitAppender log(fds[1]);
  EXPECT_FALSE(log.wedged());
  EXPECT_FALSE(log.append("record\n", 1));
  EXPECT_TRUE(log.wedged());
  EXPECT_EQ(log.records_committed(), 0u);
  EXPECT_FALSE(log.append("later\n", 1)) << "a wedged appender refuses";
  ::close(fds[0]);
}

TEST(RecordFile, ConcurrentAppendsShareFlushesAndFinalIsLast) {
  const std::string path = temp_path("appender");
  std::string expected_tail = "FINAL";
  {
    util::GroupCommitAppender log(::open(
        path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644));
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&log, t] {
        for (int i = 0; i < 25; ++i) {
          EXPECT_TRUE(log.append(std::to_string(t) + "\n", 1));
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(log.records_committed(), 100u);
    EXPECT_LE(log.flush_batches(), 100u);
    log.append(expected_tail, 0, /*seal=*/true);
    EXPECT_TRUE(log.wedged());
    EXPECT_FALSE(log.append("after\n", 1)) << "nothing follows the final bytes";
    EXPECT_EQ(log.records_committed(), 100u);
  }
  std::string back;
  ASSERT_EQ(util::read_file(path, back), util::ReadStatus::Ok);
  EXPECT_EQ(back.size(), 200u + expected_tail.size());
  EXPECT_EQ(back.substr(200), expected_tail);
  ::unlink(path.c_str());
}

}  // namespace
