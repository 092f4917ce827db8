// Crash-safety of the snapshot writer under injected write-path faults:
// ENOSPC mid-write, fsync failure, open failure, and a failed rename
// must each return a Status, remove the temp file, and leave a
// previously committed .egps byte-for-byte intact. Injected short
// writes are absorbed by the FdSink loop and corrupt nothing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fault.h"
#include "datagen/paper_example.h"
#include "store/snapshot_writer.h"
#include "tests/testing/subprocess.h"

namespace egp {
namespace {

using testing_util::Slurp;
using testing_util::TempPath;

class SnapshotCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = BuildPaperExampleGraph();
    dir_ = TempPath("snapshot_crash");
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(std::filesystem::create_directory(dir_));
    path_ = dir_ + "/graph.egps";
    ASSERT_TRUE(WriteSnapshotFile(graph_, path_).ok());
    golden_ = Slurp(path_);
    ASSERT_FALSE(golden_.empty());
  }

  void TearDown() override {
    ClearFaults();
    std::filesystem::remove_all(dir_);
  }

  /// Files in the snapshot directory besides the committed .egps.
  std::vector<std::string> StrayFiles() const {
    std::vector<std::string> strays;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().string() != path_) {
        strays.push_back(entry.path().filename().string());
      }
    }
    return strays;
  }

  /// One faulted overwrite attempt: must fail, clean its temp file, and
  /// leave the committed snapshot untouched.
  void ExpectFailedRewriteLeavesSnapshotIntact(const char* schedule) {
    SCOPED_TRACE(schedule);
    ASSERT_TRUE(ConfigureFaults(schedule).ok());
    const Status write = WriteSnapshotFile(graph_, path_);
    ClearFaults();
    EXPECT_FALSE(write.ok()) << "schedule should have failed the write";
    EXPECT_TRUE(StrayFiles().empty())
        << "temp file left behind: " << StrayFiles()[0];
    EXPECT_EQ(Slurp(path_), golden_) << "committed snapshot was disturbed";
  }

  EntityGraph graph_;
  std::string dir_;
  std::string path_;
  std::string golden_;
};

TEST_F(SnapshotCrashTest, EnospcMidWriteCleansUp) {
  ExpectFailedRewriteLeavesSnapshotIntact("store.write=err:ENOSPC@2");
}

TEST_F(SnapshotCrashTest, EnospcOnFirstWriteCleansUp) {
  ExpectFailedRewriteLeavesSnapshotIntact("store.write=err:ENOSPC@1");
}

TEST_F(SnapshotCrashTest, FsyncFailureCleansUp) {
  ExpectFailedRewriteLeavesSnapshotIntact("store.fsync=err:ENOSPC@1");
}

TEST_F(SnapshotCrashTest, OpenFailureLeavesSnapshotIntact) {
  ExpectFailedRewriteLeavesSnapshotIntact("store.open=err:EMFILE@1");
}

TEST_F(SnapshotCrashTest, RenameFailureCleansUp) {
  ExpectFailedRewriteLeavesSnapshotIntact("store.rename=err:EIO@1");
}

TEST_F(SnapshotCrashTest, ShortWritesAreAbsorbedNotCorrupting) {
  // Every second write is clamped to 3 bytes; the FdSink retry loop
  // must still deliver every byte, in order.
  ASSERT_TRUE(ConfigureFaults("store.write=short:3@every:2").ok());
  const std::string rewritten = dir_ + "/rewritten.egps";
  const Status write = WriteSnapshotFile(graph_, rewritten);
  ClearFaults();
  ASSERT_TRUE(write.ok()) << write.ToString();
  EXPECT_EQ(Slurp(rewritten), golden_);
}

TEST_F(SnapshotCrashTest, RecoveryAfterTheFaultClears) {
  ASSERT_TRUE(ConfigureFaults("store.fsync=err:ENOSPC").ok());
  EXPECT_FALSE(WriteSnapshotFile(graph_, path_).ok());
  ClearFaults();
  // Same writer, same destination, no fault: the rewrite commits.
  EXPECT_TRUE(WriteSnapshotFile(graph_, path_).ok());
  EXPECT_EQ(Slurp(path_), golden_);
  EXPECT_TRUE(StrayFiles().empty());
}

}  // namespace
}  // namespace egp
