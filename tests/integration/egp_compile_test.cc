// End-to-end test of the parse -> compile -> serve workflow through the
// real binaries: egp_compile turns the shipped sample .nt into an .egps
// snapshot, and the egp CLI must produce byte-identical previews from
// either representation.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "tests/testing/subprocess.h"

namespace egp {
namespace {

#ifndef EGP_COMPILE_PATH
#error "EGP_COMPILE_PATH must be defined by the build"
#endif
#ifndef EGP_CLI_PATH
#error "EGP_CLI_PATH must be defined by the build"
#endif
#ifndef EGP_SAMPLE_NT
#error "EGP_SAMPLE_NT must be defined by the build"
#endif
#ifndef EGP_SAMPLE_V1_EGPS
#error "EGP_SAMPLE_V1_EGPS must be defined by the build"
#endif

using testing_util::RunCommand;
using testing_util::Slurp;
using testing_util::TempPath;

TEST(EgpCompileTest, CompileThenPreviewIsByteIdentical) {
  const std::string snapshot = TempPath("compiled_sample.egps");
  const std::string compile_out = TempPath("compile_out.txt");
  ASSERT_EQ(RunCommand(std::string(EGP_COMPILE_PATH) + " " + EGP_SAMPLE_NT +
                           " " + snapshot + " --verify",
                       compile_out),
            0)
      << Slurp(compile_out);
  EXPECT_NE(Slurp(compile_out).find("compiled"), std::string::npos);

  const std::string flags =
      " --k 2 --n 4 --rows 3 --seed 9 --key randomwalk --nonkey entropy";
  const std::string nt_out = TempPath("preview_nt.txt");
  const std::string egps_out = TempPath("preview_egps.txt");
  ASSERT_EQ(RunCommand(std::string(EGP_CLI_PATH) + " preview " +
                           EGP_SAMPLE_NT + flags,
                       nt_out),
            0);
  ASSERT_EQ(RunCommand(std::string(EGP_CLI_PATH) + " preview " + snapshot +
                           flags,
                       egps_out),
            0);
  const std::string from_nt = Slurp(nt_out);
  ASSERT_FALSE(from_nt.empty());
  EXPECT_EQ(from_nt, Slurp(egps_out))
      << "previews from .nt and .egps diverge";

  // stats opens the snapshot too (auto-detected by magic).
  const std::string stats_out = TempPath("stats_egps.txt");
  ASSERT_EQ(RunCommand(std::string(EGP_CLI_PATH) + " stats " + snapshot,
                       stats_out),
            0);
  EXPECT_NE(Slurp(stats_out).find("20 entities"), std::string::npos);

  std::remove(snapshot.c_str());
}

TEST(EgpCompileTest, UpgradesAVersionOneSnapshot) {
  // sample_v1.egps is data/sample.nt compiled by the version-1 writer.
  // Recompiling it writes the exact bytes of a fresh compile of the text.
  const std::string fresh = TempPath("fresh_sample.egps");
  const std::string upgraded = TempPath("upgraded_sample.egps");
  const std::string out = TempPath("upgrade_out.txt");
  ASSERT_EQ(RunCommand(std::string(EGP_COMPILE_PATH) + " " + EGP_SAMPLE_NT +
                           " " + fresh,
                       out),
            0)
      << Slurp(out);
  ASSERT_EQ(RunCommand(std::string(EGP_COMPILE_PATH) + " " +
                           EGP_SAMPLE_V1_EGPS + " " + upgraded + " --verify",
                       out),
            0)
      << Slurp(out);
  const std::string bytes = Slurp(upgraded);
  ASSERT_GT(bytes.size(), 12u);
  EXPECT_EQ(bytes[8], 2) << "upgraded file is not version 2";
  EXPECT_EQ(bytes, Slurp(fresh));
  EXPECT_LT(bytes.size(), Slurp(EGP_SAMPLE_V1_EGPS).size());
  std::remove(fresh.c_str());
  std::remove(upgraded.c_str());
}

TEST(EgpCompileTest, ConvertDispatchesOnOutputExtension) {
  // `egp convert x.nt out.egps` must write a real snapshot, not EGT
  // text under a snapshot name (which every loader would then reject).
  const std::string snapshot = TempPath("converted.egps");
  const std::string out = TempPath("convert_out.txt");
  ASSERT_EQ(RunCommand(std::string(EGP_CLI_PATH) + " convert " +
                           EGP_SAMPLE_NT + " " + snapshot,
                       out),
            0)
      << Slurp(out);
  ASSERT_EQ(RunCommand(std::string(EGP_CLI_PATH) + " stats " + snapshot,
                       out),
            0)
      << Slurp(out);
  EXPECT_NE(Slurp(out).find("20 entities"), std::string::npos);
  std::remove(snapshot.c_str());
}

TEST(EgpCompileTest, InPlaceRecompileIsSafe) {
  // Recompiling a snapshot onto itself must not corrupt it (the input
  // is loaded to the heap, never written through a live mapping).
  const std::string snapshot = TempPath("inplace.egps");
  const std::string out = TempPath("inplace_out.txt");
  ASSERT_EQ(RunCommand(std::string(EGP_COMPILE_PATH) + " " + EGP_SAMPLE_NT +
                           " " + snapshot,
                       out),
            0);
  ASSERT_EQ(RunCommand(std::string(EGP_COMPILE_PATH) + " " + snapshot +
                           " " + snapshot + " --verify",
                       out),
            0)
      << Slurp(out);
  EXPECT_EQ(RunCommand(std::string(EGP_CLI_PATH) + " stats " + snapshot,
                       out),
            0);
  EXPECT_NE(Slurp(out).find("20 entities"), std::string::npos);
  std::remove(snapshot.c_str());
}

TEST(EgpCompileTest, UsageAndRuntimeErrors) {
  const std::string out = TempPath("compile_err.txt");
  // Missing arguments: usage error, exit 2.
  EXPECT_EQ(RunCommand(std::string(EGP_COMPILE_PATH), out), 2);
  EXPECT_EQ(RunCommand(std::string(EGP_COMPILE_PATH) + " a b c", out), 2);
  // Unreadable input: runtime failure, exit 1.
  EXPECT_EQ(RunCommand(std::string(EGP_COMPILE_PATH) +
                           " /no/such/file.nt " + TempPath("x.egps"),
                       out),
            1);
}

TEST(EgpCompileTest, CorruptSnapshotFailsCleanlyInCli) {
  // A truncated snapshot must produce a clean error (exit 1), never a
  // crash, through the whole loading stack.
  const std::string snapshot = TempPath("to_truncate.egps");
  const std::string out = TempPath("truncate_out.txt");
  ASSERT_EQ(RunCommand(std::string(EGP_COMPILE_PATH) + " " + EGP_SAMPLE_NT +
                           " " + snapshot,
                       out),
            0);
  const std::string bytes = Slurp(snapshot);
  ASSERT_GT(bytes.size(), 100u);
  {
    std::ofstream truncated(snapshot,
                            std::ios::binary | std::ios::trunc);
    truncated.write(bytes.data(),
                    static_cast<std::streamsize>(bytes.size() / 3));
  }
  EXPECT_EQ(RunCommand(std::string(EGP_CLI_PATH) + " stats " + snapshot,
                       out),
            1);
  std::remove(snapshot.c_str());
}

}  // namespace
}  // namespace egp
