// End-to-end tests of the `egp` command-line tool: each subcommand is
// exercised against the shipped sample dataset through a real process.
#include <gtest/gtest.h>

#include <string>

#include "tests/testing/subprocess.h"

namespace egp {
namespace {

#ifndef EGP_CLI_PATH
#error "EGP_CLI_PATH must be defined by the build"
#endif
#ifndef EGP_SAMPLE_NT
#error "EGP_SAMPLE_NT must be defined by the build"
#endif

using testing_util::Slurp;
using testing_util::TempPath;

/// Runs the CLI, capturing stdout into a file; returns the exit code
/// (128 + signal for a crash).
int RunCli(const std::string& args, const std::string& stdout_path) {
  return testing_util::RunCommand(std::string(EGP_CLI_PATH) + " " + args,
                                  stdout_path);
}

TEST(CliTest, StatsSubcommand) {
  const std::string out = TempPath("cli_stats.txt");
  ASSERT_EQ(RunCli(std::string("stats ") + EGP_SAMPLE_NT, out), 0);
  const std::string text = Slurp(out);
  EXPECT_NE(text.find("entity graph : 20 entities, 22 relationships"),
            std::string::npos);
  EXPECT_NE(text.find("5 entity types"), std::string::npos);
}

TEST(CliTest, PreviewSubcommand) {
  const std::string out = TempPath("cli_preview.txt");
  ASSERT_EQ(
      RunCli(std::string("preview ") + EGP_SAMPLE_NT + " --k 2 --n 5", out),
      0);
  const std::string text = Slurp(out);
  EXPECT_NE(text.find("RESEARCHER"), std::string::npos);
  EXPECT_NE(text.find("score"), std::string::npos);
  EXPECT_NE(text.find("+"), std::string::npos);  // rendered table borders
}

TEST(CliTest, PreviewJsonOutput) {
  const std::string out = TempPath("cli_preview.json");
  ASSERT_EQ(RunCli(std::string("preview ") + EGP_SAMPLE_NT +
                       " --k 2 --n 4 --json",
                   out),
            0);
  const std::string text = Slurp(out);
  EXPECT_EQ(text.rfind("{\"tables\":[", 0), 0u);
  EXPECT_NE(text.find("\"rows\":["), std::string::npos);
}

TEST(CliTest, SuggestSubcommand) {
  const std::string out = TempPath("cli_suggest.txt");
  ASSERT_EQ(RunCli(std::string("suggest ") + EGP_SAMPLE_NT +
                       " --width 80 --height 24",
                   out),
            0);
  const std::string text = Slurp(out);
  EXPECT_NE(text.find("suggested: k="), std::string::npos);
  EXPECT_NE(text.find("rationale:"), std::string::npos);
}

TEST(CliTest, ReportSubcommand) {
  const std::string out = TempPath("cli_report.md");
  ASSERT_EQ(
      RunCli(std::string("report ") + EGP_SAMPLE_NT + " --k 2 --n 5", out),
      0);
  const std::string text = Slurp(out);
  EXPECT_NE(text.find("## Dataset statistics"), std::string::npos);
  EXPECT_NE(text.find("| **RESEARCHER** |"), std::string::npos);
}

TEST(CliTest, ConvertRoundTrip) {
  const std::string egt = TempPath("cli_convert.egt");
  const std::string out = TempPath("cli_convert.txt");
  ASSERT_EQ(RunCli(std::string("convert ") + EGP_SAMPLE_NT + " " + egt, out),
            0);
  // Re-read the converted snapshot through the stats subcommand.
  ASSERT_EQ(RunCli("stats " + egt, out), 0);
  EXPECT_NE(Slurp(out).find("20 entities, 22 relationships"),
            std::string::npos);
}

TEST(CliTest, GenerateSubcommand) {
  const std::string egt = TempPath("cli_generated.egt");
  const std::string out = TempPath("cli_generate.txt");
  ASSERT_EQ(RunCli("generate basketball " + egt + " --scale 0.02", out), 0);
  EXPECT_NE(Slurp(out).find("wrote"), std::string::npos);
  ASSERT_EQ(RunCli("stats " + egt, out), 0);
  EXPECT_NE(Slurp(out).find("6 entity types"), std::string::npos);
}

TEST(CliTest, BadInvocationsFailCleanly) {
  const std::string out = TempPath("cli_errors.txt");
  EXPECT_NE(RunCli("", out), 0);
  EXPECT_NE(RunCli("unknown-subcommand", out), 0);
  EXPECT_NE(RunCli("stats /no/such/file.nt", out), 0);
  EXPECT_NE(RunCli(std::string("preview ") + EGP_SAMPLE_NT + " --k 99",
                   out),
            0);  // infeasible constraint
}

TEST(CliTest, VersionSubcommand) {
  const std::string out = TempPath("cli_version.txt");
  ASSERT_EQ(RunCli("version", out), 0);
  EXPECT_EQ(Slurp(out).rfind("egp ", 0), 0u);
  ASSERT_EQ(RunCli("--version", out), 0);
  EXPECT_EQ(Slurp(out).rfind("egp ", 0), 0u);
}

TEST(CliTest, HelpSubcommand) {
  const std::string out = TempPath("cli_help.txt");
  ASSERT_EQ(RunCli("help", out), 0);
  const std::string text = Slurp(out);
  EXPECT_NE(text.find("usage: egp"), std::string::npos);
  EXPECT_NE(text.find("preview"), std::string::npos);
}

TEST(CliTest, UnknownFlagRejectedWithUsageError) {
  const std::string out = TempPath("cli_unknown_flag_out.txt");
  const std::string err = TempPath("cli_unknown_flag_err.txt");
  EXPECT_EQ(testing_util::RunCommandCapture(
                std::string(EGP_CLI_PATH) + " preview " + EGP_SAMPLE_NT +
                    " --frobnicate 3",
                out, err),
            2);
  EXPECT_NE(Slurp(err).find("unknown flag '--frobnicate'"),
            std::string::npos);
  EXPECT_EQ(Slurp(out), "");
}

TEST(CliTest, MissingFlagValueRejected) {
  const std::string out = TempPath("cli_missing_value_out.txt");
  const std::string err = TempPath("cli_missing_value_err.txt");
  EXPECT_EQ(testing_util::RunCommandCapture(
                std::string(EGP_CLI_PATH) + " preview " + EGP_SAMPLE_NT +
                    " --k",
                out, err),
            2);
  EXPECT_NE(Slurp(err).find("requires a value"), std::string::npos);
}

TEST(CliTest, UnknownMeasureOrAlgorithmValueIsUsageError) {
  const std::string out = TempPath("cli_badvalue_out.txt");
  const std::string err = TempPath("cli_badvalue_err.txt");
  for (const char* args :
       {"--algo quantum", "--key pagerank", "--nonkey pagerank"}) {
    EXPECT_EQ(testing_util::RunCommandCapture(
                  std::string(EGP_CLI_PATH) + " preview " + EGP_SAMPLE_NT +
                      " " + args,
                  out, err),
              2)
        << args;
    EXPECT_NE(Slurp(err).find("unknown"), std::string::npos) << args;
  }
}

TEST(CliTest, ReportTakesMeasuresByRegistryName) {
  // report and preview check --key/--nonkey against the same registry,
  // so they reject an unknown name with the same usage error.
  const std::string out = TempPath("cli_measure_out.txt");
  const std::string err = TempPath("cli_measure_err.txt");
  for (const char* command : {" preview ", " report "}) {
    EXPECT_EQ(testing_util::RunCommandCapture(
                  std::string(EGP_CLI_PATH) + command + EGP_SAMPLE_NT +
                      " --key nope",
                  out, err),
              2)
        << command;
    EXPECT_NE(Slurp(err).find("egp: unknown --key measure 'nope'\n"),
              std::string::npos)
        << command;
  }
  ASSERT_EQ(RunCli(std::string("report ") + EGP_SAMPLE_NT +
                       " --k 2 --n 5 --key randomwalk --nonkey entropy",
                   out),
            0);
  EXPECT_NE(Slurp(out).find("## Most important entity types (randomwalk)"),
            std::string::npos);
}

TEST(CliTest, NegativeFlagValueIsParsedAsValue) {
  // A value starting with '-' must bind to the preceding flag instead of
  // being dropped or misread as the next flag; the CLI then rejects the
  // out-of-range value itself.
  const std::string out = TempPath("cli_negative_out.txt");
  const std::string err = TempPath("cli_negative_err.txt");
  EXPECT_EQ(testing_util::RunCommandCapture(
                std::string(EGP_CLI_PATH) + " preview " + EGP_SAMPLE_NT +
                    " --k -1",
                out, err),
            2);
  EXPECT_NE(Slurp(err).find(">= 1"), std::string::npos);
  EXPECT_EQ(testing_util::RunCommandCapture(
                std::string(EGP_CLI_PATH) + " preview " + EGP_SAMPLE_NT +
                    " --rows -3",
                out, err),
            2);
  EXPECT_NE(Slurp(err).find("non-negative"), std::string::npos);
}

TEST(CliTest, ZeroAndNegativeNumericFlagsAreUsageErrors) {
  // --threads/--k/--n/--tight/--diverse must be >= 1: zero is as wrong
  // as a negative value or garbage, and all exit 2 without touching the
  // engine. (--rows 0 stays valid: it means "skip materialization".)
  const std::string out = TempPath("cli_zero_out.txt");
  const std::string err = TempPath("cli_zero_err.txt");
  for (const char* args :
       {"--k 0", "--n 0", "--k -2", "--n -7", "--threads 0", "--threads -1",
        "--tight 0", "--diverse 0", "--tight -4", "--k abc"}) {
    EXPECT_EQ(testing_util::RunCommandCapture(
                  std::string(EGP_CLI_PATH) + " preview " + EGP_SAMPLE_NT +
                      " " + args,
                  out, err),
              2)
        << args;
    EXPECT_NE(Slurp(err).find("usage: egp"), std::string::npos) << args;
    EXPECT_EQ(Slurp(out), "") << args;
  }
  // suggest and report share the hardened parsers.
  EXPECT_EQ(testing_util::RunCommandCapture(
                std::string(EGP_CLI_PATH) + " suggest " + EGP_SAMPLE_NT +
                    " --threads 0",
                out, err),
            2);
  EXPECT_EQ(testing_util::RunCommandCapture(
                std::string(EGP_CLI_PATH) + " report " + EGP_SAMPLE_NT +
                    " --k 0",
                out, err),
            2);
  // A valid explicit value still works.
  EXPECT_EQ(RunCli(std::string("preview ") + EGP_SAMPLE_NT +
                       " --k 2 --n 4 --threads 1",
                   out),
            0);
}

TEST(CliTest, VerbosePrintsCacheStats) {
  const std::string out = TempPath("cli_verbose_out.txt");
  const std::string err = TempPath("cli_verbose_err.txt");
  ASSERT_EQ(testing_util::RunCommandCapture(
                std::string(EGP_CLI_PATH) + " preview " + EGP_SAMPLE_NT +
                    " --k 2 --n 4 --verbose",
                out, err),
            0);
  const std::string text = Slurp(err);
  EXPECT_NE(text.find("cache   : 1 entry, 0 hit(s), 1 miss(es)"),
            std::string::npos)
      << text;
}

TEST(CliTest, BadUsagePrintsToStderrWithExitCode2) {
  const std::string out = TempPath("cli_usage_out.txt");
  const std::string err = TempPath("cli_usage_err.txt");
  for (const char* args : {"", "unknown-subcommand", "stats",
                           "preview", "generate onlyone"}) {
    EXPECT_EQ(testing_util::RunCommandCapture(
                  std::string(EGP_CLI_PATH) + " " + args, out, err),
              2)
        << args;
    EXPECT_NE(Slurp(err).find("usage: egp"), std::string::npos) << args;
    EXPECT_EQ(Slurp(out), "") << args;
  }
}

}  // namespace
}  // namespace egp
