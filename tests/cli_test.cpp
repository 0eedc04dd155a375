// CLI parser tests, plus the apsp tool's own argument checks run through
// the real binary.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "util/check.hpp"
#include "util/cli.hpp"

namespace parfw {
namespace {

CliArgs parse(std::initializer_list<const char*> argv,
              std::vector<std::string> allowed) {
  std::vector<const char*> full{"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return CliArgs(static_cast<int>(full.size()), full.data(), allowed);
}

TEST(Cli, SpaceSeparatedValues) {
  const auto a = parse({"--n", "100", "--p", "0.5"}, {"n", "p"});
  EXPECT_EQ(a.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(a.get_double("p", 0), 0.5);
}

TEST(Cli, EqualsSeparatedValues) {
  const auto a = parse({"--seed=42", "--name=x"}, {"seed", "name"});
  EXPECT_EQ(a.get_int("seed", 0), 42);
  EXPECT_EQ(a.get("name", ""), "x");
}

TEST(Cli, BooleanFlags) {
  const auto a = parse({"--verbose", "--n", "5"}, {"verbose", "n"});
  EXPECT_TRUE(a.get_bool("verbose"));
  EXPECT_FALSE(a.get_bool("missing"));
  EXPECT_EQ(a.get_int("n", 0), 5);
}

TEST(Cli, BooleanFlagFollowedByFlag) {
  const auto a = parse({"--paths", "--block", "32"}, {"paths", "block"});
  EXPECT_TRUE(a.get_bool("paths"));
  EXPECT_EQ(a.get_int("block", 0), 32);
}

TEST(Cli, Fallbacks) {
  const auto a = parse({}, {"x"});
  EXPECT_EQ(a.get("x", "dflt"), "dflt");
  EXPECT_EQ(a.get_int("x", 7), 7);
  EXPECT_DOUBLE_EQ(a.get_double("x", 1.5), 1.5);
}

TEST(Cli, PositionalArguments) {
  const auto a = parse({"file1", "--n", "3", "file2"}, {"n"});
  EXPECT_EQ(a.positional(),
            (std::vector<std::string>{"file1", "file2"}));
}

TEST(Cli, UnknownFlagThrows) {
  EXPECT_THROW(parse({"--bogus", "1"}, {"n"}), check_error);
}

TEST(Cli, RepeatableFlagKeepsEveryOccurrence) {
  // The apsp tool's --query is documented as repeatable; every occurrence
  // must survive parsing, in command-line order.
  const auto a = parse({"--query", "0,5", "--query=3,7", "--query", "9,2"},
                       {"query"});
  EXPECT_EQ(a.get_all("query"),
            (std::vector<std::string>{"0,5", "3,7", "9,2"}));
  EXPECT_EQ(a.get("query", ""), "9,2") << "get() answers the last occurrence";
  EXPECT_TRUE(a.get_all("missing").empty());
}

TEST(Cli, RepeatedScalarFlagLastWins) {
  const auto a = parse({"--n", "10", "--n", "20"}, {"n"});
  EXPECT_EQ(a.get_int("n", 0), 20);
  EXPECT_EQ(a.get_all("n"), (std::vector<std::string>{"10", "20"}));
}

// Malformed numeric values must be rejected loudly (exit 2 with a clear
// message), never silently parsed as 0 — "--block 8O" (typo'd letter O)
// once dissolved into block_size=0 downstream.
using CliDeath = ::testing::Test;

TEST(CliDeath, MalformedIntExitsWithDiagnostic) {
  EXPECT_EXIT(parse({"--block", "8O"}, {"block"}).get_int("block", 0),
              ::testing::ExitedWithCode(2), "--block expects an integer");
  EXPECT_EXIT(parse({"--n", ""}, {"n"}).get_int("n", 0),
              ::testing::ExitedWithCode(2), "--n expects an integer");
  EXPECT_EXIT(parse({"--n", "12x"}, {"n"}).get_int("n", 0),
              ::testing::ExitedWithCode(2), "--n expects an integer");
  EXPECT_EXIT(
      parse({"--n", "999999999999999999999"}, {"n"}).get_int("n", 0),
      ::testing::ExitedWithCode(2), "--n expects an integer");
}

TEST(CliDeath, MalformedDoubleExitsWithDiagnostic) {
  EXPECT_EXIT(parse({"--p", "0.5oops"}, {"p"}).get_double("p", 0),
              ::testing::ExitedWithCode(2), "--p expects a number");
  EXPECT_EXIT(parse({"--p", "zero"}, {"p"}).get_double("p", 0),
              ::testing::ExitedWithCode(2), "--p expects a number");
}

TEST(Cli, WellFormedNumbersStillParse) {
  const auto a = parse({"--n", "-12", "--p", "1e-3"}, {"n", "p"});
  EXPECT_EQ(a.get_int("n", 0), -12);
  EXPECT_DOUBLE_EQ(a.get_double("p", 0), 1e-3);
}

/// Runs the apsp binary with `args`; returns its exit code and leaves its
/// stdout and stderr, interleaved, in *out.
int run_apsp(const std::string& args, std::string* out) {
  const std::string cmd =
      std::string("'") + PARFW_APSP_BIN + "' " + args + " 2>&1";
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return -1;
  out->clear();
  char buf[256];
  while (std::fgets(buf, sizeof buf, p) != nullptr) *out += buf;
  const int status = pclose(p);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Cli, ApspRejectsComponentsWithDistBeforeSolving) {
  // component_apsp solves each component with the single-node engines, so
  // the tool must refuse dist up front with a usage error, not mid-solve.
  std::string out;
  EXPECT_EQ(run_apsp("--gen er --n 256 --p 0.002 --seed 3 --components "
                     "--algorithm dist --dist 2x2 --block 16",
                     &out),
            2);
  EXPECT_NE(out.find("--components is single-node only"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("solved"), std::string::npos) << out;
  EXPECT_EQ(run_apsp("--gen er --n 256 --p 0.002 --seed 3 --components "
                     "--algorithm blocked --block 16 --query 0,1",
                     &out),
            0)
      << out;
}

}  // namespace
}  // namespace parfw
