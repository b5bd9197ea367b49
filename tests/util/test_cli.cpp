#include "util/cli.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mlaas {
namespace {

CliFlags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliFlags(static_cast<int>(argv.size()), argv.data());
}

TEST(CliFlags, ParsesSpaceSeparated) {
  const auto flags = parse({"--seed", "99"});
  EXPECT_EQ(flags.int_or("seed", 0), 99);
}

TEST(CliFlags, ParsesEqualsForm) {
  const auto flags = parse({"--scale=2.5"});
  EXPECT_DOUBLE_EQ(flags.double_or("scale", 1.0), 2.5);
}

TEST(CliFlags, BareFlagIsTrue) {
  const auto flags = parse({"--quick"});
  EXPECT_TRUE(flags.bool_or("quick", false));
}

TEST(CliFlags, MissingUsesDefault) {
  const auto flags = parse({});
  EXPECT_EQ(flags.get_or("name", "def"), "def");
  EXPECT_EQ(flags.int_or("n", 7), 7);
  EXPECT_FALSE(flags.get("anything").has_value());
}

TEST(CliFlags, RejectsPositional) {
  EXPECT_THROW(parse({"positional"}), std::invalid_argument);
}

TEST(CliFlags, RejectUnreadNamesTheFlag) {
  const auto flags = parse({"--seed", "99", "--bogus-flag", "7"});
  EXPECT_EQ(flags.int_or("seed", 0), 99);
  try {
    flags.reject_unread();
    FAIL() << "an unread flag was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--bogus-flag"), std::string::npos) << e.what();
  }
}

TEST(CliFlags, RejectUnreadAcceptsEveryReadFlag) {
  const auto flags = parse({"--seed", "99", "--quick", "--name=x"});
  flags.int_or("seed", 0);
  flags.bool_or("quick", false);
  flags.get_or("name", "");
  flags.double_or("absent", 1.0);  // asking for a flag that was not given is fine
  EXPECT_NO_THROW(flags.reject_unread());
}

TEST(BenchOptions, ParsesAll) {
  std::vector<const char*> argv{"prog", "--seed", "5", "--scale", "0.5", "--quick"};
  const auto opt = parse_bench_options(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(opt.seed, 5u);
  EXPECT_DOUBLE_EQ(opt.scale, 0.5);
  EXPECT_TRUE(opt.quick);
  EXPECT_EQ(opt.schedule, "dynamic");  // default
}

TEST(BenchOptions, NegativeThreadsRejectedAtParseTime) {
  // The historical crash: --threads -1 passed through a size_t cast and
  // asked the pool for ~2^64 workers.  It must die here, with a usage
  // error, before any campaign machinery runs.
  std::vector<const char*> argv{"prog", "--threads=-1"};
  EXPECT_THROW(parse_bench_options(static_cast<int>(argv.size()), argv.data()),
               std::invalid_argument);
  std::vector<const char*> argv2{"prog", "--threads=-1000000"};
  EXPECT_THROW(parse_bench_options(static_cast<int>(argv2.size()), argv2.data()),
               std::invalid_argument);
}

TEST(BenchOptions, ZeroThreadsMeansHardware) {
  std::vector<const char*> argv{"prog", "--threads", "0"};
  const auto opt = parse_bench_options(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(opt.threads, 0);
}

TEST(BenchOptions, ScheduleValidated) {
  std::vector<const char*> good{"prog", "--schedule", "static"};
  EXPECT_EQ(parse_bench_options(static_cast<int>(good.size()), good.data()).schedule,
            "static");
  std::vector<const char*> bad{"prog", "--schedule", "roundrobin"};
  EXPECT_THROW(parse_bench_options(static_cast<int>(bad.size()), bad.data()),
               std::invalid_argument);
}

}  // namespace
}  // namespace mlaas
