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

TEST(CliFlags, NumericValuesMustParseWhole) {
  const auto flags = parse({"--n", "2x", "--seed", "7abc", "--rate", "0.1x", "--empty="});
  for (const char* name : {"n", "seed", "empty"}) {
    try {
      flags.int_or(name, 0);
      ADD_FAILURE() << "--" << name << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + name), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(flags.double_or("rate", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.double_or("empty", 0.0), std::invalid_argument);
  const auto good = parse({"--n", "-3", "--rate", "2.5e-1"});
  EXPECT_EQ(good.int_or("n", 0), -3);
  EXPECT_DOUBLE_EQ(good.double_or("rate", 0.0), 0.25);
}

TEST(CliFlags, BoolValuesAreTrueFalseOrAnError) {
  const auto flags = parse({"--a=true", "--b=1", "--c=yes", "--d=false", "--e=0", "--f=no",
                            "--breakers", "on"});
  for (const char* name : {"a", "b", "c"}) EXPECT_TRUE(flags.bool_or(name, false)) << name;
  for (const char* name : {"d", "e", "f"}) EXPECT_FALSE(flags.bool_or(name, true)) << name;
  try {
    flags.bool_or("breakers", false);
    FAIL() << "--breakers on was read as a boolean";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--breakers"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace mlaas
