#include "util/flags.h"

#include <gtest/gtest.h>

namespace dfs {
namespace {

struct ParsedFlags {
  std::string name = "default";
  double threshold = 0.5;
  int count = 3;
  bool verbose = false;
};

Status ParseInto(ParsedFlags& flags, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "program");
  FlagParser parser("test");
  parser.AddString("name", "a name", &flags.name);
  parser.AddDouble("threshold", "a threshold", &flags.threshold);
  parser.AddInt("count", "a count", &flags.count);
  parser.AddBool("verbose", "verbosity", &flags.verbose);
  return parser.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParserTest, DefaultsSurviveEmptyArgv) {
  ParsedFlags flags;
  ASSERT_TRUE(ParseInto(flags, {}).ok());
  EXPECT_EQ(flags.name, "default");
  EXPECT_DOUBLE_EQ(flags.threshold, 0.5);
  EXPECT_EQ(flags.count, 3);
  EXPECT_FALSE(flags.verbose);
}

TEST(FlagParserTest, SpaceSeparatedValues) {
  ParsedFlags flags;
  ASSERT_TRUE(ParseInto(flags, {"--name", "abc", "--threshold", "0.75",
                                "--count", "7"})
                  .ok());
  EXPECT_EQ(flags.name, "abc");
  EXPECT_DOUBLE_EQ(flags.threshold, 0.75);
  EXPECT_EQ(flags.count, 7);
}

TEST(FlagParserTest, EqualsSeparatedValues) {
  ParsedFlags flags;
  ASSERT_TRUE(
      ParseInto(flags, {"--name=xyz", "--threshold=-1.5", "--count=-2"})
          .ok());
  EXPECT_EQ(flags.name, "xyz");
  EXPECT_DOUBLE_EQ(flags.threshold, -1.5);
  EXPECT_EQ(flags.count, -2);
}

TEST(FlagParserTest, BoolForms) {
  ParsedFlags flags;
  ASSERT_TRUE(ParseInto(flags, {"--verbose"}).ok());
  EXPECT_TRUE(flags.verbose);
  flags.verbose = true;
  ASSERT_TRUE(ParseInto(flags, {"--verbose=false"}).ok());
  EXPECT_FALSE(flags.verbose);
  ASSERT_TRUE(ParseInto(flags, {"--verbose=1"}).ok());
  EXPECT_TRUE(flags.verbose);
}

TEST(FlagParserTest, CollectsPositionals) {
  ParsedFlags flags;
  std::vector<const char*> argv = {"program", "input.csv", "--count", "2",
                                   "more"};
  FlagParser parser("test");
  parser.AddInt("count", "a count", &flags.count);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(parser.positional(),
            (std::vector<std::string>{"input.csv", "more"}));
}

TEST(FlagParserTest, Errors) {
  ParsedFlags flags;
  EXPECT_FALSE(ParseInto(flags, {"--bogus", "1"}).ok());
  EXPECT_FALSE(ParseInto(flags, {"--count"}).ok());          // missing value
  EXPECT_FALSE(ParseInto(flags, {"--count", "abc"}).ok());   // not an int
  EXPECT_FALSE(ParseInto(flags, {"--threshold", "x"}).ok()); // not a number
  EXPECT_FALSE(ParseInto(flags, {"--verbose=maybe"}).ok());
  // Out of int range: strtol's long must not be truncated into an int.
  EXPECT_FALSE(ParseInto(flags, {"--count", "4294967297"}).ok());
  EXPECT_FALSE(ParseInto(flags, {"--count", "2147483648"}).ok());
  EXPECT_FALSE(ParseInto(flags, {"--count", "-2147483649"}).ok());
  EXPECT_FALSE(ParseInto(flags, {"--count", "99999999999999999999"}).ok());
  // Non-finite or overflowing doubles.
  EXPECT_FALSE(ParseInto(flags, {"--threshold", "nan"}).ok());
  EXPECT_FALSE(ParseInto(flags, {"--threshold", "inf"}).ok());
  EXPECT_FALSE(ParseInto(flags, {"--threshold", "-inf"}).ok());
  EXPECT_FALSE(ParseInto(flags, {"--threshold", "1e999"}).ok());
  // The limits themselves still parse.
  ASSERT_TRUE(ParseInto(flags, {"--count", "2147483647"}).ok());
  EXPECT_EQ(flags.count, 2147483647);
  ASSERT_TRUE(ParseInto(flags, {"--count=-2147483648"}).ok());
  EXPECT_EQ(flags.count, -2147483647 - 1);
}

TEST(FlagParserTest, HelpListsFlags) {
  ParsedFlags flags;
  FlagParser parser("my tool");
  parser.AddString("name", "the name to use", &flags.name);
  parser.AddBool("verbose", "print more", &flags.verbose);
  const std::string help = parser.Help();
  EXPECT_NE(help.find("my tool"), std::string::npos);
  EXPECT_NE(help.find("--name <string>"), std::string::npos);
  EXPECT_NE(help.find("the name to use"), std::string::npos);
  EXPECT_NE(help.find("--verbose"), std::string::npos);
}

TEST(FlagParserDeathTest, DuplicateRegistrationAborts) {
  FlagParser parser("test");
  ParsedFlags flags;
  parser.AddInt("count", "a", &flags.count);
  EXPECT_DEATH(parser.AddInt("count", "b", &flags.count), "duplicate flag");
}

}  // namespace
}  // namespace dfs
