// The declarative CLI parser.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "easched/common/cli.hpp"
#include "easched/common/contracts.hpp"

namespace easched {
namespace {

CliParser make_parser() {
  CliParser p("tool", "test tool");
  p.add_option("cores", "4", "core count");
  p.add_option("alpha", "3.0", "exponent");
  p.add_switch("verbose", "talk more");
  p.add_positional("input", "input file");
  return p;
}

bool parse(CliParser& p, std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  return p.parse(static_cast<int>(args.size()), args.data());
}

TEST(CliParserTest, DefaultsApplyWhenAbsent) {
  CliParser p = make_parser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get("cores"), "4");
  EXPECT_DOUBLE_EQ(p.get_double("alpha"), 3.0);
  EXPECT_FALSE(p.get_switch("verbose"));
  EXPECT_FALSE(p.positional("input").has_value());
}

TEST(CliParserTest, SpaceSeparatedValues) {
  CliParser p = make_parser();
  ASSERT_TRUE(parse(p, {"--cores", "8"}));
  EXPECT_EQ(p.get_int("cores"), 8);
}

TEST(CliParserTest, EqualsSeparatedValues) {
  CliParser p = make_parser();
  ASSERT_TRUE(parse(p, {"--alpha=2.5"}));
  EXPECT_DOUBLE_EQ(p.get_double("alpha"), 2.5);
}

TEST(CliParserTest, SwitchesAndPositionals) {
  CliParser p = make_parser();
  ASSERT_TRUE(parse(p, {"trace.csv", "--verbose"}));
  EXPECT_TRUE(p.get_switch("verbose"));
  ASSERT_TRUE(p.positional("input").has_value());
  EXPECT_EQ(*p.positional("input"), "trace.csv");
}

TEST(CliParserTest, UnknownOptionIsAnError) {
  CliParser p = make_parser();
  EXPECT_FALSE(parse(p, {"--coers", "8"}));
  EXPECT_NE(p.error().find("coers"), std::string::npos);
}

TEST(CliParserTest, MissingValueIsAnError) {
  CliParser p = make_parser();
  EXPECT_FALSE(parse(p, {"--cores"}));
  EXPECT_FALSE(p.error().empty());
}

TEST(CliParserTest, SwitchRejectsValue) {
  CliParser p = make_parser();
  EXPECT_FALSE(parse(p, {"--verbose=yes"}));
}

TEST(CliParserTest, TooManyPositionalsIsAnError) {
  CliParser p = make_parser();
  EXPECT_FALSE(parse(p, {"a.csv", "b.csv"}));
}

TEST(CliParserTest, HelpIsDetectedAndRendered) {
  CliParser p = make_parser();
  ASSERT_TRUE(parse(p, {"--help"}));
  EXPECT_TRUE(p.help_requested());
  const std::string help = p.help();
  EXPECT_NE(help.find("--cores"), std::string::npos);
  EXPECT_NE(help.find("core count"), std::string::npos);
  EXPECT_NE(help.find("input"), std::string::npos);
}

TEST(CliParserTest, AccessorsValidateNames) {
  CliParser p = make_parser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_THROW(p.get("nope"), ContractViolation);
  EXPECT_THROW(p.positional("nope"), ContractViolation);
}

TEST(CliParserTest, DuplicateDeclarationRejected) {
  CliParser p("t", "s");
  p.add_option("x", "1", "");
  EXPECT_THROW(p.add_option("x", "2", ""), ContractViolation);
  EXPECT_THROW(p.add_switch("x", ""), ContractViolation);
}

/// The message of the `std::invalid_argument` that `fn` throws ("" if none).
template <typename Fn>
std::string invalid_argument_message(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CliParserTest, NumericValuesMustParseWhole) {
  CliParser p = make_parser();
  for (const char* bad : {"12x", "abc", "", " 4", "4 ", "1.5", "99999999999"}) {
    SCOPED_TRACE(bad);
    ASSERT_TRUE(parse(p, {"--cores", bad}));
    const std::string message = invalid_argument_message([&] { (void)p.get_int("cores"); });
    EXPECT_NE(message.find("--cores"), std::string::npos) << message;
  }
  for (const char* bad : {"3.0x", "abc", "", "1e"}) {
    SCOPED_TRACE(bad);
    ASSERT_TRUE(parse(p, {"--alpha", bad}));
    const std::string message = invalid_argument_message([&] { (void)p.get_double("alpha"); });
    EXPECT_NE(message.find("--alpha"), std::string::npos) << message;
  }
  ASSERT_TRUE(parse(p, {"--cores", "-12", "--alpha", "2.5e-1"}));
  EXPECT_EQ(p.get_int("cores"), -12);
  EXPECT_DOUBLE_EQ(p.get_double("alpha"), 0.25);
}

TEST(CliParserTest, IntegerBoundsAreEnforced) {
  CliParser p = make_parser();
  for (const char* port : {"-1", "0", "65535"}) {
    ASSERT_TRUE(parse(p, {"--cores", port}));
    EXPECT_EQ(p.get_int("cores", -1, 65535), std::stoi(port));
  }
  for (const char* port : {"70000", "65536", "-2"}) {
    SCOPED_TRACE(port);
    ASSERT_TRUE(parse(p, {"--cores", port}));
    const std::string message =
        invalid_argument_message([&] { (void)p.get_int("cores", -1, 65535); });
    EXPECT_NE(message.find("--cores"), std::string::npos) << message;
    EXPECT_NE(message.find("[-1, 65535]"), std::string::npos) << message;
  }
}

TEST(CliParserTest, ReparseResetsState) {
  CliParser p = make_parser();
  ASSERT_TRUE(parse(p, {"--cores", "8", "--verbose"}));
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get_int("cores"), 4);
  EXPECT_FALSE(p.get_switch("verbose"));
}

}  // namespace
}  // namespace easched
