/// Tests for the command-line argument parser.

#include <gtest/gtest.h>

#include "support/args.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

Args parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Args, PositionalAndOptions) {
  const Args args =
      parse({"prog", "simulate", "--m", "48000", "--density=0.5", "--flag"});
  EXPECT_EQ(args.program(), "prog");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "simulate");
  EXPECT_EQ(args.get_int("m", 0), 48000);
  EXPECT_DOUBLE_EQ(args.get_double("density", 0.0), 0.5);
  EXPECT_TRUE(args.get_bool("flag", false));
}

TEST(Args, DefaultsWhenAbsent) {
  const Args args = parse({"prog"});
  EXPECT_EQ(args.get("name", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("d", 2.5), 2.5);
  EXPECT_FALSE(args.get_bool("b", false));
  EXPECT_FALSE(args.has("n"));
}

TEST(Args, TypedParsingErrors) {
  const Args args = parse({"prog", "--n", "abc", "--b", "maybe"});
  EXPECT_THROW(args.get_int("n", 0), Error);
  EXPECT_THROW(args.get_bool("b", false), Error);
}

TEST(Args, ScientificNotationDoubles) {
  const Args args = parse({"prog", "--gpu-mem", "5e5"});
  EXPECT_DOUBLE_EQ(args.get_double("gpu-mem", 0.0), 5e5);
}

TEST(Args, BooleanSpellings) {
  const Args args =
      parse({"prog", "--a", "yes", "--b", "0", "--c=false", "--d", "1"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_FALSE(args.get_bool("c", true));
  EXPECT_TRUE(args.get_bool("d", false));
}

TEST(Args, UnusedDetection) {
  const Args args = parse({"prog", "--used", "1", "--typo", "2"});
  EXPECT_EQ(args.get_int("used", 0), 1);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Args, NegativeNumbersAsValues) {
  const Args args = parse({"prog", "--offset", "-5"});
  EXPECT_EQ(args.get_int("offset", 0), -5);
}

TEST(Args, RejectUnknownSuggestsNearestFlag) {
  const Args args = parse({"prog", "--densty", "0.5"});
  EXPECT_EQ(args.get_double("density", 0.0), 0.0);  // typo fell back...
  try {
    args.reject_unknown();  // ...but is rejected loudly here
    FAIL() << "reject_unknown did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--densty"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("did you mean --density?"),
              std::string::npos);
  }
}

TEST(Args, RejectUnknownPassesWhenAllFlagsKnown) {
  const Args args = parse({"prog", "--m", "10", "--gpus", "2"});
  EXPECT_EQ(args.get_int("m", 0), 10);
  (void)args.has("gpus");  // branch-dependent flags declared up front
  (void)args.has("nodes");
  EXPECT_NO_THROW(args.reject_unknown());
}

TEST(Args, RejectUnknownWithoutPlausibleSuggestion) {
  const Args args = parse({"prog", "--zzzzzzzzzz", "1"});
  (void)args.get_int("m", 0);
  try {
    args.reject_unknown();
    FAIL() << "reject_unknown did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--zzzzzzzzzz"), std::string::npos);
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos);
  }
}

TEST(Args, NearestFlagEditDistance) {
  const std::vector<std::string> known = {"density", "gpu-mem", "prefetch"};
  EXPECT_EQ(Args::nearest_flag("densit", known), "density");
  EXPECT_EQ(Args::nearest_flag("gpumem", known), "gpu-mem");
  EXPECT_EQ(Args::nearest_flag("x", known), "");  // nothing plausible
}

TEST(Args, SealedArgsRejectUndeclaredReads) {
  const Args args = parse({"prog", "--m", "10"});
  (void)args.has("m");
  (void)args.has("n");
  args.reject_unknown();
  args.seal();
  EXPECT_EQ(args.get_int("m", 0), 10);
  EXPECT_EQ(args.get_int("n", 7), 7);  // declared, absent: the default
  try {
    (void)args.get_int("k", 0);
    FAIL() << "an undeclared read did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--k"), std::string::npos);
  }
  EXPECT_THROW((void)args.has("gpus"), Error);
}

}  // namespace
}  // namespace bstc
