// Tests for the command-line flag parser.
#include <gtest/gtest.h>

#include "util/args.hpp"
#include "util/assert.hpp"

namespace drift {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, EqualsSyntax) {
  const Args a = parse({"--model=bert", "--budget=0.05"});
  EXPECT_EQ(a.get_string("model", ""), "bert");
  EXPECT_DOUBLE_EQ(a.get_double("budget", 0), 0.05);
}

TEST(Args, SpaceSyntax) {
  const Args a = parse({"--rows", "24", "--cols", "33"});
  EXPECT_EQ(a.get_int("rows", 0), 24);
  EXPECT_EQ(a.get_int("cols", 0), 33);
}

TEST(Args, BareFlagIsBooleanTrue) {
  const Args a = parse({"--layers", "--verbose"});
  EXPECT_TRUE(a.get_bool("layers"));
  EXPECT_TRUE(a.get_bool("verbose"));
  EXPECT_FALSE(a.get_bool("absent"));
}

TEST(Args, BooleanSpellings) {
  const Args a = parse({"--a=true", "--b=1", "--c=yes", "--d=no", "--e=on",
                        "--f=off", "--g=0", "--h=false", "--bad=ture"});
  EXPECT_TRUE(a.get_bool("a"));
  EXPECT_TRUE(a.get_bool("b"));
  EXPECT_TRUE(a.get_bool("c"));
  EXPECT_FALSE(a.get_bool("d"));
  EXPECT_TRUE(a.get_bool("e"));
  EXPECT_FALSE(a.get_bool("f", true));
  EXPECT_FALSE(a.get_bool("g", true));
  EXPECT_FALSE(a.get_bool("h", true));
  EXPECT_THROW(a.get_bool("bad"), check_error);
}

TEST(Args, BoolFlagRejectsOtherSpellings) {
  const Args a = parse({"--on=yes", "--off=0", "--bare", "--bad=ture",
                        "--empty="});
  EXPECT_EQ(a.bool_flag("on", false), std::optional<bool>(true));
  EXPECT_EQ(a.bool_flag("off", true), std::optional<bool>(false));
  EXPECT_EQ(a.bool_flag("bare", false), std::optional<bool>(true));
  EXPECT_EQ(a.bool_flag("absent", true), std::optional<bool>(true));
  EXPECT_EQ(a.bool_flag("bad", false), std::nullopt);
  EXPECT_EQ(a.bool_flag("empty", false), std::nullopt);
}

TEST(Args, DefaultsWhenMissing) {
  const Args a = parse({});
  EXPECT_EQ(a.get_string("model", "resnet18"), "resnet18");
  EXPECT_EQ(a.get_int("rows", 24), 24);
  EXPECT_DOUBLE_EQ(a.get_double("budget", 0.05), 0.05);
}

TEST(Args, PositionalArgumentsPreserved) {
  const Args a = parse({"first", "--flag=x", "second"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "first");
  EXPECT_EQ(a.positional()[1], "second");
}

TEST(Args, MalformedNumberThrows) {
  const Args a = parse({"--rows=abc"});
  EXPECT_THROW(a.get_int("rows", 0), check_error);
}

TEST(Args, EmptyOrOverflowingNumberThrows) {
  // strtoll/strtod alone read "" as 0 and clamp an overflow to INT64_MAX.
  const Args a = parse({"--seed=", "--big=99999999999999999999",
                        "--budget="});
  EXPECT_THROW(a.get_int("seed", 1), check_error);
  EXPECT_THROW(a.get_int("big", 1), check_error);
  EXPECT_THROW(a.get_double("budget", 1.0), check_error);
}

TEST(Args, UnqueriedFlagsReported) {
  const Args a = parse({"--known=1", "--typo=2"});
  (void)a.get_int("known", 0);
  const auto stray = a.unqueried();
  ASSERT_EQ(stray.size(), 1u);
  EXPECT_EQ(stray[0], "typo");
}

TEST(Args, HasMarksQueried) {
  const Args a = parse({"--gemm=2x3x4"});
  EXPECT_TRUE(a.has("gemm"));
  EXPECT_TRUE(a.unqueried().empty());
}

TEST(Args, IntFlagChecksFormatAndRange) {
  const Args a = parse({"--rows=0", "--cols=7", "--seed=x", "--threads=9"});
  EXPECT_EQ(a.int_flag("depth", 4, 1), 4);  // absent: the fallback
  EXPECT_EQ(a.int_flag("cols", 1, 1), 7);
  EXPECT_EQ(a.int_flag("rows", 1, 1), std::nullopt);
  EXPECT_EQ(a.int_flag("seed", 1, 0), std::nullopt);
  EXPECT_EQ(a.int_flag("threads", 1, 1, 8), std::nullopt);
}

TEST(Args, FiniteFlagsRejectNonFiniteAndOutOfRange) {
  const Args a = parse({"--zero=0", "--neg=-1", "--inf=inf", "--nan=nan",
                        "--junk=0.5x", "--ok=0.25"});
  EXPECT_EQ(a.positive_flag("absent", 0.6), 0.6);
  EXPECT_EQ(a.positive_flag("ok", 1.0), 0.25);
  EXPECT_EQ(a.nonnegative_flag("ok", 1.0), 0.25);
  EXPECT_EQ(a.nonnegative_flag("zero", 1.0), 0.0);
  EXPECT_EQ(a.positive_flag("zero", 1.0), std::nullopt);
  for (const char* flag : {"neg", "inf", "nan", "junk"}) {
    EXPECT_EQ(a.positive_flag(flag, 1.0), std::nullopt) << flag;
    EXPECT_EQ(a.nonnegative_flag(flag, 1.0), std::nullopt) << flag;
  }
}

}  // namespace
}  // namespace drift
