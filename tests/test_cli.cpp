// CLI argument parser tests.

#include <gtest/gtest.h>

#include <array>

#include "support/check.hpp"
#include "support/cli.hpp"

namespace sttsv {
namespace {

ArgParser make(std::initializer_list<const char*> argv) {
  static std::vector<const char*> storage;
  storage.assign(argv.begin(), argv.end());
  return ArgParser(static_cast<int>(storage.size()), storage.data());
}

TEST(ArgParser, PositionalAndOptions) {
  const auto args =
      make({"prog", "run", "--q", "3", "--transport", "a2a", "extra"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "run");
  EXPECT_EQ(args.positional()[1], "extra");
  EXPECT_EQ(args.get("q"), "3");
  EXPECT_EQ(args.get_u64("q"), 3u);
  EXPECT_EQ(args.get("transport"), "a2a");
}

TEST(ArgParser, BareFlags) {
  const auto args = make({"prog", "--verbose", "--n", "5"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_THROW(args.get("verbose"), PreconditionError);
  EXPECT_EQ(args.get_u64("n"), 5u);
}

TEST(ArgParser, TrailingFlag) {
  const auto args = make({"prog", "cmd", "--dry-run"});
  EXPECT_TRUE(args.has("dry-run"));
}

TEST(ArgParser, Defaults) {
  const auto args = make({"prog"});
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get_or("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_u64_or("missing", 9), 9u);
  EXPECT_THROW(args.get("missing"), PreconditionError);
}

TEST(ArgParser, ConsecutiveOptionsAreFlags) {
  const auto args = make({"prog", "--a", "--b", "value"});
  EXPECT_TRUE(args.has("a"));
  EXPECT_THROW(args.get("a"), PreconditionError);  // flag, no value
  EXPECT_EQ(args.get("b"), "value");
}

TEST(ArgParser, UnusedDetection) {
  const auto args = make({"prog", "--used", "1", "--typo", "2"});
  (void)args.get("used");
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ArgParser, BadNumbersThrow) {
  const auto args = make({"prog", "--n", "abc"});
  EXPECT_THROW(static_cast<void>(args.get_u64("n")), PreconditionError);
}

TEST(ArgParser, FloatOptions) {
  const auto args = make({"prog", "--shift", "-2.5", "--bad", "1.0abc",
                          "--nan", "nan", "--flag"});
  EXPECT_EQ(args.get_f64_or("shift", 1.0), -2.5);
  EXPECT_EQ(args.get_f64_or("missing", 1.0), 1.0);
  EXPECT_THROW(static_cast<void>(args.get_f64_or("bad", 1.0)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(args.get_f64_or("nan", 1.0)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(args.get_f64_or("flag", 1.0)),
               PreconditionError);  // bare flag, no value
}

}  // namespace
}  // namespace sttsv
