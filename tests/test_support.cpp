// Tests for the support layer: checks, RNG determinism/statistics, text
// tables, and string utilities.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace sttsv {
namespace {

TEST(Check, RequireThrowsPrecondition) {
  EXPECT_THROW(STTSV_REQUIRE(false, "boom"), PreconditionError);
  EXPECT_NO_THROW(STTSV_REQUIRE(true, "fine"));
}

TEST(Check, CheckThrowsInternal) {
  EXPECT_THROW(STTSV_CHECK(false, "bug"), InternalError);
  EXPECT_NO_THROW(STTSV_CHECK(true, "fine"));
}

TEST(Check, MessageContainsContext) {
  try {
    STTSV_REQUIRE(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("custom context"), std::string::npos);
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowHitsAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UnitIntervalBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMeanRoughlyZero) {
  Rng rng(17);
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += rng.next_normal();
  EXPECT_NEAR(sum / trials, 0.0, 0.05);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, UniformVectorRange) {
  Rng rng(9);
  const auto v = rng.uniform_vector(100, 2.0, 3.0);
  ASSERT_EQ(v.size(), 100u);
  for (const double x : v) {
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(TextTable, RendersAlignedCells) {
  TextTable t({"name", "value"}, {Align::kLeft, Align::kRight});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  EXPECT_NE(out.find("|    22 |"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(TextTable, SeparatorRenders) {
  TextTable t({"h"});
  t.add_row({"x"});
  t.add_separator();
  t.add_row({"y"});
  // 5 horizontal lines: top, under header, separator, bottom... count '+'.
  const std::string out = t.render();
  EXPECT_NE(out.find('+'), std::string::npos);
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(2.0, 3), "2.000");
}

TEST(Text, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Text, TrimWhitespace) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Text, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64(" 42 "), 42u);
  EXPECT_THROW(parse_u64("4x2"), PreconditionError);
  EXPECT_THROW(parse_u64(""), PreconditionError);
  // 2^64 - 1 is the largest value; one past it (and beyond) must not wrap.
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_THROW(parse_u64("18446744073709551616"), PreconditionError);
  EXPECT_THROW(parse_u64("18446744073709551617"), PreconditionError);
  EXPECT_THROW(parse_u64("99999999999999999999999"), PreconditionError);
}

TEST(Text, ParseF64) {
  EXPECT_EQ(parse_f64("1"), 1.0);
  EXPECT_EQ(parse_f64("-0.5"), -0.5);
  EXPECT_EQ(parse_f64("1e-3"), 1e-3);
  for (const char* junk :
       {"", "1.0abc", "abc", "nan", "inf", "-inf", " 1", "1 ", "1e999"}) {
    EXPECT_THROW(parse_f64(junk), PreconditionError) << "'" << junk << "'";
  }
}

TEST(Text, BraceSetAndTriple) {
  EXPECT_EQ(brace_set({1, 4, 6, 8}), "{1,4,6,8}");
  EXPECT_EQ(brace_set({}), "{}");
  EXPECT_EQ(triple(6, 4, 1), "(6,4,1)");
}

}  // namespace
}  // namespace sttsv
