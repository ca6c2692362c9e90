#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "wimesh/common/expected.h"
#include "wimesh/common/parse.h"
#include "wimesh/common/rng.h"
#include "wimesh/common/strings.h"
#include "wimesh/common/time.h"

namespace wimesh {
namespace {

// ---------------------------------------------------------------- SimTime

TEST(SimTimeTest, UnitConversionsRoundTrip) {
  EXPECT_EQ(SimTime::microseconds(5).ns(), 5'000);
  EXPECT_EQ(SimTime::milliseconds(10).ns(), 10'000'000);
  EXPECT_EQ(SimTime::seconds(2).ns(), 2'000'000'000);
  EXPECT_DOUBLE_EQ(SimTime::milliseconds(10).to_seconds(), 0.010);
  EXPECT_DOUBLE_EQ(SimTime::microseconds(1500).to_ms(), 1.5);
}

TEST(SimTimeTest, FromSecondsRoundsToNearestNanosecond) {
  EXPECT_EQ(SimTime::from_seconds(1e-9).ns(), 1);
  EXPECT_EQ(SimTime::from_seconds(2.5e-9).ns(), 3);
  EXPECT_EQ(SimTime::from_seconds(0.02).ns(), 20'000'000);
  EXPECT_EQ(SimTime::from_seconds(-1e-9).ns(), -1);
}

TEST(SimTimeTest, ArithmeticAndComparison) {
  const SimTime a = SimTime::milliseconds(3);
  const SimTime b = SimTime::milliseconds(7);
  EXPECT_EQ((a + b).ns(), SimTime::milliseconds(10).ns());
  EXPECT_EQ((b - a).ns(), SimTime::milliseconds(4).ns());
  EXPECT_LT(a, b);
  EXPECT_EQ(a * 2, SimTime::milliseconds(6));
  EXPECT_EQ(2 * a, SimTime::milliseconds(6));
  EXPECT_EQ(b / a, 2);  // integer frame count
  EXPECT_EQ(b % a, SimTime::milliseconds(1));
  EXPECT_EQ((-a).ns(), -3'000'000);
}

TEST(SimTimeTest, ToStringPicksAdaptiveUnit) {
  EXPECT_EQ(SimTime::nanoseconds(12).to_string(), "12ns");
  EXPECT_EQ(SimTime::microseconds(9).to_string(), "9.000us");
  EXPECT_EQ(SimTime::milliseconds(10).to_string(), "10.000ms");
  EXPECT_EQ(SimTime::seconds(3).to_string(), "3.000s");
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, SplitStreamsAreIndependentOfParentDraws) {
  // Splitting must not depend on how much the parent has been consumed
  // after seeding: child identity is (seed, split index).
  Rng parent1(7);
  Rng child1 = parent1.split();
  Rng parent2(7);
  parent2.next_u64();  // consume some parent output first
  parent2.next_u64();
  Rng child2 = parent2.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(RngTest, SuccessiveSplitsDiffer) {
  Rng parent(7);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(RngTest, UniformWithinRange) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanCloseToHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBelowIsInRangeAndCoversAll) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.05);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(RngTest, ChanceFrequencyMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// --------------------------------------------------------------- Expected

TEST(ExpectedTest, HoldsValue) {
  Expected<int> e(5);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 5);
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> e = make_error("boom");
  ASSERT_FALSE(e);
  EXPECT_EQ(e.error(), "boom");
}

TEST(ExpectedTest, StringValueDisambiguatedFromError) {
  Expected<std::string> ok(std::string("payload"));
  ASSERT_TRUE(ok);
  EXPECT_EQ(*ok, "payload");
  Expected<std::string> bad = make_error("err");
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.error(), "err");
}

TEST(ExpectedTest, MoveOutValue) {
  Expected<std::vector<int>> e(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(e).value();
  EXPECT_EQ(v.size(), 3u);
}

// ---------------------------------------------------------------- strings

TEST(StringsTest, StrCat) {
  EXPECT_EQ(str_cat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(str_cat(), "");
}

TEST(StringsTest, FmtDouble) {
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_double(2.0), "2.000");
}

TEST(StringsTest, JoinAndSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

// ------------------------------------------------------------------ parse

TEST(ParseTest, TrimAndTokenize) {
  EXPECT_EQ(trim(" \t a b \r\n"), "a b");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(tokenize("  a \t bb  c "),
            (std::vector<std::string>{"a", "bb", "c"}));
  EXPECT_TRUE(tokenize(" \t ").empty());
}

TEST(ParseTest, IntegersAreExactAndRangeChecked) {
  EXPECT_EQ(*parse_int<int>("42", "f", 0, 100), 42);
  EXPECT_EQ(*parse_int<int>("1e2", "f", 0, 100), 100);  // exact exponent form
  EXPECT_EQ(*parse_int<std::int64_t>("-7", "f", -10, 10), -7);
  EXPECT_EQ(*parse_int<std::uint64_t>("9007199254740992", "f"),
            9007199254740992u);  // 2^53
  EXPECT_EQ(*parse_int<std::uint64_t>("1e19", "f"), 10000000000000000000u);
  for (const char* bad : {"0.5", "nan", "inf", "-1", "101", "1e30", "", " 5",
                          "5x", "18446744073709551616"}) {
    const auto v = parse_int<int>(bad, "knob", 0, 100);
    ASSERT_FALSE(v.has_value()) << bad;
    EXPECT_EQ(v.error(), str_cat("knob must be an integer in [0, 100] (got '",
                                 bad, "')"));
  }
  // Decimal literals a double cannot hold are errors, not silently rounded.
  for (const char* inexact : {"9007199254740993", "18446744073709551615"}) {
    const auto v = parse_int<std::uint64_t>(inexact, "seed");
    ASSERT_FALSE(v.has_value()) << inexact;
    EXPECT_NE(v.error().find("not exactly representable"), std::string::npos)
        << v.error();
  }
}

TEST(ParseTest, RealsAreFiniteAndRangeChecked) {
  EXPECT_DOUBLE_EQ(*parse_real("2.5", "f", {0.0, 10.0}), 2.5);
  EXPECT_DOUBLE_EQ(*parse_real("-1e3", "f"), -1000.0);
  EXPECT_FALSE(parse_real("0", "f", positive(1.0)).has_value());
  EXPECT_TRUE(parse_real("1", "f", positive(1.0)).has_value());
  EXPECT_EQ(parse_real("nan", "x", {0.0, 1.0}).error(),
            "x must be a number in [0, 1] (got 'nan')");
  EXPECT_EQ(parse_real("0", "x", positive(1.0)).error(),
            "x must be a number in (0, 1] (got '0')");
  EXPECT_EQ(parse_real("1e400", "x").error(),
            "x must be a finite number (got '1e400')");
}

TEST(ParseTest, KnobTableAppliesListsAndNamesUnknownTokens) {
  bool flag = true;
  int n = 0;
  double x = 0.0;
  bool on = false;
  const KnobTable table = {
      knob_word("on", [&on] { on = true; }),
      knob_flag("cuts", &flag),
      knob_int<int>("n", &n, 1, 9),
      knob_real("x", &x, {0.0, 1.0}),
  };
  ASSERT_TRUE(apply_knobs(" on, no-cuts , n = 3,x=0.5,,", "demo", table));
  EXPECT_TRUE(on);
  EXPECT_FALSE(flag);
  EXPECT_EQ(n, 3);
  EXPECT_DOUBLE_EQ(x, 0.5);
  EXPECT_EQ(apply_knobs("bogus", "demo", table).error(),
            "unknown demo token 'bogus' (expected on|[no-]cuts|n=N|x=X)");
  EXPECT_EQ(apply_knobs("y=1", "demo", table).error(),
            "unknown demo knob 'y'");
  EXPECT_EQ(apply_knobs("n=10", "demo", table).error(),
            "demo n must be an integer in [1, 9] (got '10')");
  EXPECT_EQ(n, 3);  // a rejected value leaves the target alone
}

}  // namespace
}  // namespace wimesh
