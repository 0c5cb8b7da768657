#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace grasp {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, OkCodeDropsMessage) {
  Status s(StatusCode::kOk, "ignored");
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, OkStatusIsNormalizedToInternalError) {
  Result<int> r{Status::Ok()};
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status FailingHelper() { return Status::ParseError("inner"); }

Status UsesReturnIfError() {
  GRASP_RETURN_IF_ERROR(FailingHelper());
  return Status::Ok();
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnIfError().code(), StatusCode::kParseError);
}

Result<int> GiveInt(bool ok) {
  if (ok) return 7;
  return Status::NotFound("no int");
}

Status UsesAssignOrReturn(bool ok, int* out) {
  GRASP_ASSIGN_OR_RETURN(*out, GiveInt(ok));
  return Status::Ok();
}

TEST(StatusMacrosTest, AssignOrReturnAssigns) {
  int out = 0;
  EXPECT_TRUE(UsesAssignOrReturn(true, &out).ok());
  EXPECT_EQ(out, 7);
}

TEST(StatusMacrosTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_EQ(UsesAssignOrReturn(false, &out).code(), StatusCode::kNotFound);
  EXPECT_EQ(out, 0);
}

// ----------------------------------------------------------- StringUtil --

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, JoinRoundTrips) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringUtilTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLower("AbC123xYz"), "abc123xyz");
}

TEST(StringUtilTest, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n"), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("hello", "hello!"));
  EXPECT_TRUE(EndsWith("hello", "lo"));
  EXPECT_FALSE(EndsWith("lo", "hello"));
}

TEST(StringUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringUtilTest, HumanBytesScales) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MB");
}

TEST(StringUtilTest, ParseUintIsStrict) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(ParseUint("0", 10), 0u);
  EXPECT_EQ(ParseUint("65535", 65535), 65535u);
  EXPECT_EQ(ParseUint("007", 10), 7u);
  EXPECT_EQ(ParseUint("18446744073709551615", kMax), kMax);
  EXPECT_EQ(ParseUint("", kMax), std::nullopt);
  EXPECT_EQ(ParseUint("-1", kMax), std::nullopt);
  EXPECT_EQ(ParseUint("+1", kMax), std::nullopt);
  EXPECT_EQ(ParseUint(" 1", kMax), std::nullopt);
  EXPECT_EQ(ParseUint("1 ", kMax), std::nullopt);
  EXPECT_EQ(ParseUint("12x", kMax), std::nullopt);
  EXPECT_EQ(ParseUint("0x10", kMax), std::nullopt);
  EXPECT_EQ(ParseUint("1.5", kMax), std::nullopt);
  EXPECT_EQ(ParseUint("65536", 65535), std::nullopt);
  EXPECT_EQ(ParseUint("70000", 65535), std::nullopt);
  EXPECT_EQ(ParseUint("18446744073709551616", kMax), std::nullopt);
  // A bounded view: bytes past the view's end are not part of the input.
  EXPECT_EQ(ParseUint(std::string_view("123", 2), kMax), 12u);
}

// ------------------------------------------------------------------ Rng --

TEST(RngTest, DeterministicBySeed) {
  Rng a(7), b(7), c(8);
  bool all_equal = true, any_diff_seed_diff = false;
  for (int i = 0; i < 100; ++i) {
    std::uint64_t va = a.Next(), vb = b.Next(), vc = c.Next();
    all_equal = all_equal && (va == vb);
    any_diff_seed_diff = any_diff_seed_diff || (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_diff);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    std::int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(6);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(ZipfTest, HeavierHeadThanTail) {
  Rng rng(9);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[50] * 5);
  EXPECT_GT(counts[0], 0);
}

TEST(ZipfTest, SampleWithinBounds) {
  Rng rng(10);
  ZipfSampler zipf(7, 1.2);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(&rng), 7u);
}

TEST(ZipfTest, UniformWhenExponentZero) {
  Rng rng(11);
  ZipfSampler zipf(4, 0.0);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[zipf.Sample(&rng)];
  for (int c : counts) {
    EXPECT_GT(c, 8000);
    EXPECT_LT(c, 12000);
  }
}

// ----------------------------------------------------------------- Hash --

TEST(HashTest, HashValuesDiffersOnOrder) {
  EXPECT_NE(HashValues(1, 2), HashValues(2, 1));
}

TEST(HashTest, PairHashUsableInSets) {
  PairHash h;
  EXPECT_NE(h(std::make_pair(1, 2)), h(std::make_pair(1, 3)));
}

// ---------------------------------------------------------------- Timer --

TEST(TimerTest, MonotoneAndResettable) {
  WallTimer t;
  double first = t.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(t.ElapsedSeconds(), first);
  t.Reset();
  EXPECT_GE(t.ElapsedMicros(), 0);
}

}  // namespace
}  // namespace grasp
