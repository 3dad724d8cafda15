#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/json.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/worker_pool.h"
#include "obs/metrics.h"

namespace toss {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EveryCodeHasDistinctName) {
  std::set<std::string> names;
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kParseError,
        StatusCode::kTypeError, StatusCode::kInconsistent,
        StatusCode::kIOError, StatusCode::kInternal,
        StatusCode::kUnsupported, StatusCode::kUnavailable,
        StatusCode::kResourceExhausted, StatusCode::kDeadlineExceeded,
        StatusCode::kCancelled}) {
    names.insert(StatusCodeName(c));
  }
  EXPECT_EQ(names.size(), 14u);
}

TEST(StatusTest, ServiceCodes) {
  Status shed = Status::ResourceExhausted("queue full");
  EXPECT_TRUE(shed.IsResourceExhausted());
  EXPECT_EQ(shed.ToString(), "ResourceExhausted: queue full");

  Status late = Status::DeadlineExceeded("too slow");
  EXPECT_TRUE(late.IsDeadlineExceeded());
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);

  Status gone = Status::Cancelled("caller hung up");
  EXPECT_TRUE(gone.IsCancelled());
  EXPECT_FALSE(gone.IsDeadlineExceeded());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto inner = []() { return Status::IOError("disk gone"); };
  auto outer = [&]() -> Status {
    TOSS_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsIOError());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::ParseError("bad int");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto makes = []() -> Result<std::string> { return std::string("x"); };
  auto fails = []() -> Result<std::string> {
    return Status::NotFound("nope");
  };
  auto use = [&](bool fail) -> Result<int> {
    TOSS_ASSIGN_OR_RETURN(std::string s, fail ? fails() : makes());
    return static_cast<int>(s.size());
  };
  EXPECT_EQ(*use(false), 1);
  EXPECT_TRUE(use(true).status().IsNotFound());
}

TEST(ResultTest, ValueOrMovesFromRvalueResult) {
  auto make = [](bool ok) -> Result<std::vector<int>> {
    if (ok) return std::vector<int>{1, 2, 3};
    return Status::NotFound("nope");
  };
  EXPECT_EQ(make(true).value_or({}).size(), 3u);
  EXPECT_EQ(make(false).value_or({9}).size(), 1u);

  // The lvalue overload leaves the Result usable.
  Result<std::string> r = std::string("keep");
  EXPECT_EQ(r.value_or("fallback"), "keep");
  EXPECT_EQ(*r, "keep");
}

TEST(CancelTokenTest, PlainTokenNeverFiresUntilCancelled) {
  CancelToken t;
  EXPECT_TRUE(t.Check().ok());
  EXPECT_TRUE(CheckCancel(&t).ok());
  EXPECT_TRUE(CheckCancel(nullptr).ok());
  t.Cancel();
  EXPECT_TRUE(t.Check().IsCancelled());
}

TEST(CancelTokenTest, ExpiredDeadlineIsDeadlineExceeded) {
  CancelToken t(CancelToken::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(t.Check().IsDeadlineExceeded());

  CancelToken future = CancelToken::AfterMillis(60'000);
  EXPECT_TRUE(future.Check().ok());
  EXPECT_TRUE(future.has_deadline());
}

TEST(CancelTokenTest, ParentCancellationPropagates) {
  CancelToken parent;
  CancelToken child = CancelToken::AfterMillis(60'000, &parent);
  EXPECT_TRUE(child.Check().ok());
  parent.Cancel();
  EXPECT_TRUE(child.Check().IsCancelled());
}

// ---------------------------------------------------------------------------
// String utilities
// ---------------------------------------------------------------------------

TEST(StringUtilTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLower("AbC dEf"), "abc def");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(StringUtilTest, SplitAndJoin) {
  auto parts = SplitAny("a,b;;c", ",;");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(Join(parts, "-"), "a-b-c");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, StartsEndsContains) {
  EXPECT_TRUE(StartsWith("inproceedings", "in"));
  EXPECT_FALSE(StartsWith("in", "inproceedings"));
  EXPECT_TRUE(EndsWith("booktitle", "title"));
  EXPECT_TRUE(Contains("SIGMOD Conference", "MOD"));
  EXPECT_TRUE(ContainsIgnoreCase("SIGMOD Conference", "sigmod"));
  EXPECT_FALSE(ContainsIgnoreCase("SIGMOD", "sigmodx"));
  EXPECT_TRUE(EqualsIgnoreCase("VLDB", "vldb"));
}

TEST(StringUtilTest, TokenizeWords) {
  auto toks = TokenizeWords("J. D. Ullman-Smith 2nd");
  std::vector<std::string> expect{"j", "d", "ullman", "smith", "2nd"};
  EXPECT_EQ(toks, expect);
}

TEST(StringUtilTest, ParseIntAndDouble) {
  long long i;
  EXPECT_TRUE(ParseInt(" 42 ", &i));
  EXPECT_EQ(i, 42);
  EXPECT_FALSE(ParseInt("4x", &i));
  EXPECT_FALSE(ParseInt("", &i));
  double d;
  EXPECT_TRUE(ParseDouble("3.5", &d));
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_FALSE(ParseDouble("abc", &d));
}

TEST(StringUtilTest, CompareScalarIntegers) {
  EXPECT_EQ(CompareScalar("2", "10"), -1);   // numeric, not lexicographic
  EXPECT_EQ(CompareScalar("10", "2"), 1);
  EXPECT_EQ(CompareScalar("007", "7"), 0);   // non-canonical spellings
  EXPECT_EQ(CompareScalar("-5", "3"), -1);
  EXPECT_EQ(CompareScalar("1999", "1999"), 0);
}

TEST(StringUtilTest, CompareScalarDoubles) {
  EXPECT_EQ(CompareScalar("3.5", "4.25"), -1);
  EXPECT_EQ(CompareScalar("4.25", "3.5"), 1);
  EXPECT_EQ(CompareScalar("2.50", "2.5"), 0);
}

TEST(StringUtilTest, CompareScalarStrings) {
  EXPECT_EQ(CompareScalar("apple", "banana"), -1);
  EXPECT_EQ(CompareScalar("banana", "apple"), 1);
  EXPECT_EQ(CompareScalar("same", "same"), 0);
}

TEST(StringUtilTest, CompareScalarMixedIsIncomparable) {
  EXPECT_EQ(CompareScalar("1999", "abc"), std::nullopt);
  EXPECT_EQ(CompareScalar("abc", "1999"), std::nullopt);
  EXPECT_EQ(CompareScalar("3.5", "4"), std::nullopt);   // double vs int
  EXPECT_EQ(CompareScalar("3.5", "abc"), std::nullopt);  // double vs string
}

TEST(StringUtilTest, CompareScalarTotalOrderWithinEachClass) {
  // Antisymmetry and transitivity spot checks within one class.
  Random rng(31);
  std::vector<std::string> ints, strs;
  for (int i = 0; i < 12; ++i) {
    ints.push_back(std::to_string(rng.UniformRange(-500, 500)));
    strs.push_back(rng.AlphaString(1 + rng.Uniform(6)));
  }
  for (const auto& pool : {ints, strs}) {
    for (const auto& a : pool) {
      for (const auto& b : pool) {
        auto ab = CompareScalar(a, b);
        auto ba = CompareScalar(b, a);
        ASSERT_TRUE(ab.has_value());
        ASSERT_TRUE(ba.has_value());
        EXPECT_EQ(*ab, -*ba) << a << " vs " << b;
      }
    }
  }
}

TEST(StringUtilTest, GlobMatch) {
  EXPECT_TRUE(GlobMatch("*Microsoft*", "About Microsoft SQL Server"));
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("a*c", "abbbc"));
  EXPECT_FALSE(GlobMatch("a*c", "abd"));
  EXPECT_TRUE(GlobMatch("abc", "abc"));
  EXPECT_FALSE(GlobMatch("abc", "abcd"));
}

// ---------------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------------

TEST(RandomTest, DeterministicForSeed) {
  Random a(7), b(7), c(8);
  std::vector<uint64_t> va, vb, vc;
  for (int i = 0; i < 16; ++i) {
    va.push_back(a.Next());
    vb.push_back(b.Next());
    vc.push_back(c.Next());
  }
  EXPECT_EQ(va, vb);
  EXPECT_NE(va, vc);
}

TEST(RandomTest, UniformInRange) {
  Random rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(5);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RandomTest, ZipfSkewsTowardsLowRanks) {
  Random rng(17);
  size_t low = 0, total = 5000;
  for (size_t i = 0; i < total; ++i) {
    if (rng.Zipf(100, 1.0) < 10) ++low;
  }
  // With theta=1, the first 10 of 100 ranks carry well over a third of
  // the mass.
  EXPECT_GT(low, total / 3);
}

TEST(WorkerPoolTest, RunsEveryIndexOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  Status st = pool.ParallelFor(100, [&](size_t i) {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, FirstErrorAbortsAndPoolStaysUsable) {
  WorkerPool pool(4);
  std::atomic<size_t> ran{0};
  std::atomic<bool> task3_ran{false};
  Status st = pool.ParallelFor(10'000, [&](size_t i) {
    ran.fetch_add(1);
    if (i == 3) {
      task3_ran.store(true);
      return Status::IOError("task 3 failed");
    }
    // Later tasks wait for task 3, so the other workers cannot drain the
    // range while the worker holding index 3 is descheduled. The cursor
    // hands out indexes in increasing order, so index 3 is always claimed
    // and this cannot deadlock.
    while (i > 3 && !task3_ran.load()) std::this_thread::yield();
    return Status::OK();
  });
  ASSERT_TRUE(st.IsIOError()) << st;
  // The abort flag dropped the bulk of the range.
  EXPECT_LT(ran.load(), 10'000u);

  // An aborted batch must not poison the pool: the next batch runs fully.
  std::vector<std::atomic<int>> hits(64);
  st = pool.ParallelFor(64, [&](size_t i) {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st;
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, ThrowingTaskBecomesInternalErrorNotDeadlock) {
  WorkerPool pool(4);
  Status st = pool.ParallelFor(1'000, [&](size_t i) -> Status {
    if (i == 7) throw std::runtime_error("boom at 7");
    return Status::OK();
  });
  ASSERT_TRUE(st.IsInternal()) << st;
  EXPECT_NE(st.message().find("boom at 7"), std::string::npos) << st;

  // Reuse after the throwing batch, including a non-std thrower.
  st = pool.ParallelFor(16, [&](size_t i) -> Status {
    if (i == 2) throw 42;  // NOLINT(hicpp-exception-baseclass)
    return Status::OK();
  });
  ASSERT_TRUE(st.IsInternal()) << st;

  std::atomic<size_t> ran{0};
  st = pool.ParallelFor(32, [&](size_t) {
    ran.fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(ran.load(), 32u);
}

TEST(WorkerPoolTest, SharedPoolSurvivesThrowingBatch) {
  Status st = SharedParallelFor(8, [&](size_t i) -> Status {
    if (i == 1) throw std::runtime_error("shared boom");
    return Status::OK();
  });
  ASSERT_TRUE(st.IsInternal()) << st;
  std::atomic<size_t> ran{0};
  st = SharedParallelFor(8, [&](size_t) {
    ran.fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(ran.load(), 8u);
}

TEST(RandomTest, AlphaStringShapeAndDeterminism) {
  Random a(9), b(9);
  std::string sa = a.AlphaString(24);
  EXPECT_EQ(sa.size(), 24u);
  for (char c : sa) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
  EXPECT_EQ(sa, b.AlphaString(24));
}

// ---------------------------------------------------------------------------
// JsonValue (the telemetry read-back parser)
// ---------------------------------------------------------------------------

TEST(JsonTest, ParsesScalars) {
  using common::JsonValue;
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_TRUE(JsonValue::Parse("true")->AsBool());
  EXPECT_FALSE(JsonValue::Parse("false")->AsBool(true));
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-3.5e2")->AsDouble(), -350.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonTest, ParsesNestedDocument) {
  using common::JsonValue;
  auto doc = JsonValue::Parse(
      R"({"a":{"b":[1,2,{"c":"deep"}]},"empty":{},"list":[]})");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const JsonValue* b = doc->Get("a")->Get("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->size(), 3u);
  EXPECT_DOUBLE_EQ(b->At(0)->AsDouble(), 1.0);
  EXPECT_EQ(b->At(2)->Get("c")->AsString(), "deep");
  EXPECT_EQ(doc->Get("empty")->size(), 0u);
  EXPECT_TRUE(doc->Get("list")->is_array());
  EXPECT_EQ(doc->Get("missing"), nullptr);
  EXPECT_EQ(b->At(99), nullptr);
}

TEST(JsonTest, ParsesEscapes) {
  using common::JsonValue;
  auto doc = JsonValue::Parse(R"("q\"b\\s\/n\nt\tu\u0041")");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->AsString(), "q\"b\\s/n\nt\tuA");
  // Multi-byte \u escapes UTF-8 encode.
  EXPECT_EQ(JsonValue::Parse(R"("\u00e9")")->AsString(), "\xC3\xA9");
}

/// Random strings over the bytes string escaping cares about: every JSON
/// and XML escape character, control bytes, DEL, UTF-8 sequences and plain
/// ASCII, with an escape character forced into the first and last position
/// of some strings.
std::vector<std::string> EscapeProbeStrings(uint64_t seed) {
  const std::vector<std::string> pieces = {
      "\"", "\\", "/", "&", "<", ">", "'", "\b", "\f", "\n", "\r", "\t",
      std::string(1, '\0'), "\x01", "\x1f", "\x7f", "\xC3\xA9",
      "\xE2\x82\xAC", "\xF0\x9F\x98\x80", "\xFF", "a", "Z", " ", "09"};
  Random rng(seed);
  std::vector<std::string> out = {"", "\"", "\x01", "plain"};
  for (int i = 0; i < 500; ++i) {
    std::string s;
    for (size_t n = rng.Uniform(12); n > 0; --n) s += rng.Choice(pieces);
    if (i % 5 == 0) s = rng.Choice(pieces) + s;
    if (i % 7 == 0) s += rng.Choice(pieces);
    out.push_back(std::move(s));
  }
  return out;
}

TEST(JsonTest, StringDumpMatchesByteAtATimeReference) {
  using common::JsonValue;
  auto reference = [](const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      const auto u = static_cast<unsigned char>(c);
      if (c == '"') {
        out += "\\\"";
      } else if (c == '\\') {
        out += "\\\\";
      } else if (c == '\b') {
        out += "\\b";
      } else if (c == '\f') {
        out += "\\f";
      } else if (c == '\n') {
        out += "\\n";
      } else if (c == '\r') {
        out += "\\r";
      } else if (c == '\t') {
        out += "\\t";
      } else if (u < 0x20) {
        const char* hex = "0123456789abcdef";
        out += "\\u00";
        out += hex[u >> 4];
        out += hex[u & 0xf];
      } else {
        out += c;
      }
    }
    return out + "\"";
  };
  for (const std::string& s : EscapeProbeStrings(4242)) {
    ASSERT_EQ(JsonValue::String(s).Dump(), reference(s));
  }
}

TEST(JsonTest, NumberDumpMatchesPrintfReference) {
  using common::JsonValue;
  // Integers print with "%.0f"; other doubles with the fewest of 15, 16 or
  // 17 "%g" digits that read back as the same double.
  auto reference = [](double v) -> std::string {
    char buf[40];
    if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
      std::snprintf(buf, sizeof(buf), "%.0f", v);
      return buf;
    }
    for (int prec = 15; prec <= 17; ++prec) {
      std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
      if (std::strtod(buf, nullptr) == v) break;
    }
    return buf;
  };
  Random rng(99);
  std::vector<double> values = {0.1, 0.3, 1.0 / 3.0, 2.5e-7, 1e21, -1e-300,
                                5e-324, 1.7976931348623157e308, 123.456,
                                9007199254740993.0, -0.0001};
  for (int i = 0; i < 2000; ++i) {
    const double mantissa = rng.NextDouble() * 2 - 1;
    values.push_back(std::ldexp(mantissa, static_cast<int>(rng.Uniform(200)) - 100));
    values.push_back(static_cast<double>(rng.Uniform(1000000)) / 1000.0);
  }
  for (double v : values) {
    ASSERT_EQ(JsonValue::Number(v).Dump(), reference(v)) << v;
  }
}

TEST(JsonTest, RejectsMalformedInput) {
  using common::JsonValue;
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\":1,}", "nul", "\"\\u12g4\"", "{\"a\" 1}"}) {
    auto r = JsonValue::Parse(bad);
    EXPECT_FALSE(r.ok()) << "accepted: " << bad;
    if (!r.ok()) EXPECT_TRUE(r.status().IsParseError()) << bad;
  }
  // RFC 8259: raw control bytes inside a string must be escaped.
  for (const char* bad : {"\"a\nb\"", "\"tab\there\"", "{\"k\x01\":1}"}) {
    auto r = JsonValue::Parse(bad);
    ASSERT_FALSE(r.ok()) << "accepted raw control byte: " << bad;
    EXPECT_TRUE(r.status().IsParseError()) << bad;
  }
  // RFC 8259 numbers: no plus sign, no leading zeros, digits on both sides
  // of the point, digits in the exponent.
  for (const char* bad : {"+1", "01", "-01", ".5", "5.", "-", "1e", "1e+",
                          "[1.e5]", "{\"n\":-.5}", "0x10"}) {
    auto r = JsonValue::Parse(bad);
    ASSERT_FALSE(r.ok()) << "accepted malformed number: " << bad;
    EXPECT_TRUE(r.status().IsParseError()) << bad;
  }
  // Lone, reversed or broken surrogate escapes.
  for (const char* bad : {"\"\\ud83d\"", "\"\\ude00\"", "\"\\ude00\\ud83d\"",
                          "\"\\ud83dx\"", "\"\\ud83d\\u0041\""}) {
    auto r = JsonValue::Parse(bad);
    ASSERT_FALSE(r.ok()) << "accepted unpaired surrogate: " << bad;
    EXPECT_TRUE(r.status().IsParseError()) << bad;
  }
}

TEST(JsonTest, ParsesRfc8259Numbers) {
  using common::JsonValue;
  const std::pair<const char*, double> kCases[] = {
      {"0", 0.0},      {"-0", 0.0},     {"10", 10.0},   {"-7", -7.0},
      {"0.5", 0.5},    {"1.5e3", 1500}, {"2E-2", 0.02}, {"-1.25e+1", -12.5}};
  for (const auto& [text, want] : kCases) {
    auto r = JsonValue::Parse(text);
    ASSERT_TRUE(r.ok()) << text << ": " << r.status();
    EXPECT_DOUBLE_EQ(r->AsDouble(), want) << text;
  }
}

TEST(JsonTest, EscapedSurrogatePairDecodesToUtf8) {
  // U+1F600, as Python's json.dumps escapes it by default.
  auto r = common::JsonValue::Parse("\"a\\ud83d\\ude00b\"");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->AsString(), "a\xF0\x9F\x98\x80" "b");
  // BMP escapes keep their 1-3 byte forms.
  auto bmp = common::JsonValue::Parse("\"\\u00e9\\u20ac\"");
  ASSERT_TRUE(bmp.ok()) << bmp.status();
  EXPECT_EQ(bmp->AsString(), "\xC3\xA9\xE2\x82\xAC");
}

TEST(JsonTest, DepthBounded) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  auto r = common::JsonValue::Parse(deep);
  EXPECT_FALSE(r.ok());
}

TEST(JsonTest, RoundTripsMetricsSnapshotJson) {
  // The parser must read what the registry writes -- the contract the
  // telemetry tests rely on.
  obs::MetricsRegistry reg;
  reg.GetCounter("a.count").Add(3);
  reg.GetHistogram("a.lat_ns").Record(1'000'000);
  auto doc = common::JsonValue::Parse(reg.SnapshotJson().Dump());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_DOUBLE_EQ(doc->Get("counters")->Get("a.count")->AsDouble(), 3.0);
  const common::JsonValue* h = doc->Get("histograms")->Get("a.lat_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->Get("count")->AsDouble(), 1.0);
  EXPECT_EQ(h->Get("buckets")->size(), obs::Histogram::kBuckets);
}

}  // namespace
}  // namespace toss
