// The canonical JSON document model that the scenario content hash stands
// on: key-sorted objects, no whitespace, shortest round-trip numbers.

#include "scenario/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace cloudrepro::scenario {
namespace {

TEST(ScenarioJson, CanonicalSortsKeysAndDropsWhitespace) {
  const Json a = Json::parse(R"(  { "b" : 1 , "a" : [ 2 , 3 ] , "c" : { "z" : true , "y" : null } }  )");
  EXPECT_EQ(a.canonical(), R"({"a":[2,3],"b":1,"c":{"y":null,"z":true}})");
}

TEST(ScenarioJson, FieldOrderDoesNotAffectCanonicalBytes) {
  const Json a = Json::parse(R"({"x":1,"y":2})");
  const Json b = Json::parse(R"({ "y" : 2, "x" : 1 })");
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a, b);
}

TEST(ScenarioJson, ParseCanonicalRoundTripsEveryType) {
  const char* text =
      R"({"arr":[1,-2,3.5],"big":18446744073709551615,"f":false,"n":null,"neg":-9223372036854775808,"s":"a\"b\\c\n","t":true})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.canonical(), text);
  EXPECT_EQ(Json::parse(doc.canonical()), doc);
}

TEST(ScenarioJson, DoubleCanonicalFormIsShortestRoundTrip) {
  EXPECT_EQ(canonical_double(0.1), "0.1");
  EXPECT_EQ(canonical_double(5000.0), "5000");
  EXPECT_EQ(canonical_double(0.95), "0.95");
  EXPECT_EQ(canonical_double(-0.0), "0");
  // Every canonical double parses back to the same binary64.
  for (const double v : {0.1, 1.0 / 3.0, 1e-12, 9.875e20, 20200225.0}) {
    const Json parsed = Json::parse(canonical_double(v));
    EXPECT_EQ(parsed.as_double(), v);
  }
}

// Golden literals for the shortest-round-trip formatter. The scenario
// content hash and the journal/summary byte-identity guarantees (including
// the sharded merge) all stand on these exact bytes: if any entry here
// changes, every cached summary and committed golden file silently
// invalidates. A failure means the formatter (or toolchain to_chars)
// changed behavior — that is a breaking change, not a test to update
// casually.
TEST(ScenarioJson, DoubleFormattingGoldenLiterals) {
  struct GoldenCase {
    double value;
    const char* expected;
  };
  const GoldenCase cases[] = {
      // Decimal fractions that are not binary-representable: shortest form
      // wins over the 17-digit exact neighborhood.
      {0.1, "0.1"},
      {0.2, "0.2"},
      {0.3, "0.3"},
      // ... but arithmetic artifacts keep their full 17 digits when needed.
      {0.1 + 0.2, "0.30000000000000004"},
      {1.0 / 3.0, "0.3333333333333333"},
      {2.0 / 3.0, "0.6666666666666666"},
      {3.141592653589793, "3.141592653589793"},
      {123456789.123456789, "123456789.12345679"},
      // Exact powers of two stay exact.
      {0.5, "0.5"},
      {0.125, "0.125"},
      {1048576.0, "1048576"},
      // The 2^53 integer-precision cliff: 9007199254740993 is not
      // representable and collapses to its even neighbor.
      {9007199254740992.0, "9007199254740992"},
      {9007199254740993.0, "9007199254740992"},
      {9007199254740994.0, "9007199254740994"},
      // Integers above 2^53 still print in integer form, not exponent form.
      {72057594037927936.0, "72057594037927936"},
      // Exponent-form thresholds and extremes of the binary64 range.
      {1e21, "1e+21"},
      {1e-7, "1e-07"},
      {-1e-7, "-1e-07"},
      {1.5e300, "1.5e+300"},
      {std::numeric_limits<double>::max(), "1.7976931348623157e+308"},
      {std::numeric_limits<double>::min(), "2.2250738585072014e-308"},
      // Subnormals, down to the very smallest.
      {2.2250738585072011e-308, "2.225073858507201e-308"},
      {std::numeric_limits<double>::denorm_min(), "5e-324"},
      // Physical-constant-shaped inputs round-trip their source literal.
      {6.62607015e-34, "6.62607015e-34"},
      {-0.1, "-0.1"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(canonical_double(c.value), c.expected)
        << "for value " << c.value;
    // Golden form is self-consistent: parsing it back yields the same
    // binary64, bit for bit.
    const Json parsed = Json::parse(canonical_double(c.value));
    EXPECT_EQ(std::signbit(parsed.as_double()), std::signbit(c.value));
    EXPECT_EQ(parsed.as_double(), c.value);
  }
}

// Golden literals for the canonical writer. Spec content hashes and cache
// keys are SHA-256s of these bytes, so any change here moves every cache key.
TEST(ScenarioJson, CanonicalWriterGoldenLiterals) {
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls.push_back(static_cast<char>(c));
  EXPECT_EQ(Json{controls}.canonical(),
            R"("\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007)"
            R"(\b\t\n\u000b\f\r\u000e\u000f)"
            R"(\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017)"
            R"(\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f")");
  // '"' and '\' are escaped, '/' and raw UTF-8 (é, U+1F600) pass through.
  EXPECT_EQ(Json{"q\"b\\s/e\xc3\xa9g\xf0\x9f\x98\x80" "x\x7f"}.canonical(),
            "\"q\\\"b\\\\s/e\xc3\xa9g\xf0\x9f\x98\x80" "x\x7f\"");
  EXPECT_EQ(Json{std::numeric_limits<std::int64_t>::min()}.canonical(),
            "-9223372036854775808");
  EXPECT_EQ(Json{std::numeric_limits<std::uint64_t>::max()}.canonical(),
            "18446744073709551615");
  EXPECT_EQ(Json{-0.0}.canonical(), "0");
  EXPECT_EQ(Json{0}.canonical(), "0");
  EXPECT_EQ(Json{-1.5e-7}.canonical(), "-1.5e-07");

  JsonObject empties;
  empties["a"] = Json{JsonArray{}};
  empties["b"] = Json{JsonObject{}};
  empties["c"] = Json{JsonArray{Json{JsonArray{}}, Json{JsonObject{}}, Json{}}};
  empties["d"] = Json{""};
  empties["\t"] = Json{false};
  EXPECT_EQ(Json{empties}.canonical(),
            R"({"\t":false,"a":[],"b":{},"c":[[],{},null],"d":""})");
  EXPECT_EQ(Json{JsonArray{}}.canonical(), "[]");
  EXPECT_EQ(Json{JsonObject{}}.canonical(), "{}");
}

TEST(ScenarioJson, NonFiniteDoublesAreRejected) {
  EXPECT_THROW(canonical_double(std::numeric_limits<double>::infinity()), JsonError);
  EXPECT_THROW(canonical_double(std::nan("")), JsonError);
  EXPECT_THROW(Json{std::nan("")}.canonical(), JsonError);
}

TEST(ScenarioJson, CrossTypeNumericEquality) {
  EXPECT_EQ(Json::parse("5"), Json{5.0});
  EXPECT_EQ(Json{std::int64_t{7}}, Json{std::uint64_t{7}});
  EXPECT_NE(Json::parse("5"), Json::parse("6"));
}

TEST(ScenarioJson, StrictParserRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), JsonError);
  EXPECT_THROW(Json::parse("{'a':1}"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  // Duplicate keys would make "the same document" hash two ways.
  EXPECT_THROW(Json::parse(R"({"a":1,"a":2})"), JsonError);
}

TEST(ScenarioJson, UnicodeEscapesRoundTrip) {
  const Json doc = Json::parse(R"("aé😀b")");
  EXPECT_EQ(Json::parse(doc.canonical()), doc);
}

TEST(ScenarioJson, AccessorsThrowOnTypeMismatch) {
  const Json doc = Json::parse(R"({"a":1})");
  EXPECT_THROW(doc.as_array(), JsonError);
  EXPECT_THROW(doc.at("missing"), JsonError);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(Json::parse("-1").as_uint(), JsonError);
  EXPECT_THROW(Json::parse("18446744073709551615").as_int(), JsonError);
}

}  // namespace
}  // namespace cloudrepro::scenario
