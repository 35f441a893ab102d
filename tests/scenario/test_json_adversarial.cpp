// Adversarial bytes into the canonical JSON parser: truncations, bit
// flips, and garbage must throw JsonError or parse into a value that
// round-trips — never crash, hang, or silently mis-parse. Every input also
// goes through Json::valid, which must accept exactly what parse accepts.

#include "scenario/json.h"

#include <gtest/gtest.h>

#include <string>

#include "scenario/registry.h"
#include "stats/rng.h"

namespace cloudrepro::scenario {
namespace {

/// A real document of ours: the canonical spec of the ci-smoke scenario,
/// exercising strings, numbers, arrays, objects, and booleans.
std::string sample_document() {
  return ScenarioRegistry::builtin().at("ci-smoke").canonical_json();
}

/// The contract under attack: parsing either throws JsonError or yields a
/// value whose canonical form re-parses to the same canonical form, and
/// Json::valid agrees with parse on which of the two happened.
void parse_or_reject(const std::string& text) {
  bool parsed_ok = false;
  try {
    const Json parsed = Json::parse(text);
    parsed_ok = true;
    const std::string canonical = parsed.canonical();
    EXPECT_EQ(Json::parse(canonical).canonical(), canonical);
    EXPECT_TRUE(Json::valid(canonical));
  } catch (const JsonError&) {
    // Rejection is always acceptable.
  }
  EXPECT_EQ(Json::valid(text), parsed_ok) << "valid and parse disagree on: " << text;
}

/// Pins both the outcome and the agreement for one hand-picked input.
void expect_verdict(const std::string& text, bool accepted) {
  bool parsed_ok = true;
  try {
    (void)Json::parse(text);
  } catch (const JsonError&) {
    parsed_ok = false;
  }
  EXPECT_EQ(parsed_ok, accepted) << "parse of: " << text;
  EXPECT_EQ(Json::valid(text), accepted) << "valid of: " << text;
}

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(JsonAdversarialTest, CanonicalDocumentRoundTrips) {
  const std::string doc = sample_document();
  EXPECT_EQ(Json::parse(doc).canonical(), doc);
}

TEST(JsonAdversarialTest, EveryStrictPrefixOfAnObjectIsRejected) {
  const std::string doc = sample_document();
  ASSERT_EQ(doc.front(), '{');
  for (std::size_t len = 0; len < doc.size(); ++len) {
    EXPECT_THROW(Json::parse(doc.substr(0, len)), JsonError)
        << "prefix of length " << len << " parsed as complete";
    EXPECT_FALSE(Json::valid(doc.substr(0, len)))
        << "prefix of length " << len << " validated as complete";
  }
}

TEST(JsonAdversarialTest, EveryBitFlipParsesOrRejectsCleanly) {
  const std::string doc = sample_document();
  for (std::size_t i = 0; i < doc.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x20, 0x80}) {
      std::string flipped = doc;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      parse_or_reject(flipped);
    }
  }
}

TEST(JsonAdversarialTest, GarbageBytesNeverCrashTheParser) {
  stats::Rng rng{17};
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage;
    const std::size_t len = rng.next_u64() % 256;
    for (std::size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.next_u64() & 0xff));
    }
    parse_or_reject(garbage);
  }
}

TEST(JsonAdversarialTest, StructuredGarbageNeverCrashesTheParser) {
  // Brace/bracket/quote soup hits the recursive-descent paths harder than
  // uniform random bytes.
  const char alphabet[] = "{}[]\",:.0123456789eE+-tfn \\";
  stats::Rng rng{19};
  for (int trial = 0; trial < 300; ++trial) {
    std::string soup;
    const std::size_t len = rng.next_u64() % 128;
    for (std::size_t i = 0; i < len; ++i) {
      soup.push_back(alphabet[rng.next_u64() % (sizeof(alphabet) - 1)]);
    }
    parse_or_reject(soup);
  }
}

TEST(JsonAdversarialTest, DeepNestingRejectsInsteadOfOverflowing) {
  // 100k unclosed arrays: must reject (or parse, for the closed variant)
  // without exhausting the stack.
  const std::string open(100000, '[');
  EXPECT_THROW(Json::parse(open), JsonError);
  EXPECT_FALSE(Json::valid(open));
  std::string closed = open;
  closed.append(100000, ']');
  parse_or_reject(closed);
}

TEST(JsonAdversarialTest, ValidMatchesParseOnEdgeInputs) {
  // Keys that are duplicates only once decoded; distinct escaped keys.
  expect_verdict(R"({"a":1,"\u0061":2})", false);
  expect_verdict(R"({"\u0061":1,"a":2})", false);
  expect_verdict(R"({"/":1,"\/":2})", false);
  expect_verdict(R"({"\u0062":1,"a":2})", true);
  expect_verdict(R"({"b":1,"a":2,"b":3})", false);
  // Each object's keys are its own: nesting and siblings do not collide,
  // and an inner object's keys are gone once it closes.
  expect_verdict(R"({"a":{"a":1},"b":2})", true);
  expect_verdict(R"([{"a":1},{"a":1}])", true);
  expect_verdict(R"({"a":{"b":1,"b":2}})", false);
  expect_verdict(R"({"a":1,"b":{"c":1},"a":2})", false);
  expect_verdict(R"({"c":{"a":1},"a":2,"b":{"a":3}})", true);

  // Doubles past binary64's range either way are rejected, not rounded.
  expect_verdict("1e400", false);
  expect_verdict("-1e400", false);
  expect_verdict("1e-400", false);
  expect_verdict("1e308", true);
  // Integers one past the 64-bit ranges fall through to double.
  expect_verdict("-9223372036854775808", true);
  expect_verdict("-9223372036854775809", true);
  expect_verdict("18446744073709551615", true);
  expect_verdict("18446744073709551616", true);
  expect_verdict(std::string(400, '9'), false);

  // The depth limit counts values: 64 nested arrays parse, 65 do not.
  expect_verdict(nested_arrays(63), true);
  expect_verdict(nested_arrays(64), true);
  expect_verdict(nested_arrays(65), false);

  // Surrogates: only a high one followed by a low one is a code point.
  expect_verdict(R"("\ud83d\ude00")", true);
  expect_verdict(R"("\ud800")", false);
  expect_verdict(R"("\udc00")", false);
  expect_verdict(R"("\ud800\u0041")", false);
  expect_verdict(R"("\ud800x")", false);
  expect_verdict(R"("\udc00\ud800")", false);

  // JSON whitespace around the document is fine; anything else is not.
  expect_verdict(" \t\r\n{\"a\" : [ 1 , 2 ] } \n", true);
  expect_verdict("\v1", false);
  expect_verdict("1\v", false);
  expect_verdict(" ", false);
  expect_verdict("", false);
  expect_verdict("1 2", false);
}

}  // namespace
}  // namespace cloudrepro::scenario
