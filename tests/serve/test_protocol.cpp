// Wire protocol: strict request validation (exactly one addressing mode,
// schema/protocol version gates) and the byte-identity property that GET
// responses embed the stored summary bytes exactly.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "scenario/json.h"
#include "scenario/registry.h"
#include "scenario/result_store.h"
#include "scenario/runner.h"

namespace cloudrepro::serve {
namespace {

using scenario::Json;
using scenario::ScenarioRegistry;
using scenario::ScenarioSpec;

ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.name = "protocol-test";
  spec.workloads = {{"hibench", "TS", std::nullopt}};
  spec.budgets = {5000.0};
  spec.repetitions = 2;
  return spec;
}

std::string error_code_of(std::string_view frame) {
  try {
    (void)parse_request(frame);
  } catch (const ProtocolError& error) {
    return error.code();
  }
  return "";
}

TEST(ServeProtocol, GetWithInlineSpecRoundTrips) {
  const ScenarioSpec spec = tiny_spec();
  const Request request = parse_request(get_request_frame(spec, 7));
  EXPECT_EQ(request.op, Request::Op::kGet);
  ASSERT_TRUE(request.spec.has_value());
  EXPECT_EQ(request.spec->content_hash(), spec.content_hash());
  ASSERT_TRUE(request.seed.has_value());
  EXPECT_EQ(*request.seed, 7u);
  ASSERT_TRUE(request.schema_version.has_value());
  EXPECT_EQ(*request.schema_version, scenario::kResultSchemaVersion);
}

TEST(ServeProtocol, GetByNameAndByHashParse) {
  const Request by_name = parse_request(get_request_frame_by_name("ci-smoke", {}));
  EXPECT_EQ(by_name.scenario_name, "ci-smoke");
  EXPECT_FALSE(by_name.seed.has_value());

  const std::string hash =
      ScenarioRegistry::builtin().at("ci-smoke").content_hash();
  const Request by_hash = parse_request(get_request_frame_by_hash(hash, 42));
  EXPECT_EQ(by_hash.hash, hash);
  ASSERT_TRUE(by_hash.seed.has_value());
  EXPECT_EQ(*by_hash.seed, 42u);
}

TEST(ServeProtocol, GetNeedsExactlyOneAddress) {
  EXPECT_EQ(error_code_of(R"({"op":"GET"})"), "bad_field");
  EXPECT_EQ(error_code_of(R"({"op":"GET","scenario":"a","hash":")" +
                          std::string(64, 'a') + R"("})"),
            "bad_field");
}

TEST(ServeProtocol, MalformedFramesRejectedWithStableCodes) {
  EXPECT_EQ(error_code_of("not json at all"), "bad_json");
  EXPECT_EQ(error_code_of("[1,2,3]"), "bad_json");
  EXPECT_EQ(error_code_of(R"({"op":"DELETE"})"), "bad_op");
  EXPECT_EQ(error_code_of(R"({"no_op":true})"), "bad_field");
  EXPECT_EQ(error_code_of(R"({"op":"GET","scenario":"x","seed":-1})"), "bad_field");
  EXPECT_EQ(error_code_of(R"({"op":"GET","scenario":""})"), "bad_field");
  EXPECT_EQ(error_code_of(R"({"op":"GET","hash":"abc"})"), "bad_field");
  EXPECT_EQ(error_code_of(R"({"op":"GET","spec":{"name":1}})"), "bad_spec");
}

TEST(ServeProtocol, VersionGates) {
  EXPECT_EQ(error_code_of(R"({"op":"LIST","protocol":99})"), "protocol");
  EXPECT_EQ(error_code_of(R"({"op":"GET","scenario":"x","schema_version":99})"),
            "schema");
  // The current versions pass.
  EXPECT_EQ(error_code_of(list_request_frame()), "");
  // So does a SHARD_PUSH from a worker that still sends the retired "done"
  // flag: unknown keys are ignored, so older workers interoperate.
  EXPECT_EQ(error_code_of(R"({"cell":0,"done":true,"key":"k","op":"SHARD_PUSH",)"
                          R"("protocol":1,"records":[],"wall_s":0,"worker":"w"})"),
            "");
}

TEST(ServeProtocol, ErrorResponseRoundTrips) {
  const std::string frame = error_response("busy", "queue full");
  const Response response = parse_response(frame);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "busy");
  EXPECT_EQ(response.error_message, "queue full");
}

TEST(ServeProtocol, GetResponseSummaryBytesAreIdentity) {
  // The property the whole fetch path rests on: embedding the canonical
  // summary in a response and extracting it on the client returns the
  // *same bytes* — what makes `cloudrepro fetch` cmp-equal to `run`.
  const std::string summary =
      R"({"cells":[{"median":3.25,"n":3}],"complete":true,"seed":7})";
  ASSERT_EQ(Json::parse(summary).canonical(), summary) << "fixture not canonical";

  const std::string frame = get_response(std::string(64, 'a'), 7, "hit", summary);
  const Response response = parse_response(frame);
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.summary, summary);
  EXPECT_EQ(response.hash, std::string(64, 'a'));
  EXPECT_EQ(response.seed, 7u);
  EXPECT_EQ(response.hit, "hit");
}

/// The GET response as a whole canonical document: the summary parsed and
/// embedded as a value. get_response splices the summary bytes instead and
/// must produce exactly these bytes.
std::string parse_then_embed(const std::string& hash, std::uint64_t seed,
                             const std::string& hit, const std::string& summary) {
  scenario::JsonObject root;
  root["hash"] = Json{hash};
  root["hit"] = Json{hit};
  root["ok"] = Json{true};
  root["seed"] = Json{seed};
  root["summary"] = Json::parse(summary);
  return Json{std::move(root)}.canonical();
}

TEST(ServeProtocol, SplicedGetResponseEqualsParseThenEmbed) {
  // Real summaries (doubles, nested confirm blocks, bools), every
  // disposition label, and the seed's extremes.
  for (const char* name : {"ci-smoke", "ci-adaptive", "fig15-terasort-budget"}) {
    const ScenarioSpec& spec = ScenarioRegistry::builtin().at(name);
    const std::string summary = scenario::run_scenario(spec).summary;
    const std::string hash = spec.content_hash();
    for (const std::uint64_t seed :
         {spec.seed, std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max()}) {
      for (const std::string hit : {"hit", "miss", "partial", "coalesced", "peer"}) {
        SCOPED_TRACE(std::string{name} + " seed " + std::to_string(seed) + " " + hit);
        const std::string frame = get_response(hash, seed, hit, summary);
        EXPECT_EQ(frame, parse_then_embed(hash, seed, hit, summary));
        EXPECT_EQ(frame.find('\n'), std::string::npos);
        const Response response = parse_response(frame);
        EXPECT_TRUE(response.ok);
        EXPECT_EQ(response.summary, summary);
        EXPECT_EQ(response.hash, hash);
        EXPECT_EQ(response.seed, seed);
        EXPECT_EQ(response.hit, hit);
      }
    }
  }
}

TEST(ServeProtocol, ListAndStatsResponsesCarryTheWholeBody) {
  const std::string body = R"({"ok":true,"scenarios":[]})";
  const Response response = parse_response(body);
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.summary.empty());
  EXPECT_EQ(response.body, body);
}

TEST(ServeProtocol, RequestFramesAreSingleCanonicalLines) {
  for (const std::string& frame :
       {get_request_frame(tiny_spec(), 1), get_request_frame_by_name("x", {}),
        list_request_frame(), stats_request_frame()}) {
    EXPECT_EQ(frame.find('\n'), std::string::npos);
    EXPECT_EQ(Json::parse(frame).canonical(), frame);
  }
}

}  // namespace
}  // namespace cloudrepro::serve
