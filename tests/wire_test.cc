// Wire-protocol units: request round-trips (struct -> JSON -> struct with
// nothing lost), strict rejection of malformed documents as typed errors
// (never a crash, never a silently-ignored field), and response
// serialization.

#include "service/wire.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tax/condition_parser.h"

namespace toss::service::wire {
namespace {

tax::PatternTree AuthorPattern() {
  tax::PatternTree pattern;
  const int root = pattern.AddRoot();
  pattern.AddChild(root, tax::EdgeKind::kPc);  // $2
  pattern.AddChild(2, tax::EdgeKind::kAd);     // $3 under $2
  auto cond = tax::ParseCondition(
      "$1.tag = \"inproceedings\" & $2.tag = \"author\" & "
      "$2.content ~ \"jeffrey ullman\"");
  EXPECT_TRUE(cond.ok());
  pattern.SetCondition(std::move(cond).value());
  return pattern;
}

/// The round-trip property, checked via double serialization: parse(dump(r))
/// must dump to the identical document.
void ExpectRoundTrips(const QueryRequest& request) {
  const std::string once = RequestJson(request);
  auto reparsed = ParseRequestText(once);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(RequestJson(*reparsed), once);
}

TEST(WireRequest, SelectRoundTrips) {
  QueryRequest req = QueryRequest::Select("dblp", AuthorPattern(), {1, 2});
  req.deadline_ms = 250;
  req.collect_trace = true;
  req.parallelism = 3;
  ExpectRoundTrips(req);
}

TEST(WireRequest, ProjectRoundTrips) {
  QueryRequest req = QueryRequest::Project("dblp", AuthorPattern(),
                                           {{1, false}, {2, true}});
  ExpectRoundTrips(req);
}

TEST(WireRequest, GroupByRoundTrips) {
  ExpectRoundTrips(QueryRequest::GroupBy("dblp", AuthorPattern(), 2, {1}));
}

TEST(WireRequest, JoinRoundTrips) {
  ExpectRoundTrips(
      QueryRequest::Join("dblp", "sigmod", AuthorPattern(), {2, 3}));
}

TEST(WireRequest, MutationsRoundTrip) {
  ExpectRoundTrips(QueryRequest::Insert("dblp", "k1", "<a>x</a>"));
  ExpectRoundTrips(QueryRequest::Replace("dblp", "k1", "<a>y</a>"));
  ExpectRoundTrips(QueryRequest::Remove("dblp", "k1"));
}

TEST(WireRequest, ParsedFieldsSurviveExactly) {
  QueryRequest req = QueryRequest::Select("dblp", AuthorPattern(), {1, 3});
  req.deadline_ms = 99;
  auto back = ParseRequestText(RequestJson(req));
  ASSERT_TRUE(back.ok());
  const auto* spec = std::get_if<SelectSpec>(&back->op);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->collection, "dblp");
  EXPECT_EQ(spec->sl, (std::vector<int>{1, 3}));
  EXPECT_EQ(back->deadline_ms, 99u);
  ASSERT_EQ(spec->pattern.node_count(), 3u);
  EXPECT_EQ(spec->pattern.node(1).edge_from_parent, tax::EdgeKind::kPc);
  EXPECT_EQ(spec->pattern.node(2).edge_from_parent, tax::EdgeKind::kAd);
  EXPECT_EQ(spec->pattern.condition().ToString(),
            AuthorPattern().condition().ToString());
}

TEST(WireRequest, TextQueryParses) {
  auto req = ParseRequestText(
      "{\"text\": \"SELECT $1 FROM dblp MATCH $1/$2 WHERE "
      "$1.tag = \\\"inproceedings\\\" & $2.tag = \\\"author\\\"\", "
      "\"options\": {\"deadline_ms\": 50}}");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  const auto* spec = std::get_if<SelectSpec>(&req->op);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->collection, "dblp");
  EXPECT_EQ(req->deadline_ms, 50u);
}

// --- Typed rejection ---------------------------------------------------------

void ExpectRejected(const std::string& doc, StatusCode code) {
  auto parsed = ParseRequestText(doc);
  ASSERT_FALSE(parsed.ok()) << doc;
  EXPECT_EQ(parsed.status().code(), code)
      << doc << " -> " << parsed.status().ToString();
}

TEST(WireReject, NonJsonIsParseError) {
  ExpectRejected("not json at all", StatusCode::kParseError);
  ExpectRejected("{\"op\": \"select\"", StatusCode::kParseError);
  ExpectRejected("", StatusCode::kParseError);
  // A raw control byte inside a JSON string is malformed JSON, even where
  // the same document with the byte escaped is a valid request.
  ExpectRejected(
      "{\"op\": \"remove\", \"collection\": \"c\", \"key\": \"a\tb\"}",
      StatusCode::kParseError);
  // Numbers outside the RFC 8259 grammar are malformed JSON, not options.
  for (const char* number : {"05", "+5", ".5", "5.", "5e"}) {
    ExpectRejected(std::string("{\"op\": \"remove\", \"collection\": \"c\", "
                               "\"key\": \"k\", \"options\": "
                               "{\"deadline_ms\": ") +
                       number + "}}",
                   StatusCode::kParseError);
  }
  // So is an escaped surrogate without its partner.
  ExpectRejected(
      "{\"op\": \"remove\", \"collection\": \"c\", \"key\": \"\\ud83d\"}",
      StatusCode::kParseError);
}

TEST(WireRequest, EscapedNonBmpTextDecodesToUtf8) {
  // A client that escapes non-BMP characters (Python's json.dumps does by
  // default) must reach the same stored UTF-8 text as one that does not.
  auto escaped = ParseRequestText(
      "{\"op\": \"remove\", \"collection\": \"c\", "
      "\"key\": \"\\ud83d\\ude00\"}");
  ASSERT_TRUE(escaped.ok()) << escaped.status();
  auto raw = ParseRequestText(
      "{\"op\": \"remove\", \"collection\": \"c\", "
      "\"key\": \"\xF0\x9F\x98\x80\"}");
  ASSERT_TRUE(raw.ok()) << raw.status();
  EXPECT_EQ(std::get<RemoveSpec>(escaped->op).key, "\xF0\x9F\x98\x80");
  EXPECT_EQ(std::get<RemoveSpec>(escaped->op).key,
            std::get<RemoveSpec>(raw->op).key);
}

TEST(WireReject, NonObjectIsInvalidArgument) {
  ExpectRejected("[1,2,3]", StatusCode::kInvalidArgument);
  ExpectRejected("42", StatusCode::kInvalidArgument);
}

TEST(WireReject, UnknownOpAndMissingOp) {
  ExpectRejected("{\"op\": \"teleport\"}", StatusCode::kInvalidArgument);
  ExpectRejected("{}", StatusCode::kInvalidArgument);
}

TEST(WireReject, UnknownKeysAreErrorsNotIgnored) {
  // A typo'd option must fail loudly -- this is the strictness contract.
  ExpectRejected(
      "{\"op\": \"remove\", \"collection\": \"c\", \"key\": \"k\", "
      "\"dead_line_ms\": 5}",
      StatusCode::kInvalidArgument);
  ExpectRejected(
      "{\"op\": \"remove\", \"collection\": \"c\", \"key\": \"k\", "
      "\"options\": {\"deadlineMs\": 5}}",
      StatusCode::kInvalidArgument);
}

TEST(WireReject, FieldsFromTheWrongOp) {
  // "sl" belongs to select/join/groupby, not remove; "xml" not to remove.
  ExpectRejected(
      "{\"op\": \"remove\", \"collection\": \"c\", \"key\": \"k\", "
      "\"sl\": [1]}",
      StatusCode::kInvalidArgument);
  ExpectRejected(
      "{\"op\": \"remove\", \"collection\": \"c\", \"key\": \"k\", "
      "\"xml\": \"<a/>\"}",
      StatusCode::kInvalidArgument);
}

TEST(WireReject, WrongTypes) {
  ExpectRejected("{\"op\": \"select\", \"collection\": 7, "
                 "\"pattern\": {\"nodes\": []}, \"sl\": [1]}",
                 StatusCode::kInvalidArgument);
  ExpectRejected("{\"op\": \"select\", \"collection\": \"c\", "
                 "\"pattern\": {\"nodes\": []}, \"sl\": [1.5]}",
                 StatusCode::kInvalidArgument);
  ExpectRejected("{\"op\": \"select\", \"collection\": \"c\", "
                 "\"pattern\": \"$1/$2\", \"sl\": [1]}",
                 StatusCode::kInvalidArgument);
  ExpectRejected("{\"text\": 42}", StatusCode::kInvalidArgument);
}

TEST(WireReject, OutOfRangePatternParents) {
  // Parent label 5 does not exist yet when $2 is declared.
  ExpectRejected(
      "{\"op\": \"select\", \"collection\": \"c\", "
      "\"pattern\": {\"nodes\": [{\"parent\": 5, \"edge\": \"pc\"}]}, "
      "\"sl\": [1]}",
      StatusCode::kInvalidArgument);
  // A node may not parent itself ($2 naming parent 2).
  ExpectRejected(
      "{\"op\": \"select\", \"collection\": \"c\", "
      "\"pattern\": {\"nodes\": [{\"parent\": 2, \"edge\": \"pc\"}]}, "
      "\"sl\": [1]}",
      StatusCode::kInvalidArgument);
  ExpectRejected(
      "{\"op\": \"select\", \"collection\": \"c\", "
      "\"pattern\": {\"nodes\": [{\"parent\": 0, \"edge\": \"pc\"}]}, "
      "\"sl\": [1]}",
      StatusCode::kInvalidArgument);
}

TEST(WireReject, BadEdgeKind) {
  ExpectRejected(
      "{\"op\": \"select\", \"collection\": \"c\", "
      "\"pattern\": {\"nodes\": [{\"parent\": 1, \"edge\": \"sibling\"}]}, "
      "\"sl\": [1]}",
      StatusCode::kInvalidArgument);
}

TEST(WireReject, UnparseableConditionIsParseError) {
  ExpectRejected(
      "{\"op\": \"select\", \"collection\": \"c\", "
      "\"pattern\": {\"nodes\": [], \"condition\": \"$1.tag &&& what\"}, "
      "\"sl\": [1]}",
      StatusCode::kParseError);
}

TEST(WireReject, UnparseableTextIsParseError) {
  ExpectRejected("{\"text\": \"SELEKT everything\"}",
                 StatusCode::kParseError);
}

TEST(WireReject, WrongVersion) {
  ExpectRejected("{\"version\": 2, \"op\": \"remove\", "
                 "\"collection\": \"c\", \"key\": \"k\"}",
                 StatusCode::kInvalidArgument);
}

TEST(WireReject, NegativeOptionValues) {
  ExpectRejected(
      "{\"op\": \"remove\", \"collection\": \"c\", \"key\": \"k\", "
      "\"options\": {\"deadline_ms\": -5}}",
      StatusCode::kInvalidArgument);
}

TEST(WireReject, HostileDocumentsNeverCrash) {
  const char* hostile[] = {
      "{\"op\": \"select\"}",
      "{\"op\": \"join\", \"left\": \"a\"}",
      "{\"op\": \"project\", \"collection\": \"c\", "
      "\"pattern\": {\"nodes\": []}, \"pl\": [{\"label\": true}]}",
      "{\"op\": \"groupby\", \"collection\": \"c\", "
      "\"pattern\": {\"nodes\": []}, \"group_label\": [], \"sl\": []}",
      "{\"options\": {\"deadline_ms\": 1}, \"op\": \"select\", "
      "\"collection\": \"c\", \"pattern\": {\"nodes\": "
      "[{\"parent\": 1}, {\"parent\": 1}, {\"parent\": 3}]}, \"sl\": "
      "[9999999999999]}",
      "{\"text\": \"\"}",
      "{\"pattern\": 1e308}",
  };
  for (const char* doc : hostile) {
    auto parsed = ParseRequestText(doc);
    EXPECT_FALSE(parsed.ok()) << doc;
  }
}

// --- Response ---------------------------------------------------------------

TEST(WireResponse, CarriesStatusStatsAndVersion) {
  QueryResponse resp;
  resp.status = Status::DeadlineExceeded("too slow");
  resp.stats.eval_ms = 1.5;
  resp.stats.result_trees = 0;
  resp.queue_wait_ms = 0.25;
  auto doc = common::JsonValue::Parse(ResponseJson(resp));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Get("version")->AsDouble(), 1.0);
  EXPECT_EQ(doc->Get("status")->Get("code")->AsString(), "DeadlineExceeded");
  EXPECT_EQ(doc->Get("status")->Get("message")->AsString(), "too slow");
  EXPECT_EQ(doc->Get("stats")->Get("eval_ms")->AsDouble(), 1.5);
  EXPECT_EQ(doc->Get("queue_wait_ms")->AsDouble(), 0.25);
  EXPECT_TRUE(doc->Get("trees")->is_array());
  EXPECT_EQ(doc->Get("trees")->size(), 0u);
  EXPECT_TRUE(doc->Get("trace")->is_null());
}

}  // namespace
}  // namespace toss::service::wire
