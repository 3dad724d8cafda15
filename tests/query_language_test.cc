#include <gtest/gtest.h>

#include "core/query_language.h"
#include "core/toss.h"
#include "eval/metrics.h"

namespace toss::core {
namespace {

class QueryLanguageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dblp = db_.CreateCollection("dblp");
    ASSERT_TRUE(dblp.ok());
    ASSERT_TRUE((*dblp)
                    ->InsertXml("p1",
                                "<inproceedings gtid=\"10001\">"
                                "<author>Jeffrey Ullman</author>"
                                "<title>Views</title>"
                                "<booktitle>SIGMOD Conference</booktitle>"
                                "</inproceedings>")
                    .ok());
    ASSERT_TRUE((*dblp)
                    ->InsertXml("p2",
                                "<inproceedings gtid=\"10002\">"
                                "<author>Jeffrey D. Ullman</author>"
                                "<title>Views.</title>"
                                "<booktitle>VLDB</booktitle>"
                                "</inproceedings>")
                    .ok());
    auto sigmod = db_.CreateCollection("sigmod");
    ASSERT_TRUE(sigmod.ok());
    ASSERT_TRUE((*sigmod)
                    ->InsertXml("page",
                                "<proceedingsPage><articles>"
                                "<article gtid=\"10001\"><title>Views</title>"
                                "</article></articles></proceedingsPage>")
                    .ok());

    ontology::OntologyMakerOptions opts;
    opts.content_tags = {"author", "booktitle"};
    std::vector<const xml::XmlDocument*> docs;
    for (store::DocId id : (*dblp)->AllDocs()) {
      docs.push_back(&(*dblp)->document(id));
    }
    auto onto = ontology::MakeOntologyForDocuments(
        docs, lexicon::BuiltinBibliographicLexicon(), opts);
    ASSERT_TRUE(onto.ok());
    SeoBuilder b;
    b.AddInstanceOntology(std::move(onto).value());
    b.SetMeasure(*sim::MakeMeasure("levenshtein"));
    b.SetEpsilon(3.0);
    auto seo = b.Build();
    ASSERT_TRUE(seo.ok()) << seo.status();
    seo_ = std::move(seo).value();
    types_ = MakeBibliographicTypeSystem();
    exec_ = std::make_unique<QueryExecutor>(&db_, &seo_, &types_);
  }

  store::Database db_;
  Seo seo_;
  TypeSystem types_;
  std::unique_ptr<QueryExecutor> exec_;
};

TEST_F(QueryLanguageTest, ParseSelect) {
  auto q = ParseQuery(
      "SELECT $1 FROM dblp MATCH $1/$2 WHERE $1.tag = \"inproceedings\" & "
      "$2.tag = \"author\"");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->kind, ParsedQuery::Kind::kSelect);
  EXPECT_EQ(q->collection, "dblp");
  EXPECT_EQ(q->sl, std::vector<int>{1});
  EXPECT_EQ(q->pattern.node_count(), 2u);
}

TEST_F(QueryLanguageTest, ParseProjectWithSubtreeMarker) {
  auto q = ParseQuery(
      "PROJECT $2*, $1 FROM dblp MATCH $1/$2 WHERE "
      "$1.tag = \"inproceedings\" & $2.tag = \"author\"");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->kind, ParsedQuery::Kind::kProject);
  ASSERT_EQ(q->pl.size(), 2u);
  EXPECT_TRUE(q->pl[0].keep_subtree);
  EXPECT_FALSE(q->pl[1].keep_subtree);
}

TEST_F(QueryLanguageTest, ParseJoin) {
  auto q = ParseQuery(
      "JOIN dblp, sigmod MATCH $1/$2, $2/$3, $1//$4, $4/$5 "
      "WHERE $1.tag = \"tax_prod_root\" & $2.tag = \"inproceedings\" & "
      "$3.tag = \"title\" & $4.tag = \"article\" & $5.tag = \"title\" & "
      "$3.content ~ $5.content SELECT $2, $4");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->kind, ParsedQuery::Kind::kJoin);
  EXPECT_EQ(q->collection, "dblp");
  EXPECT_EQ(q->right_collection, "sigmod");
  EXPECT_EQ(q->sl, (std::vector<int>{2, 4}));
  EXPECT_EQ(q->pattern.node_count(), 5u);
}

TEST_F(QueryLanguageTest, KeywordsAreCaseInsensitive) {
  auto q = ParseQuery(
      "select $1 from dblp match $1/$2 where $1.tag = \"inproceedings\" & "
      "$2.tag = \"author\"");
  EXPECT_TRUE(q.ok()) << q.status();
}

TEST_F(QueryLanguageTest, SelectInsideLiteralDoesNotEndWhere) {
  auto q = ParseQuery(
      "SELECT $1 FROM dblp MATCH $1/$2 WHERE $1.tag = \"inproceedings\" & "
      "$2.content = \"SELECT title\"");
  ASSERT_TRUE(q.ok()) << q.status();
}

TEST_F(QueryLanguageTest, ParseErrors) {
  // Missing FROM.
  EXPECT_FALSE(ParseQuery("SELECT $1 dblp MATCH $1/$2 WHERE true").ok());
  // Out-of-order labels.
  EXPECT_FALSE(
      ParseQuery("SELECT $1 FROM d MATCH $1/$3 WHERE true").ok());
  // Edge from undeclared parent.
  EXPECT_FALSE(
      ParseQuery("SELECT $1 FROM d MATCH $5/$2 WHERE true").ok());
  // SL label not in pattern.
  EXPECT_FALSE(
      ParseQuery("SELECT $9 FROM d MATCH $1/$2 WHERE true").ok());
  // Join without trailing SELECT.
  EXPECT_FALSE(
      ParseQuery("JOIN a, b MATCH $1/$2, $1/$3 WHERE true").ok());
  // Join with single root subtree.
  EXPECT_FALSE(
      ParseQuery("JOIN a, b MATCH $1/$2 WHERE true SELECT $1").ok());
  // Bad condition.
  EXPECT_FALSE(
      ParseQuery("SELECT $1 FROM d MATCH $1/$2 WHERE $1.tag =").ok());
  // Trailing junk.
  EXPECT_FALSE(
      ParseQuery("SELECT $1 FROM d MATCH $1/$2 WHERE true garbage$").ok());
  // Empty.
  EXPECT_FALSE(ParseQuery("").ok());
}

TEST_F(QueryLanguageTest, ExecuteSelect) {
  auto r = RunQuery(
      *exec_,
      "SELECT $1 FROM dblp MATCH $1/$2, $1/$3 "
      "WHERE $1.tag = \"inproceedings\" & $2.tag = \"author\" & "
      "$3.tag = \"booktitle\" & $2.content ~ \"Jeffrey Ullman\" & "
      "$3.content isa \"database conference\"");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(eval::ExtractRootProvenance(*r),
            (std::set<uint64_t>{10001, 10002}));
}

TEST_F(QueryLanguageTest, ExecuteProject) {
  auto r = RunQuery(*exec_,
                    "PROJECT $2 FROM dblp MATCH $1/$2 WHERE "
                    "$1.tag = \"inproceedings\" & $2.tag = \"author\"");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].node(0).tag, "author");
}

TEST_F(QueryLanguageTest, ExecuteJoinWithStats) {
  ExecStats stats;
  auto r = RunQuery(
      *exec_,
      "JOIN dblp, sigmod MATCH $1/$2, $2/$3, $1//$4, $4/$5 "
      "WHERE $1.tag = \"tax_prod_root\" & $2.tag = \"inproceedings\" & "
      "$3.tag = \"title\" & $4.tag = \"article\" & $5.tag = \"title\" & "
      "$3.content ~ $5.content SELECT $2, $4",
      {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status();
  // Both dblp titles are within eps=3 of "Views".
  EXPECT_EQ(eval::ExtractProvenance(*r, "inproceedings"),
            (std::set<uint64_t>{10001, 10002}));
  EXPECT_GT(stats.xpath_queries, 0u);
}

TEST_F(QueryLanguageTest, ParseAndExecuteGroupBy) {
  auto q = ParseQuery(
      "SELECT $1 FROM dblp MATCH $1/$2 WHERE "
      "$1.tag = \"inproceedings\" & $2.tag = \"booktitle\" GROUP BY $2");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->kind, ParsedQuery::Kind::kGroupBy);
  EXPECT_EQ(q->group_label, 2);

  auto r = ExecuteQuery(*exec_, *q);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->size(), 2u);  // two distinct booktitle strings
  EXPECT_EQ((*r)[0].node(0).tag, tax::kGroupRootTag);
  EXPECT_EQ((*r)[0].node(0).provenance, 1u);
}

TEST_F(QueryLanguageTest, GroupByErrors) {
  // GROUP without BY.
  EXPECT_FALSE(ParseQuery("SELECT $1 FROM d MATCH $1/$2 WHERE true GROUP $2")
                   .ok());
  // Unknown grouping label.
  EXPECT_FALSE(
      ParseQuery("SELECT $1 FROM d MATCH $1/$2 WHERE true GROUP BY $7")
          .ok());
  // 'group' inside a literal must not terminate WHERE.
  auto ok = ParseQuery(
      "SELECT $1 FROM dblp MATCH $1/$2 WHERE $2.content = \"GROUP BY x\" & "
      "$1.tag = \"inproceedings\"");
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST_F(QueryLanguageTest, CompoundSetOperations) {
  const std::string ullman =
      "(SELECT $1 FROM dblp MATCH $1/$2 WHERE "
      "$1.tag = \"inproceedings\" & $2.tag = \"author\" & "
      "$2.content ~ \"Jeffrey Ullman\")";
  const std::string sigmod_papers =
      "(SELECT $1 FROM dblp MATCH $1/$2 WHERE "
      "$1.tag = \"inproceedings\" & $2.tag = \"booktitle\" & "
      "$2.content isa \"SIGMOD Conference\")";
  // Ullman (10001, 10002) UNION sigmod (10001) = both.
  auto u = RunQuery(*exec_, ullman + " UNION " + sigmod_papers);
  ASSERT_TRUE(u.ok()) << u.status();
  EXPECT_EQ(::toss::eval::ExtractRootProvenance(*u),
            (std::set<uint64_t>{10001, 10002}));
  // INTERSECT = just the SIGMOD Ullman paper.
  auto i = RunQuery(*exec_, ullman + " intersect " + sigmod_papers);
  ASSERT_TRUE(i.ok()) << i.status();
  EXPECT_EQ(::toss::eval::ExtractRootProvenance(*i),
            std::set<uint64_t>{10001});
  // EXCEPT = the VLDB Ullman paper.
  auto e = RunQuery(*exec_, ullman + " EXCEPT " + sigmod_papers);
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(::toss::eval::ExtractRootProvenance(*e),
            std::set<uint64_t>{10002});
  // Three-way chain, left-associative.
  auto chain = RunQuery(
      *exec_, ullman + " UNION " + sigmod_papers + " EXCEPT " + ullman);
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_TRUE(::toss::eval::ExtractRootProvenance(*chain).empty());
}

TEST_F(QueryLanguageTest, CompoundParseErrors) {
  EXPECT_FALSE(ParseCompoundQuery("(SELECT $1 FROM d MATCH $1/$2 "
                                  "WHERE true")
                   .ok());  // unbalanced
  EXPECT_FALSE(ParseCompoundQuery("(SELECT $1 FROM d MATCH $1/$2 WHERE "
                                  "true) FROB (SELECT $1 FROM d MATCH "
                                  "$1/$2 WHERE true)")
                   .ok());  // bad set op
  EXPECT_FALSE(
      ParseCompoundQuery("(SELECT $1 FROM d MATCH $1/$2 WHERE true) UNION")
          .ok());  // dangling op
  // Parentheses inside literals do not confuse the splitter.
  auto ok = ParseCompoundQuery(
      "(SELECT $1 FROM dblp MATCH $1/$2 WHERE $2.content = \"a ) b\" & "
      "$1.tag = \"inproceedings\")");
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST_F(QueryLanguageTest, UnknownCollectionSurfacesAtExecution) {
  auto r = RunQuery(*exec_,
                    "SELECT $1 FROM nope MATCH $1/$2 WHERE "
                    "$1.tag = \"x\" & $2.tag = \"y\"");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

}  // namespace
}  // namespace toss::core
