#include <gtest/gtest.h>

#include <algorithm>

#include "core/toss.h"

#include "eval/metrics.h"
#include "reference_eval.h"
#include "xml/xml_writer.h"

namespace toss::core {
namespace {

// Every query in this file goes through the QueryOptions path; these are
// the defaults (inline evaluation, no cancellation, no prepared cache).
const QueryOptions kOpts{};

class QueryExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dblp = db_.CreateCollection("dblp");
    ASSERT_TRUE(dblp.ok());
    const char* kPapers[] = {
        // One author canonical, venue short form.
        "<inproceedings gtid=\"10001\">"
        "<author gtid=\"1001\">Jeffrey Ullman</author>"
        "<title>Views</title>"
        "<booktitle>SIGMOD Conference</booktitle><year>1999</year>"
        "</inproceedings>",
        // Same author, middle-initial variant, venue full form.
        "<inproceedings gtid=\"10002\">"
        "<author gtid=\"1001\">Jeffrey D. Ullman</author>"
        "<title>Indexes</title>"
        "<booktitle>ACM SIGMOD International Conference on Management of "
        "Data</booktitle><year>2000</year>"
        "</inproceedings>",
        // Different author, same venue.
        "<inproceedings gtid=\"10003\">"
        "<author gtid=\"1002\">Serge Abiteboul</author>"
        "<title>Trees</title>"
        "<booktitle>SIGMOD Conference</booktitle><year>2000</year>"
        "</inproceedings>",
        // Same author at an unrelated venue.
        "<inproceedings gtid=\"10004\">"
        "<author gtid=\"1001\">Jeffrey Ullman</author>"
        "<title>Joins</title>"
        "<booktitle>SIGIR</booktitle><year>1998</year>"
        "</inproceedings>",
    };
    int i = 0;
    for (const char* p : kPapers) {
      ASSERT_TRUE((*dblp)->InsertXml("p" + std::to_string(i++), p).ok());
    }

    // Build the SEO from this instance's ontology.
    ontology::OntologyMakerOptions opts;
    opts.content_tags = {"author", "booktitle"};
    // One ontology for the whole collection (a multi-document instance).
    std::vector<const xml::XmlDocument*> docs;
    for (store::DocId id : (*dblp)->AllDocs()) {
      docs.push_back(&(*dblp)->document(id));
    }
    auto o = ontology::MakeOntologyForDocuments(
        docs, lexicon::BuiltinBibliographicLexicon(), opts);
    ASSERT_TRUE(o.ok()) << o.status();
    builder_.AddInstanceOntology(std::move(o).value());
    builder_.SetMeasure(*sim::MakeMeasure("levenshtein"));
    builder_.SetEpsilon(3.0);
    auto seo = builder_.Build();
    ASSERT_TRUE(seo.ok()) << seo.status();
    seo_ = std::move(seo).value();
    types_ = MakeBibliographicTypeSystem();
  }

  tax::PatternTree UllmanAtSigmod() {
    tax::PatternTree pt;
    int root = pt.AddRoot();
    pt.AddChild(root, tax::EdgeKind::kPc);
    pt.AddChild(root, tax::EdgeKind::kPc);
    pt.SetCondition(
        tax::ParseCondition(
            "$1.tag = \"inproceedings\" & $2.tag = \"author\" & "
            "$3.tag = \"booktitle\" & "
            "$2.content ~ \"Jeffrey Ullman\" & "
            "$3.content isa \"SIGMOD Conference\"")
            .value());
    return pt;
  }

  store::Database db_;
  SeoBuilder builder_;
  Seo seo_;
  TypeSystem types_;
};

TEST_F(QueryExecutorTest, TaxBaselineFindsExactMatchesOnly) {
  QueryExecutor tax_exec(&db_, nullptr, nullptr);
  EXPECT_FALSE(tax_exec.is_toss());
  ExecStats stats;
  auto r = tax_exec.Select("dblp", UllmanAtSigmod(), {1}, kOpts, &stats);
  ASSERT_TRUE(r.ok()) << r.status();
  // Exact author + contains(venue): only paper 10001.
  auto ids = ::toss::eval::ExtractRootProvenance(*r);
  EXPECT_EQ(ids, std::set<uint64_t>{10001});
  EXPECT_GT(stats.xpath_queries, 0u);
  EXPECT_GE(stats.TotalMs(), 0.0);
}

TEST_F(QueryExecutorTest, TossFindsVariantsAndVenueForms) {
  QueryExecutor toss_exec(&db_, &seo_, &types_);
  EXPECT_TRUE(toss_exec.is_toss());
  ExecStats stats;
  auto r = toss_exec.Select("dblp", UllmanAtSigmod(), {1}, kOpts, &stats);
  ASSERT_TRUE(r.ok()) << r.status();
  // The middle-initial variant AND the full-venue-name paper both match.
  auto ids = ::toss::eval::ExtractRootProvenance(*r);
  EXPECT_EQ(ids, (std::set<uint64_t>{10001, 10002}));
  EXPECT_GT(stats.expanded_terms, 0u);
  EXPECT_LE(stats.candidate_docs, 4u);
}

TEST_F(QueryExecutorTest, TossAnswersContainTaxAnswers) {
  QueryExecutor tax_exec(&db_, nullptr, nullptr);
  QueryExecutor toss_exec(&db_, &seo_, &types_);
  auto pattern = UllmanAtSigmod();
  auto tax_r = tax_exec.Select("dblp", pattern, {1}, kOpts);
  auto toss_r = toss_exec.Select("dblp", pattern, {1}, kOpts);
  ASSERT_TRUE(tax_r.ok());
  ASSERT_TRUE(toss_r.ok());
  auto tax_ids = ::toss::eval::ExtractRootProvenance(*tax_r);
  auto toss_ids = ::toss::eval::ExtractRootProvenance(*toss_r);
  EXPECT_TRUE(std::includes(toss_ids.begin(), toss_ids.end(),
                            tax_ids.begin(), tax_ids.end()));
}

TEST_F(QueryExecutorTest, CategoryQueryUsesIsaExpansion) {
  QueryExecutor toss_exec(&db_, &seo_, &types_);
  tax::PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(root, tax::EdgeKind::kPc);
  pt.SetCondition(
      tax::ParseCondition("$1.tag = \"inproceedings\" & "
                          "$2.tag = \"booktitle\" & "
                          "$2.content isa \"database conference\"")
          .value());
  auto r = toss_exec.Select("dblp", pt, {1}, kOpts);
  ASSERT_TRUE(r.ok()) << r.status();
  auto ids = ::toss::eval::ExtractRootProvenance(*r);
  // All SIGMOD papers (either surface form) but not the SIGIR one.
  EXPECT_EQ(ids, (std::set<uint64_t>{10001, 10002, 10003}));
}

TEST_F(QueryExecutorTest, ProjectReturnsMatchedSubtrees) {
  QueryExecutor toss_exec(&db_, &seo_, &types_);
  auto r = toss_exec.Project("dblp", UllmanAtSigmod(), {{2, false}}, kOpts);
  ASSERT_TRUE(r.ok()) << r.status();
  // Two author nodes (one per matched paper).
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].node(0).tag, "author");
}

TEST_F(QueryExecutorTest, RewritePushesDownExpandedTerms) {
  QueryExecutor toss_exec(&db_, &seo_, &types_);
  size_t expanded = 0;
  auto plan = toss_exec.RewriteToPlan(UllmanAtSigmod(), &expanded);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->size(), 3u);  // one step per tagged label
  EXPECT_GT(expanded, 2u);
  bool has_disjunction = false;
  for (const store::PlanStep& step : *plan) {
    for (const auto& group : step.any_of) {
      if (group.size() >= 2) has_disjunction = true;
    }
  }
  EXPECT_TRUE(has_disjunction);
}

TEST_F(QueryExecutorTest, RangePredicatesPushDownToIndexScans) {
  QueryExecutor toss_exec(&db_, &seo_, &types_);
  tax::PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(root, tax::EdgeKind::kPc);
  pt.SetCondition(
      tax::ParseCondition("$1.tag = \"inproceedings\" & $2.tag = \"year\" & "
                          "$2.content >= \"1999\" & $2.content <= \"2000\"")
          .value());
  ExecStats stats;
  auto r = toss_exec.Select("dblp", pt, {1}, kOpts, &stats);
  ASSERT_TRUE(r.ok()) << r.status();
  // Papers 10001 (1999), 10002 (2000), 10003 (2000); 10004 is 1998.
  EXPECT_EQ(::toss::eval::ExtractRootProvenance(*r),
            (std::set<uint64_t>{10001, 10002, 10003}));
  EXPECT_EQ(stats.candidate_docs, 3u) << "range scan should prune p 10004";

  // Reversed operand order flips the comparison: "1999" <= $2.content.
  tax::PatternTree reversed;
  root = reversed.AddRoot();
  reversed.AddChild(root, tax::EdgeKind::kPc);
  reversed.SetCondition(
      tax::ParseCondition("$1.tag = \"inproceedings\" & $2.tag = \"year\" & "
                          "\"1999\" <= $2.content")
          .value());
  auto r2 = toss_exec.Select("dblp", reversed, {1}, kOpts);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(::toss::eval::ExtractRootProvenance(*r2),
            (std::set<uint64_t>{10001, 10002, 10003}));
}

TEST_F(QueryExecutorTest, ExplainShowsPlan) {
  QueryExecutor toss_exec(&db_, &seo_, &types_);
  auto plan = toss_exec.Explain("dblp", UllmanAtSigmod());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("TOSS"), std::string::npos);
  EXPECT_NE(plan->find("//author"), std::string::npos);
  EXPECT_NE(plan->find("Jeffrey D. Ullman"), std::string::npos)
      << "expanded variant must appear in the plan:\n" << *plan;
  EXPECT_NE(plan->find("candidates after intersection: 2"),
            std::string::npos)
      << *plan;

  QueryExecutor tax_exec(&db_, nullptr, nullptr);
  auto tax_plan = tax_exec.Explain("dblp", UllmanAtSigmod());
  ASSERT_TRUE(tax_plan.ok());
  EXPECT_NE(tax_plan->find("TAX"), std::string::npos);
  EXPECT_TRUE(toss_exec.Explain("ghost", UllmanAtSigmod()).status()
                  .IsNotFound());
}

TEST_F(QueryExecutorTest, JoinAcrossCollections) {
  auto sigmod = db_.CreateCollection("sigmod");
  ASSERT_TRUE(sigmod.ok());
  ASSERT_TRUE((*sigmod)
                  ->InsertXml("page0",
                              "<proceedingsPage><articles>"
                              "<article gtid=\"10001\">"
                              "<title>Views.</title></article>"
                              "<article gtid=\"99\">"
                              "<title>Nothing Alike Here</title></article>"
                              "</articles></proceedingsPage>")
                  .ok());
  QueryExecutor toss_exec(&db_, &seo_, &types_);

  tax::PatternTree pt;
  int root = pt.AddRoot();
  int left = pt.AddChild(root, tax::EdgeKind::kPc);
  pt.AddChild(left, tax::EdgeKind::kPc);
  int article = pt.AddChild(root, tax::EdgeKind::kAd);
  pt.AddChild(article, tax::EdgeKind::kPc);
  pt.SetCondition(
      tax::ParseCondition("$1.tag = \"tax_prod_root\" & "
                          "$2.tag = \"inproceedings\" & $3.tag = \"title\" & "
                          "$4.tag = \"article\" & $5.tag = \"title\" & "
                          "$3.content ~ $5.content")
          .value());
  ExecStats stats;
  auto r = toss_exec.Join("dblp", "sigmod", pt, {2, 4}, kOpts, &stats);
  ASSERT_TRUE(r.ok()) << r.status();
  // "Views" ~ "Views." at eps=3 via the measure fallback; nothing else.
  ASSERT_EQ(r->size(), 1u);
  auto ids = ::toss::eval::ExtractProvenance(*r, "inproceedings");
  EXPECT_EQ(ids, std::set<uint64_t>{10001});

  // TAX join: exact equality only -> empty.
  QueryExecutor tax_exec(&db_, nullptr, nullptr);
  auto tr = tax_exec.Join("dblp", "sigmod", pt, {2, 4}, kOpts);
  ASSERT_TRUE(tr.ok());
  EXPECT_TRUE(tr->empty());
}

TEST_F(QueryExecutorTest, JoinRequiresProductShapedPattern) {
  QueryExecutor toss_exec(&db_, &seo_, &types_);
  tax::PatternTree pt;
  pt.AddRoot();
  auto r = toss_exec.Join("dblp", "dblp", pt, {}, kOpts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(QueryExecutorTest, UnknownCollectionIsNotFound) {
  QueryExecutor toss_exec(&db_, &seo_, &types_);
  auto r = toss_exec.Select("nope", UllmanAtSigmod(), {1}, kOpts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Trace-enabled execution (EXPLAIN ANALYZE through the options path: pass a
// live root span, read the trace back).
// ---------------------------------------------------------------------------

/// Each tree rendered to canonical XML: the byte-identical comparison
/// between plain and trace-enabled results (same trees, same order).
std::vector<std::string> Serialize(const tax::TreeCollection& trees) {
  std::vector<std::string> out;
  out.reserve(trees.size());
  for (const auto& t : trees) out.push_back(xml::Write(t.ToXml()));
  return out;
}

/// The root's direct child names, in creation order.
std::vector<std::string> ChildNames(const obs::TraceNode& root) {
  std::vector<std::string> out;
  for (const auto& c : root.children) out.push_back(c->name);
  return out;
}

TEST_F(QueryExecutorTest, TracedSelectMatchesPlainExecute) {
  for (bool toss : {false, true}) {
    QueryExecutor exec(&db_, toss ? &seo_ : nullptr,
                       toss ? &types_ : nullptr);
    ExecStats stats;
    auto plain = exec.Select("dblp", UllmanAtSigmod(), {1}, kOpts, &stats);
    ASSERT_TRUE(plain.ok()) << plain.status();

    obs::Trace trace("select(dblp)");
    ExecStats traced_stats;
    Result<tax::TreeCollection> traced = tax::TreeCollection{};
    {
      obs::Span root_span = trace.RootSpan();
      traced = exec.Select("dblp", UllmanAtSigmod(), {1}, kOpts,
                           &traced_stats, &root_span);
    }
    ASSERT_TRUE(traced.ok()) << traced.status();

    // Golden: byte-identical answers in identical order.
    EXPECT_EQ(Serialize(*plain), Serialize(*traced));
    EXPECT_EQ(traced_stats.xpath_queries, stats.xpath_queries);
    EXPECT_EQ(traced_stats.candidate_docs, stats.candidate_docs);
    EXPECT_EQ(traced_stats.result_trees, stats.result_trees);

    // Trace structure: the three instrumented phases, all closed.
    const obs::TraceNode& root = trace.root();
    EXPECT_GT(root.duration_nanos, 0u);
    EXPECT_EQ(ChildNames(root),
              (std::vector<std::string>{"rewrite", "store_scan", "eval"}));
    for (const auto& c : root.children) EXPECT_GT(c->duration_nanos, 0u);
    double cov = trace.CoverageFraction();
    EXPECT_GT(cov, 0.0);
    EXPECT_LE(cov, 1.0);

    // Pretty output carries the phase tree.
    std::string pretty = trace.Pretty();
    EXPECT_NE(pretty.find("store_scan"), std::string::npos) << pretty;
  }
}

TEST_F(QueryExecutorTest, TracedSelectAnnotatesThePhases) {
  QueryExecutor toss_exec(&db_, &seo_, &types_);
  obs::Trace trace("select(dblp)");
  ExecStats stats;
  {
    obs::Span root_span = trace.RootSpan();
    auto r = toss_exec.Select("dblp", UllmanAtSigmod(), {1}, kOpts, &stats,
                              &root_span);
    ASSERT_TRUE(r.ok()) << r.status();
  }
  const obs::TraceNode& root = trace.root();
  auto annotation = [](const obs::TraceNode& n, const std::string& key) {
    for (const auto& [k, v] : n.annotations) {
      if (k == key) return v;
    }
    return std::string();
  };
  EXPECT_EQ(annotation(*root.children[0], "xpath_queries"),
            std::to_string(stats.xpath_queries));
  EXPECT_EQ(annotation(*root.children[0], "expanded_terms"),
            std::to_string(stats.expanded_terms));
  EXPECT_EQ(annotation(*root.children[1], "candidate_docs"),
            std::to_string(stats.candidate_docs));
  EXPECT_FALSE(annotation(*root.children[1], "index_pruning_ratio").empty());
  EXPECT_EQ(annotation(*root.children[2], "result_trees"),
            std::to_string(stats.result_trees));
  // Decoded-tree cache deltas are recorded on the eval phase.
  EXPECT_FALSE(annotation(*root.children[2], "tree_cache_misses").empty());
}

TEST_F(QueryExecutorTest, TracedProjectAndGroupByMatchPlainExecute) {
  QueryExecutor toss_exec(&db_, &seo_, &types_);
  auto plain_p =
      toss_exec.Project("dblp", UllmanAtSigmod(), {{2, false}}, kOpts);
  obs::Trace trace_p("project(dblp)");
  Result<tax::TreeCollection> traced_p = tax::TreeCollection{};
  {
    obs::Span root_span = trace_p.RootSpan();
    traced_p = toss_exec.Project("dblp", UllmanAtSigmod(), {{2, false}},
                                 kOpts, nullptr, &root_span);
  }
  ASSERT_TRUE(plain_p.ok()) << plain_p.status();
  ASSERT_TRUE(traced_p.ok()) << traced_p.status();
  EXPECT_EQ(Serialize(*plain_p), Serialize(*traced_p));
  EXPECT_EQ(ChildNames(trace_p.root()),
            (std::vector<std::string>{"rewrite", "store_scan", "eval"}));

  auto plain_g = toss_exec.GroupBy("dblp", UllmanAtSigmod(), 3, {1}, kOpts);
  obs::Trace trace_g("groupby(dblp)");
  Result<tax::TreeCollection> traced_g = tax::TreeCollection{};
  {
    obs::Span root_span = trace_g.RootSpan();
    traced_g = toss_exec.GroupBy("dblp", UllmanAtSigmod(), 3, {1}, kOpts,
                                 nullptr, &root_span);
  }
  ASSERT_TRUE(plain_g.ok()) << plain_g.status();
  ASSERT_TRUE(traced_g.ok()) << traced_g.status();
  EXPECT_EQ(Serialize(*plain_g), Serialize(*traced_g));
}

TEST_F(QueryExecutorTest, TracedJoinMatchesPlainExecute) {
  auto sigmod = db_.CreateCollection("sigmod");
  ASSERT_TRUE(sigmod.ok());
  ASSERT_TRUE((*sigmod)
                  ->InsertXml("page0",
                              "<proceedingsPage><articles>"
                              "<article gtid=\"10001\">"
                              "<title>Views.</title></article>"
                              "</articles></proceedingsPage>")
                  .ok());
  QueryExecutor toss_exec(&db_, &seo_, &types_);
  tax::PatternTree pt;
  int root = pt.AddRoot();
  int left = pt.AddChild(root, tax::EdgeKind::kPc);
  pt.AddChild(left, tax::EdgeKind::kPc);
  int article = pt.AddChild(root, tax::EdgeKind::kAd);
  pt.AddChild(article, tax::EdgeKind::kPc);
  pt.SetCondition(
      tax::ParseCondition("$1.tag = \"tax_prod_root\" & "
                          "$2.tag = \"inproceedings\" & $3.tag = \"title\" & "
                          "$4.tag = \"article\" & $5.tag = \"title\" & "
                          "$3.content ~ $5.content")
          .value());
  auto plain = toss_exec.Join("dblp", "sigmod", pt, {2, 4}, kOpts);
  obs::Trace trace("join(dblp,sigmod)");
  Result<tax::TreeCollection> traced = tax::TreeCollection{};
  {
    obs::Span root_span = trace.RootSpan();
    traced = toss_exec.Join("dblp", "sigmod", pt, {2, 4}, kOpts, nullptr,
                            &root_span);
  }
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_EQ(Serialize(*plain), Serialize(*traced));
  EXPECT_EQ(ChildNames(trace.root()),
            (std::vector<std::string>{"candidates_left", "candidates_right",
                                      "decode_right", "eval"}));
}

TEST_F(QueryExecutorTest, OperatorsMatchReference) {
  // Select / Project / GroupBy answers must be byte-identical to the naive
  // reference's, which sees no index and no symbol id: ids accelerate term
  // equality and ~, they never change it. Covers TAX (exact ~) and TOSS
  // (ontology + measure ~) semantics.
  const tax::PatternTree pt = UllmanAtSigmod();
  for (bool toss : {false, true}) {
    const Seo* seo = toss ? &seo_ : nullptr;
    const TypeSystem* types = toss ? &types_ : nullptr;
    QueryExecutor exec(&db_, seo, types);
    reference::Evaluator ref(&db_, seo, types);
    auto s = exec.Select("dblp", pt, {1}, kOpts);
    auto p = exec.Project("dblp", pt, {{2, false}}, kOpts);
    auto g = exec.GroupBy("dblp", pt, 3, {1}, kOpts);
    EXPECT_TRUE(reference::SameAnswer(s, ref.Select("dblp", pt, {1})));
    EXPECT_TRUE(reference::SameAnswer(p, ref.Project("dblp", pt, {{2, false}})));
    EXPECT_TRUE(reference::SameAnswer(g, ref.GroupBy("dblp", pt, 3, {1})));
    ASSERT_TRUE(s.ok() && p.ok() && g.ok());
    EXPECT_FALSE(s->empty() || p->empty() || g->empty());
  }
}

}  // namespace
}  // namespace toss::core
