// The structural (twig) join engine, three ways:
//   1. Unit tests of tax::TwigJoiner itself -- postings, pruning, the
//      stack-based merge, cancellation.
//   2. Golden executor tests: QueryExecutor::Join must return answers
//      byte-identical to the naive reference (tax::Select over
//      tax::Product, reference_eval.h), in identical order, under TAX and
//      TOSS -- on the twig engine with its value filter, and on the
//      pairwise fallback a posting blowup forces.
//   3. Randomized property tests: seeded random corpora and patterns
//      (ad edges, Or conditions, unpinned roots, root in the selection
//      list) against the reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/toss.h"
#include "obs/metrics.h"
#include "reference_eval.h"
#include "tax/tax_semantics.h"
#include "tax/twig_join.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace toss {
namespace {

std::shared_ptr<const tax::DataTree> Tree(const std::string& xml) {
  auto doc = xml::Parse(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::make_shared<tax::DataTree>(
      tax::DataTree::FromXml(*doc, doc->root()));
}

tax::PatternTree JoinPattern(const std::string& cond) {
  tax::PatternTree pt;
  int root = pt.AddRoot();
  int left = pt.AddChild(root, tax::EdgeKind::kPc);
  pt.AddChild(left, tax::EdgeKind::kPc);
  int right = pt.AddChild(root, tax::EdgeKind::kAd);
  pt.AddChild(right, tax::EdgeKind::kPc);
  auto parsed = tax::ParseCondition(cond);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  pt.SetCondition(std::move(parsed).value());
  return pt;
}

using reference::SameAnswer;

// ---------------------------------------------------------------------------
// TwigJoiner units
// ---------------------------------------------------------------------------

class TwigJoinerTest : public ::testing::Test {
 protected:
  tax::PatternTree pattern_ = JoinPattern(
      "$1.tag = \"tax_prod_root\" & "
      "$2.tag = \"paper\" & $3.tag = \"title\" & "
      "$4.tag = \"article\" & $5.tag = \"title\" & "
      "$3.content = $5.content");
  std::set<int> expand_{2, 4};
  tax::TaxSemantics sem_;
  tax::ExactSimilarOracle oracle_;
};

TEST_F(TwigJoinerTest, PlanRejectsDegeneratePatterns) {
  tax::PatternTree empty;
  EXPECT_EQ(tax::TwigJoiner::Plan(empty, {}, sem_, &oracle_), nullptr);
  tax::PatternTree bare;
  bare.AddRoot();
  EXPECT_EQ(tax::TwigJoiner::Plan(bare, {}, sem_, &oracle_), nullptr);
  EXPECT_NE(tax::TwigJoiner::Plan(pattern_, expand_, sem_, &oracle_),
            nullptr);
}

TEST_F(TwigJoinerTest, EmptyPostingsShortCircuitTheMerge) {
  auto joiner = tax::TwigJoiner::Plan(pattern_, expand_, sem_, &oracle_);
  ASSERT_NE(joiner, nullptr);
  tax::TwigJoinStats stats;
  // Neither doc carries the pattern's tags: no postings anywhere.
  auto l = joiner->Prepare(Tree("<misc><x>1</x></misc>"), &stats);
  auto r = joiner->Prepare(Tree("<misc><y>2</y></misc>"), &stats);
  ASSERT_TRUE(l.ok()) << l.status();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(l->HasPostings());
  const tax::TwigDoc* rp = &*r;
  auto out = joiner->JoinLeft(*l, {rp}, /*combos_enabled=*/true, /*first_part=*/true,
                       /*value_filter=*/nullptr, nullptr, &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(stats.stack_pushes.load(), 0u);
}

TEST_F(TwigJoinerTest, SingleDocPairProducesTheProduct) {
  auto joiner = tax::TwigJoiner::Plan(pattern_, expand_, sem_, &oracle_);
  ASSERT_NE(joiner, nullptr);
  tax::TwigJoinStats stats;
  // The left head's edge from the product root is pc, so in pair-tree
  // semantics it can only be the document root itself.
  auto l = joiner->Prepare(
      Tree("<paper><title>Views</title></paper>"), &stats);
  auto r = joiner->Prepare(
      Tree("<page><article><title>Views</title></article></page>"), &stats);
  ASSERT_TRUE(l.ok()) << l.status();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(l->HasPostings());
  const tax::TwigDoc* rp = &*r;
  auto out =
      joiner->JoinLeft(*l, {rp}, /*combos_enabled=*/true, /*first_part=*/true,
                       /*value_filter=*/nullptr, nullptr, &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->size(), 1u);
  const std::string xml = xml::Write((*out)[0].ToXml());
  EXPECT_NE(xml.find("tax_prod_root"), std::string::npos) << xml;
  EXPECT_NE(xml.find("paper"), std::string::npos) << xml;
  EXPECT_NE(xml.find("article"), std::string::npos) << xml;
  EXPECT_GT(stats.combos_emitted.load(), 0u);
  EXPECT_GT(stats.stack_pushes.load(), 0u);
}

TEST_F(TwigJoinerTest, DuplicateTermsGroupInOneRun) {
  auto joiner = tax::TwigJoiner::Plan(pattern_, expand_, sem_, &oracle_);
  ASSERT_NE(joiner, nullptr);
  tax::TwigJoinStats stats;
  // Two identical titles on each side: 4 combos pass, but the sorted runs
  // group the duplicate values, so stream advances stay sub-quadratic in
  // the duplicate count at the value-comparison level.
  auto l = joiner->Prepare(Tree("<paper>"
                                "<title>Same</title>"
                                "<title>Same</title>"
                                "</paper>"),
                           &stats);
  auto r = joiner->Prepare(Tree("<page>"
                                "<article><title>Same</title></article>"
                                "<article><title>Same</title></article>"
                                "</page>"),
                           &stats);
  ASSERT_TRUE(l.ok()) << l.status();
  ASSERT_TRUE(r.ok()) << r.status();
  const tax::TwigDoc* rp = &*r;
  auto out =
      joiner->JoinLeft(*l, {rp}, /*combos_enabled=*/true, /*first_part=*/true,
                       /*value_filter=*/nullptr, nullptr, &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  // All 2x2 combinations are checked and pass, but their witness trees are
  // byte-identical, so dedup collapses them to one answer -- exactly what
  // the pairwise engine produces.
  EXPECT_EQ(stats.combos_checked.load(), 4u);
  EXPECT_EQ(stats.combos_emitted.load(), 4u);
  EXPECT_EQ(out->size(), 1u);
}

TEST_F(TwigJoinerTest, CancellationMidMergeAborts) {
  auto joiner = tax::TwigJoiner::Plan(pattern_, expand_, sem_, &oracle_);
  ASSERT_NE(joiner, nullptr);
  tax::TwigJoinStats stats;
  auto l = joiner->Prepare(
      Tree("<paper><title>Views</title></paper>"), &stats);
  auto r = joiner->Prepare(
      Tree("<page><article><title>Views</title></article></page>"), &stats);
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(r.ok());
  CancelToken cancel;
  cancel.Cancel();
  const tax::TwigDoc* rp = &*r;
  auto out =
      joiner->JoinLeft(*l, {rp}, /*combos_enabled=*/true, /*first_part=*/true,
                       /*value_filter=*/nullptr, &cancel, &stats);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCancelled()) << out.status();
}

TEST_F(TwigJoinerTest, PruneFiltersExposeThePinnedTags) {
  auto joiner = tax::TwigJoiner::Plan(pattern_, expand_, sem_, &oracle_);
  ASSERT_NE(joiner, nullptr);
  auto filters = joiner->PruneFilterIds();
  // Both subtree heads are tag-pinned and the root's pin is the product
  // tag, so pruning is available.
  ASSERT_FALSE(filters.empty());
  auto kept = [&](const char* tag) {
    const SymbolId id = Interner::Global().Intern(tag);
    for (const auto& f : filters) {
      if (std::binary_search(f.begin(), f.end(), id)) return true;
    }
    return false;
  };
  EXPECT_TRUE(kept("paper"));
  EXPECT_TRUE(kept("article"));

  // An unpinned head disables doc pruning (any node could match).
  tax::PatternTree loose = JoinPattern(
      "$1.tag = \"tax_prod_root\" & $3.tag = \"title\" & "
      "$5.tag = \"title\" & $3.content = $5.content");
  auto loose_joiner = tax::TwigJoiner::Plan(loose, expand_, sem_, &oracle_);
  ASSERT_NE(loose_joiner, nullptr);
  EXPECT_TRUE(loose_joiner->PruneFilterIds().empty());
}

// ---------------------------------------------------------------------------
// Golden executor comparisons against the reference
// ---------------------------------------------------------------------------

class TwigGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dblp = db_.CreateCollection("dblp");
    ASSERT_TRUE(dblp.ok());
    const char* kPapers[] = {
        "<inproceedings gtid=\"10001\">"
        "<author gtid=\"1001\">Jeffrey Ullman</author>"
        "<title>Views</title>"
        "<booktitle>SIGMOD Conference</booktitle><year>1999</year>"
        "</inproceedings>",
        "<inproceedings gtid=\"10002\">"
        "<author gtid=\"1001\">Jeffrey D. Ullman</author>"
        "<title>Indexes</title>"
        "<booktitle>ACM SIGMOD International Conference on Management of "
        "Data</booktitle><year>2000</year>"
        "</inproceedings>",
        "<inproceedings gtid=\"10003\">"
        "<author gtid=\"1002\">Serge Abiteboul</author>"
        "<title>Trees</title>"
        "<booktitle>SIGMOD Conference</booktitle><year>2000</year>"
        "</inproceedings>",
        // A doc with none of the join tags: exercises document pruning.
        "<misc gtid=\"10005\"><note>nothing to join</note></misc>",
        // Duplicate titles inside one doc: exercises run grouping.
        "<inproceedings gtid=\"10006\">"
        "<title>Views</title><title>Views</title>"
        "<booktitle>SIGMOD Conference</booktitle>"
        "</inproceedings>",
    };
    int i = 0;
    for (const char* p : kPapers) {
      ASSERT_TRUE((*dblp)->InsertXml("p" + std::to_string(i++), p).ok());
    }

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
    ASSERT_TRUE((*sigmod)
                    ->InsertXml("page1",
                                "<proceedingsPage><articles>"
                                "<article gtid=\"10003\">"
                                "<title>Trees</title></article>"
                                "</articles></proceedingsPage>")
                    .ok());

    ontology::OntologyMakerOptions opts;
    opts.content_tags = {"author", "booktitle", "title"};
    std::vector<const xml::XmlDocument*> docs;
    for (store::DocId id : (*dblp)->AllDocs()) {
      docs.push_back(&(*dblp)->document(id));
    }
    auto o = ontology::MakeOntologyForDocuments(
        docs, lexicon::BuiltinBibliographicLexicon(), opts);
    ASSERT_TRUE(o.ok()) << o.status();
    core::SeoBuilder builder;
    builder.AddInstanceOntology(std::move(o).value());
    builder.SetMeasure(*sim::MakeMeasure("levenshtein"));
    builder.SetEpsilon(3.0);
    auto seo = builder.Build();
    ASSERT_TRUE(seo.ok()) << seo.status();
    seo_ = std::move(seo).value();
    types_ = core::MakeBibliographicTypeSystem();
  }

  /// Fig. 16(b)'s shape: `left_tag`/title joined to article/title.
  static tax::PatternTree TitleJoin(
      const std::string& join_atom,
      const std::string& left_tag = "inproceedings") {
    return JoinPattern("$1.tag = \"tax_prod_root\" & $2.tag = \"" +
                       left_tag + "\" & $3.tag = \"title\" & " +
                       "$4.tag = \"article\" & $5.tag = \"title\" & " +
                       join_atom);
  }

  /// Runs the join and requires the reference's answer (or error code)
  /// byte for byte, in identical order. Returns the answer size.
  size_t ExpectMatchesReference(const core::QueryExecutor& exec,
                                const tax::PatternTree& pt,
                                const std::vector<int>& sl) {
    reference::Evaluator ref(&db_, exec.is_toss() ? &seo_ : nullptr,
                             exec.is_toss() ? &types_ : nullptr);
    auto got = exec.Join("dblp", "sigmod", pt, sl, core::QueryOptions{});
    EXPECT_TRUE(SameAnswer(got, ref.Join("dblp", "sigmod", pt, sl)));
    return got.ok() ? got->size() : 0;
  }

  store::Database db_;
  core::Seo seo_;
  core::TypeSystem types_;
};

TEST_F(TwigGoldenTest, Fig16StylePatternUnderTaxAndToss) {
  tax::PatternTree pt = TitleJoin("$3.content ~ $5.content");
  core::QueryExecutor tax_exec(&db_, nullptr, nullptr);
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  size_t tax_n = ExpectMatchesReference(tax_exec, pt, {2, 4});
  size_t toss_n = ExpectMatchesReference(toss_exec, pt, {2, 4});
  // TOSS's ~ admits "Views"/"Views." on top of TAX's exact "Trees".
  EXPECT_GT(toss_n, tax_n);
  EXPECT_GT(tax_n, 0u);
}

TEST_F(TwigGoldenTest, AdEdgesOrConditionsAndUnpinnedRoot) {
  // No root tag pin, Or across the sides, one unpinned head.
  tax::PatternTree pt = JoinPattern(
      "$3.tag = \"title\" & $5.tag = \"title\" & "
      "($3.content = $5.content | $3.content = \"Trees\")");
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  EXPECT_GT(ExpectMatchesReference(toss_exec, pt, {2, 4}), 0u);
}

TEST_F(TwigGoldenTest, RootInSelectionListCopiesWholePairs) {
  tax::PatternTree pt = TitleJoin("$3.content = $5.content");
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  EXPECT_GT(ExpectMatchesReference(toss_exec, pt, {1}), 0u);
}

TEST_F(TwigGoldenTest, ValueFilterSkipsPairsWithoutChangingAnswers) {
  // On the similarity-join shape the filter is in-envelope: pairs whose
  // titles share no compatible value are skipped, and the answer still
  // matches the reference exactly.
  tax::PatternTree pt = TitleJoin("$3.content ~ $5.content");
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  obs::Counter& skipped =
      obs::Metrics().GetCounter("core.query.join.twig.pairs_value_skipped");
  const uint64_t before = skipped.Value();
  EXPECT_GT(ExpectMatchesReference(toss_exec, pt, {2, 4}), 0u);
  EXPECT_GT(skipped.Value(), before);
}

TEST_F(TwigGoldenTest, NoMatchesStaysEmpty) {
  tax::PatternTree pt = TitleJoin("$3.content = $5.content", "phantom");
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  EXPECT_EQ(ExpectMatchesReference(toss_exec, pt, {2, 4}), 0u);
}

TEST_F(TwigGoldenTest, CancelledTokenAbortsTheTwigJoin) {
  tax::PatternTree pt = TitleJoin("$3.content = $5.content");
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  CancelToken cancel;
  cancel.Cancel();
  core::QueryOptions options;
  options.cancel = &cancel;
  auto r = toss_exec.Join("dblp", "sigmod", pt, {2, 4}, options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status();
}

TEST_F(TwigGoldenTest, TracedJoinAnnotatesTheTwigPhases) {
  tax::PatternTree pt = TitleJoin("$3.content ~ $5.content");
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  obs::Trace trace("join(dblp,sigmod)");
  {
    obs::Span root_span = trace.RootSpan();
    auto joined = toss_exec.Join("dblp", "sigmod", pt, {2, 4},
                                 core::QueryOptions{}, nullptr, &root_span);
    ASSERT_TRUE(joined.ok()) << joined.status();
  }
  const std::string pretty = trace.Pretty();
  EXPECT_NE(pretty.find("twig_postings"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("twig_merge"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("stream_advances"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("join_engine"), std::string::npos) << pretty;
}

TEST(JoinOperandTest, AnyNodeMayMapIntoEitherDocumentOfAPair) {
  // A join selects over the product: both subtrees can map into r0, and
  // the right subtree into l1, which holds no node for the left one. The
  // witness lying in r0 alone comes first, from the pair with l0 (no node
  // for any subtree). With the root selected, each pair shows whole: 3.
  store::Database db;
  auto left = db.CreateCollection("left");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE((*left)->InsertXml("l0", "<misc/>").ok());
  ASSERT_TRUE((*left)->InsertXml("l1", "<c><d>2</d></c>").ok());
  ASSERT_TRUE((*left)->InsertXml("l2", "<x/>").ok());
  auto right = db.CreateCollection("right");
  ASSERT_TRUE(right.ok());
  ASSERT_TRUE((*right)
                  ->InsertXml("r0", "<r><a><b>1</b></a><c><d>1</d></c></r>")
                  .ok());
  tax::PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(pt.AddChild(root, tax::EdgeKind::kAd), tax::EdgeKind::kPc);
  pt.AddChild(pt.AddChild(root, tax::EdgeKind::kAd), tax::EdgeKind::kPc);
  pt.SetCondition(tax::ParseCondition(
                      "$1.tag = \"tax_prod_root\" & $2.tag = \"a\" & "
                      "$3.tag = \"b\" & $4.tag = \"c\" & $5.tag = \"d\"")
                      .value());
  core::QueryExecutor exec(&db, nullptr, nullptr);
  reference::Evaluator ref(&db);
  for (const std::vector<int>& sl : {std::vector<int>{2, 4}, {1}}) {
    auto got = exec.Join("left", "right", pt, sl, {});
    EXPECT_TRUE(SameAnswer(got, ref.Join("left", "right", pt, sl)));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->size(), sl.size() == 2 ? 2u : 3u);
  }
}

TEST(TwigFallbackTest, PostingBlowupFallsBackToPairwise) {
  // An unpinned ad edge over a chain 460 elements deep has 460 * 459 / 2 =
  // 105,570 partial matches in one document, past the engine's 100,000
  // posting cap: the join takes the pairwise path, with the same answer.
  store::Database db;
  xml::XmlDocument chain;
  xml::NodeId node = chain.CreateRoot("c");
  for (int depth = 1; depth < 460; ++depth) {
    node = chain.AppendElement(node, "c");
    chain.AppendText(node, std::to_string(depth % 3));
  }
  auto left = db.CreateCollection("chain");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE((*left)->Insert("deep", std::move(chain)).ok());
  auto right = db.CreateCollection("tiny");
  ASSERT_TRUE(right.ok());
  ASSERT_TRUE((*right)->InsertXml("t", "<r><s>x</s></r>").ok());

  tax::PatternTree pt;
  int root = pt.AddRoot();
  int top = pt.AddChild(root, tax::EdgeKind::kAd);
  pt.AddChild(top, tax::EdgeKind::kAd);
  int r = pt.AddChild(root, tax::EdgeKind::kPc);
  pt.AddChild(r, tax::EdgeKind::kPc);
  pt.SetCondition(tax::ParseCondition("$1.tag = \"tax_prod_root\" & "
                                      "$4.tag = \"r\" & $5.tag = \"s\"")
                      .value());
  core::QueryExecutor exec(&db, nullptr, nullptr);
  obs::Counter& fallbacks =
      obs::Metrics().GetCounter("core.query.join.twig.fallbacks");
  const uint64_t before = fallbacks.Value();
  core::ExecStats stats;
  auto got = exec.Join("chain", "tiny", pt, {4}, {}, &stats);
  EXPECT_EQ(stats.join_engine, 1);
  EXPECT_EQ(fallbacks.Value(), before + 1);
  reference::Evaluator ref(&db);
  EXPECT_TRUE(SameAnswer(got, ref.Join("chain", "tiny", pt, {4})));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_GT(got->size(), 1u);
}

// ---------------------------------------------------------------------------
// Randomized property equivalence
// ---------------------------------------------------------------------------

class TwigPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937 rng(4242);
    auto load = [&](const std::string& name, size_t docs) {
      auto coll = db_.CreateCollection(name);
      ASSERT_TRUE(coll.ok());
      for (size_t i = 0; i < docs; ++i) {
        ASSERT_TRUE(
            (*coll)->InsertXml("d" + std::to_string(i), RandomDoc(&rng)).ok());
      }
    };
    load("lhs", 6);
    load("rhs", 5);
  }

  std::string RandomDoc(std::mt19937* rng) {
    static const char* kTags[] = {"paper", "note", "entry"};
    static const char* kLeafTags[] = {"title", "author", "extra"};
    static const char* kTexts[] = {"alpha", "alpha.", "beta", "gamma", "Alph"};
    auto pick = [&](auto& arr) {
      return arr[std::uniform_int_distribution<size_t>(
          0, std::size(arr) - 1)(*rng)];
    };
    std::string xml = "<root>";
    const int blocks = std::uniform_int_distribution<int>(1, 3)(*rng);
    for (int b = 0; b < blocks; ++b) {
      const char* tag = pick(kTags);
      xml += std::string("<") + tag + ">";
      const int leaves = std::uniform_int_distribution<int>(1, 2)(*rng);
      for (int l = 0; l < leaves; ++l) {
        const char* leaf = pick(kLeafTags);
        xml += std::string("<") + leaf + ">" + pick(kTexts) + "</" + leaf +
               ">";
      }
      xml += std::string("</") + tag + ">";
    }
    xml += "</root>";
    return xml;
  }

  /// A random 2-subtree join pattern + selection list. Covers pc and ad
  /// edges, pinned and unpinned roots/heads, cross-side ~ and =, Or
  /// clauses, and root-in-selection-list.
  std::pair<tax::PatternTree, std::vector<int>> RandomPattern(
      std::mt19937* rng) {
    auto chance = [&](double p) {
      return std::uniform_real_distribution<double>(0, 1)(*rng) < p;
    };
    auto edge = [&] {
      return chance(0.5) ? tax::EdgeKind::kPc : tax::EdgeKind::kAd;
    };
    tax::PatternTree pt;
    int root = pt.AddRoot();
    int l1 = pt.AddChild(root, edge());
    int l2 = pt.AddChild(l1, edge());
    int r1 = pt.AddChild(root, edge());
    int r2 = pt.AddChild(r1, edge());

    static const char* kTags[] = {"paper", "note", "entry"};
    static const char* kLeafTags[] = {"title", "author", "extra"};
    auto pick = [&](auto& arr) {
      return arr[std::uniform_int_distribution<size_t>(
          0, std::size(arr) - 1)(*rng)];
    };
    std::vector<std::string> atoms;
    if (chance(0.6)) atoms.push_back("$1.tag = \"tax_prod_root\"");
    auto pin = [&](int label, auto& arr, double p) {
      if (chance(p)) {
        atoms.push_back("$" + std::to_string(label) + ".tag = \"" +
                        pick(arr) + "\"");
      }
    };
    pin(l1, kTags, 0.7);
    pin(l2, kLeafTags, 0.7);
    pin(r1, kTags, 0.7);
    pin(r2, kLeafTags, 0.7);
    if (chance(0.6)) {
      atoms.push_back("$" + std::to_string(l2) + ".content " +
                      (chance(0.5) ? "~ $" : "= $") + std::to_string(r2) +
                      ".content");
    }
    if (chance(0.3)) {
      atoms.push_back("($" + std::to_string(l2) +
                      ".content = \"alpha\" | $" + std::to_string(r2) +
                      ".content = \"beta\")");
    }
    if (atoms.empty()) atoms.push_back("$1.tag = \"tax_prod_root\"");
    std::string cond = atoms[0];
    for (size_t i = 1; i < atoms.size(); ++i) cond += " & " + atoms[i];
    auto parsed = tax::ParseCondition(cond);
    EXPECT_TRUE(parsed.ok()) << cond << ": " << parsed.status();
    pt.SetCondition(std::move(parsed).value());

    std::vector<int> sl;
    if (chance(0.2)) sl.push_back(1);
    for (int label : {l1, r1}) {
      if (chance(0.5)) sl.push_back(label);
    }
    if (sl.empty()) sl = {l1, r1};
    return {std::move(pt), std::move(sl)};
  }

  /// 40 random joins at widths 1-4, each matching the reference.
  void ExpectRandomPatternsMatch(const core::QueryExecutor& exec,
                                 const reference::Evaluator& ref,
                                 uint32_t seed) {
    std::mt19937 rng(seed);
    for (int trial = 0; trial < 40; ++trial) {
      auto [pt, sl] = RandomPattern(&rng);
      core::QueryOptions options;
      options.parallelism = 1 + trial % 4;
      EXPECT_TRUE(SameAnswer(exec.Join("lhs", "rhs", pt, sl, options),
                             ref.Join("lhs", "rhs", pt, sl)))
          << "trial " << trial << ": " << pt.condition().ToString();
    }
  }

  store::Database db_;
};

TEST_F(TwigPropertyTest, RandomPatternsMatchReferenceUnderTax) {
  ExpectRandomPatternsMatch(core::QueryExecutor(&db_, nullptr, nullptr),
                            reference::Evaluator(&db_), 777);
}

TEST_F(TwigPropertyTest, RandomPatternsMatchReferenceUnderToss) {
  // An SEO over the left documents: "alpha." and "Alph" are no ontology
  // terms, so ~ on them takes the measure fallback.
  ontology::OntologyMakerOptions opts;
  opts.content_tags = {"title", "author", "extra"};
  auto lhs = db_.GetCollection("lhs");
  ASSERT_TRUE(lhs.ok());
  std::vector<const xml::XmlDocument*> docs;
  for (store::DocId id : (*lhs)->AllDocs()) {
    docs.push_back(&(*lhs)->document(id));
  }
  auto o = ontology::MakeOntologyForDocuments(
      docs, lexicon::BuiltinBibliographicLexicon(), opts);
  ASSERT_TRUE(o.ok()) << o.status();
  core::SeoBuilder builder;
  builder.AddInstanceOntology(std::move(o).value());
  builder.SetMeasure(*sim::MakeMeasure("levenshtein"));
  builder.SetEpsilon(1.0);
  auto seo = builder.Build();
  ASSERT_TRUE(seo.ok()) << seo.status();
  core::TypeSystem types = core::MakeBibliographicTypeSystem();
  ExpectRandomPatternsMatch(core::QueryExecutor(&db_, &*seo, &types),
                            reference::Evaluator(&db_, &*seo, &types), 31337);
}

// ---------------------------------------------------------------------------
// Myers bit-parallel Levenshtein (rides along: the similarity fast path the
// twig join's oracle leans on)
// ---------------------------------------------------------------------------

TEST(MyersLevenshteinTest, MatchesTheReferenceDpOnFixedCases) {
  using sim::internal::LevenshteinDp;
  using sim::internal::LevenshteinMyers64;
  const std::pair<const char*, const char*> kCases[] = {
      {"", ""},           {"", "abc"},          {"abc", ""},
      {"abc", "abc"},     {"kitten", "sitting"}, {"flaw", "lawn"},
      {"Views", "Views."}, {"a", "b"},           {"ab", "ba"},
  };
  for (const auto& [a, b] : kCases) {
    EXPECT_EQ(LevenshteinMyers64(a, b), LevenshteinDp(a, b))
        << "\"" << a << "\" vs \"" << b << "\"";
  }
}

TEST(MyersLevenshteinTest, PropertyEqualToDpOnRandomStrings) {
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> len(0, 64);
  std::uniform_int_distribution<int> chr(0, 5);  // tiny alphabet: collisions
  auto make = [&] {
    std::string s;
    const int n = len(rng);
    for (int i = 0; i < n; ++i) s += static_cast<char>('a' + chr(rng));
    return s;
  };
  for (int trial = 0; trial < 500; ++trial) {
    const std::string a = make();
    const std::string b = make();
    EXPECT_EQ(sim::internal::LevenshteinMyers64(a, b),
              sim::internal::LevenshteinDp(a, b))
        << "\"" << a << "\" vs \"" << b << "\"";
  }
}

TEST(MyersLevenshteinTest, MeasureUsesTheFastPathTransparently) {
  auto measure = sim::MakeMeasure("levenshtein");
  ASSERT_TRUE(measure.ok());
  EXPECT_EQ((*measure)->Distance("kitten", "sitting"), 3.0);
  // 65+ chars takes the blocked bit-parallel path; same answer.
  const std::string long_a(100, 'a');
  std::string long_b = long_a;
  long_b[50] = 'b';
  EXPECT_EQ((*measure)->Distance(long_a, long_b), 1.0);
}

TEST(MyersLevenshteinTest, BlockedMatchesTheReferenceDpOnFixedCases) {
  using sim::internal::LevenshteinDp;
  using sim::internal::LevenshteinMyersBlocked;
  const std::string a64(64, 'x');
  const std::string a65(65, 'x');
  const std::string a128(128, 'x');
  const std::string a129(129, 'x');
  const std::pair<std::string, std::string> kCases[] = {
      {"", ""},
      {"", a129},
      {a65, ""},
      {a65, a65},
      {a64, a65},                       // word-boundary straddle
      {a128, a129},                     // two-word boundary straddle
      {a65 + "abc", a65 + "acb"},
      {a128 + "kitten", a128 + "sitting"},
      {"kitten", "sitting"},            // also valid below the block limit
  };
  for (const auto& [a, b] : kCases) {
    EXPECT_EQ(LevenshteinMyersBlocked(a, b), LevenshteinDp(a, b))
        << a.size() << " vs " << b.size();
  }
}

TEST(MyersLevenshteinTest, PropertyBlockedEqualToDpOnRandomStrings) {
  std::mt19937 rng(4321);
  // Lengths hug the 64/128/192 block boundaries where the carry and
  // shift-chaining bugs live, on a tiny alphabet to force dense matches.
  std::uniform_int_distribution<int> block(0, 2);
  std::uniform_int_distribution<int> jitter(-3, 3);
  std::uniform_int_distribution<int> chr(0, 5);
  auto make = [&] {
    int n = std::max(0, 64 * (block(rng) + 1) + jitter(rng));
    std::string s;
    for (int i = 0; i < n; ++i) s += static_cast<char>('a' + chr(rng));
    return s;
  };
  for (int trial = 0; trial < 200; ++trial) {
    const std::string a = make();
    const std::string b = make();
    EXPECT_EQ(sim::internal::LevenshteinMyersBlocked(a, b),
              sim::internal::LevenshteinDp(a, b))
        << "trial " << trial << ": " << a.size() << " vs " << b.size();
  }
}

}  // namespace
}  // namespace toss
