// The parallel evaluation path must return exactly the naive reference's
// answers (reference_eval.h), in the same order, for both TAX and TOSS
// semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/toss.h"
#include "data/bib_generator.h"
#include "data/workload.h"
#include "eval/metrics.h"
#include "reference_eval.h"

namespace toss::core {
namespace {

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::BibConfig cfg;
    cfg.seed = 314;
    cfg.num_papers = 120;
    cfg.num_people = 30;
    world_ = data::GenerateWorld(cfg);
    ASSERT_TRUE(data::LoadIntoCollection(
                    &db_, "dblp", data::EmitDblp(world_, 0, 120, cfg))
                    .ok());
    auto coll = db_.GetCollection("dblp");
    ASSERT_TRUE(coll.ok());
    std::vector<const xml::XmlDocument*> docs;
    for (store::DocId id : (*coll)->AllDocs()) {
      docs.push_back(&(*coll)->document(id));
    }
    ontology::OntologyMakerOptions opts;
    opts.content_tags = data::DblpContentTags();
    auto onto = ontology::MakeOntologyForDocuments(
        docs, lexicon::BuiltinBibliographicLexicon(), opts);
    ASSERT_TRUE(onto.ok());
    SeoBuilder b;
    b.AddInstanceOntology(std::move(onto).value());
    b.SetMeasure(*sim::MakeMeasure("guarded-levenshtein"));
    b.SetEpsilon(3.0);
    auto seo = b.Build();
    ASSERT_TRUE(seo.ok()) << seo.status();
    seo_ = std::move(seo).value();
    types_ = MakeBibliographicTypeSystem();

    auto queries = data::MakeSelectionWorkload(world_, 0, 120, 5, 7);
    ASSERT_TRUE(queries.ok());
    queries_ = std::move(queries).value();
  }

  /// The options-path width knob for one call.
  static QueryOptions Width(size_t threads) {
    QueryOptions o;
    o.parallelism = threads;
    return o;
  }

  /// Runs `check(exec, ref)` with a 4-wide executor and the reference,
  /// under TAX and then under TOSS.
  template <typename Check>
  void ForBothSemantics(Check check) {
    for (bool use_toss : {false, true}) {
      const Seo* seo = use_toss ? &seo_ : nullptr;
      const TypeSystem* types = use_toss ? &types_ : nullptr;
      QueryExecutor par(&db_, seo, types);
      check(par, reference::Evaluator(&db_, seo, types));
    }
  }

  data::BibWorld world_;
  store::Database db_;
  Seo seo_;
  TypeSystem types_;
  std::vector<data::SelectionQuery> queries_;
};

TEST_F(ParallelExecTest, ParallelSelectMatchesReference) {
  ForBothSemantics([&](const QueryExecutor& par,
                       const reference::Evaluator& ref) {
    for (const auto& q : queries_) {
      EXPECT_TRUE(reference::SameAnswer(
          par.Select("dblp", q.pattern, q.sl, Width(4)),
          ref.Select("dblp", q.pattern, q.sl)))
          << q.name;
    }
  });
}

TEST_F(ParallelExecTest, ParallelismOfOneIsSequentialPath) {
  // Widths 0 and 1 both run the inline loop.
  QueryExecutor exec(&db_, &seo_, &types_);
  auto zero = exec.Select("dblp", queries_[0].pattern, queries_[0].sl,
                          Width(0));
  auto one = exec.Select("dblp", queries_[0].pattern, queries_[0].sl,
                         Width(1));
  ASSERT_TRUE(zero.ok());
  ASSERT_TRUE(one.ok());
  EXPECT_TRUE(reference::SameAnswer(zero, one));
}

TEST_F(ParallelExecTest, StatsStillPopulatedInParallelMode) {
  QueryExecutor par(&db_, &seo_, &types_);
  ExecStats stats;
  auto r = par.Select("dblp", queries_[0].pattern, queries_[0].sl, Width(4),
                      &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(stats.xpath_queries, 0u);
  EXPECT_EQ(stats.result_trees, r->size());
  EXPECT_GE(stats.eval_ms, 0.0);
}

TEST_F(ParallelExecTest, ManyThreadsOnFewDocsFallsBack) {
  // Fewer docs than 2*threads: the sequential path runs; results valid.
  QueryExecutor par(&db_, &seo_, &types_);
  auto r = par.Select("dblp", queries_[0].pattern, queries_[0].sl,
                      Width(64));
  ASSERT_TRUE(r.ok());
}

TEST_F(ParallelExecTest, ParallelProjectMatchesReference) {
  ForBothSemantics([&](const QueryExecutor& par,
                       const reference::Evaluator& ref) {
    for (const auto& q : queries_) {
      std::vector<tax::ProjectItem> pl;
      for (int label : q.sl) pl.push_back({label, false});
      if (pl.empty()) pl.push_back({1, true});
      EXPECT_TRUE(reference::SameAnswer(
          par.Project("dblp", q.pattern, pl, Width(4)),
          ref.Project("dblp", q.pattern, pl)))
          << q.name;
    }
  });
}

TEST_F(ParallelExecTest, ParallelGroupByMatchesReference) {
  // Group papers by publication year; groups must come back in the same
  // first-occurrence order with identical members.
  tax::PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(root, tax::EdgeKind::kPc);
  pt.SetCondition(tax::ParseCondition(
                      "$1.tag = \"inproceedings\" & $2.tag = \"year\"")
                      .value());
  ForBothSemantics([&](const QueryExecutor& par,
                       const reference::Evaluator& ref) {
    auto got = par.GroupBy("dblp", pt, 2, {1}, Width(4));
    EXPECT_TRUE(reference::SameAnswer(got, ref.GroupBy("dblp", pt, 2, {1})));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_GT(got->size(), 1u) << "fixture should span several years";
  });
}

TEST_F(ParallelExecTest, ParallelJoinMatchesReference) {
  // Self-join a small slice on equal publication year: enough pairs to
  // exercise the pool on both sides without a quadratic blowup.
  data::BibConfig cfg;
  cfg.seed = 314;
  cfg.num_papers = 120;
  cfg.num_people = 30;
  ASSERT_TRUE(data::LoadIntoCollection(&db_, "mini",
                                       data::EmitDblp(world_, 0, 15, cfg))
                  .ok());
  tax::PatternTree pt;
  int root = pt.AddRoot();
  int left = pt.AddChild(root, tax::EdgeKind::kPc);
  pt.AddChild(left, tax::EdgeKind::kPc);
  int right_sub = pt.AddChild(root, tax::EdgeKind::kPc);
  pt.AddChild(right_sub, tax::EdgeKind::kPc);
  pt.SetCondition(
      tax::ParseCondition("$1.tag = \"tax_prod_root\" & "
                          "$2.tag = \"inproceedings\" & $3.tag = \"year\" & "
                          "$4.tag = \"inproceedings\" & $5.tag = \"year\" & "
                          "$3.content = $5.content")
          .value());
  ForBothSemantics([&](const QueryExecutor& par,
                       const reference::Evaluator& ref) {
    auto got = par.Join("mini", "mini", pt, {2, 4}, Width(4));
    EXPECT_TRUE(
        reference::SameAnswer(got, ref.Join("mini", "mini", pt, {2, 4})));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_GT(got->size(), 0u) << "same-year pairs must exist";
  });
}

TEST_F(ParallelExecTest, WorkerErrorAbortsPoolAndMatchesSequentialError) {
  // An ill-typed ordering atom (unknown literal type) raises the same
  // TypeError in every document; the pool must stop and surface it.
  tax::PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(root, tax::EdgeKind::kPc);
  pt.SetCondition(tax::ParseCondition(
                      "$1.tag = \"inproceedings\" & $2.tag = \"year\" & "
                      "$2.content < \"2525\":bogus_type")
                      .value());
  QueryExecutor seq(&db_, &seo_, &types_);
  QueryExecutor par(&db_, &seo_, &types_);
  auto rs = seq.Select("dblp", pt, {1}, Width(1));
  auto rp = par.Select("dblp", pt, {1}, Width(4));
  ASSERT_FALSE(rs.ok());
  ASSERT_FALSE(rp.ok());
  EXPECT_EQ(rs.status().code(), rp.status().code());
  EXPECT_EQ(rs.status().message(), rp.status().message());
}

TEST_F(ParallelExecTest, ConcurrentQueriesOnOneExecutorMatchSequential) {
  // One executor, many client threads: construction froze the shared
  // read-only state, so concurrent Select calls must return exactly the
  // sequential answers (the service layer's core guarantee).
  QueryExecutor exec(&db_, &seo_, &types_);
  std::vector<tax::TreeCollection> want;
  for (const auto& q : queries_) {
    auto r = exec.Select("dblp", q.pattern, q.sl, Width(1));
    ASSERT_TRUE(r.ok()) << r.status();
    want.push_back(std::move(r).value());
  }
  constexpr size_t kThreads = 4;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (size_t qi = 0; qi < queries_.size(); ++qi) {
        auto r = exec.Select("dblp", queries_[qi].pattern, queries_[qi].sl,
                             Width(1));
        if (!r.ok() || r->size() != want[qi].size()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < want[qi].size(); ++i) {
          if (!(*r)[i].Equals(want[qi][i])) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST_F(ParallelExecTest, RepeatedQueriesHitTheDecodedTreeCache) {
  auto coll = db_.GetCollection("dblp");
  ASSERT_TRUE(coll.ok());
  QueryExecutor par(&db_, &seo_, &types_);
  ASSERT_TRUE(par.Select("dblp", queries_[0].pattern, queries_[0].sl,
                         Width(4))
                  .ok());
  auto first = (*coll)->GetTreeCacheStats();
  EXPECT_GT(first.misses, 0u);
  ASSERT_TRUE(par.Select("dblp", queries_[0].pattern, queries_[0].sl,
                         Width(4))
                  .ok());
  auto second = (*coll)->GetTreeCacheStats();
  EXPECT_EQ(second.misses, first.misses) << "second run must decode nothing";
  EXPECT_GT(second.hits, first.hits);
}

}  // namespace
}  // namespace toss::core
