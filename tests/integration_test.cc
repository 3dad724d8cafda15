// End-to-end pipeline tests: generate data -> load store -> make ontologies
// -> fuse -> similarity-enhance -> execute TAX and TOSS queries -> audit
// against ground truth. These check the paper's *qualitative* claims at
// small scale; the quantitative reproduction lives in bench/.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "core/toss.h"
#include "data/bib_generator.h"
#include "data/workload.h"
#include "eval/metrics.h"
#include "reference_eval.h"

namespace toss {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static constexpr size_t kPapers = 80;

  void SetUp() override {
    data::BibConfig cfg;
    cfg.seed = 2026;
    cfg.num_people = 40;
    cfg.num_papers = kPapers;
    world_ = data::GenerateWorld(cfg);
    ASSERT_TRUE(data::LoadIntoCollection(
                    &db_, "dblp", data::EmitDblp(world_, 0, kPapers, cfg))
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
    ASSERT_TRUE(onto.ok()) << onto.status();
    onto_ = std::move(onto).value();
    types_ = core::MakeBibliographicTypeSystem();

    auto queries = data::MakeSelectionWorkload(world_, 0, kPapers, 6, 77);
    ASSERT_TRUE(queries.ok()) << queries.status();
    queries_ = std::move(queries).value();
  }

  core::Seo BuildSeo(double epsilon) {
    core::SeoBuilder b;
    b.AddInstanceOntology(onto_);
    b.SetMeasure(*sim::MakeMeasure("levenshtein"));
    b.SetEpsilon(epsilon);
    auto seo = b.Build();
    EXPECT_TRUE(seo.ok()) << seo.status();
    return std::move(seo).value();
  }

  data::BibWorld world_;
  store::Database db_;
  ontology::Ontology onto_;
  core::TypeSystem types_;
  std::vector<data::SelectionQuery> queries_;
};

TEST_F(PipelineTest, TaxPrecisionIsAlwaysOne) {
  core::QueryExecutor tax_exec(&db_, nullptr, nullptr);
  for (const auto& q : queries_) {
    auto r = tax_exec.Select("dblp", q.pattern, q.sl, core::QueryOptions{});
    ASSERT_TRUE(r.ok()) << q.name << ": " << r.status();
    auto m = eval::ComputePr(eval::ExtractRootProvenance(*r), q.correct);
    EXPECT_DOUBLE_EQ(m.precision, 1.0) << q.name;
    EXPECT_LE(m.recall, 1.0);
  }
}

TEST_F(PipelineTest, TossBeatsTaxOnRecallAndQuality) {
  core::Seo seo = BuildSeo(3.0);
  core::QueryExecutor tax_exec(&db_, nullptr, nullptr);
  core::QueryExecutor toss_exec(&db_, &seo, &types_);
  double tax_quality = 0, toss_quality = 0;
  double tax_recall = 0, toss_recall = 0;
  for (const auto& q : queries_) {
    auto tr = tax_exec.Select("dblp", q.pattern, q.sl, core::QueryOptions{});
    auto sr = toss_exec.Select("dblp", q.pattern, q.sl, core::QueryOptions{});
    ASSERT_TRUE(tr.ok()) << q.name;
    ASSERT_TRUE(sr.ok()) << q.name;
    auto tm = eval::ComputePr(eval::ExtractRootProvenance(*tr), q.correct);
    auto sm = eval::ComputePr(eval::ExtractRootProvenance(*sr), q.correct);
    EXPECT_GE(sm.recall, tm.recall) << q.name;
    tax_quality += tm.quality;
    toss_quality += sm.quality;
    tax_recall += tm.recall;
    toss_recall += sm.recall;
  }
  EXPECT_GT(toss_recall, tax_recall);
  EXPECT_GT(toss_quality, tax_quality);
}

TEST_F(PipelineTest, TossAnswersGrowMonotonicallyWithEpsilon) {
  core::Seo seo2 = BuildSeo(2.0);
  core::Seo seo3 = BuildSeo(3.0);
  core::QueryExecutor tax_exec(&db_, nullptr, nullptr);
  core::QueryExecutor exec2(&db_, &seo2, &types_);
  core::QueryExecutor exec3(&db_, &seo3, &types_);
  for (const auto& q : queries_) {
    auto r0 = tax_exec.Select("dblp", q.pattern, q.sl, core::QueryOptions{});
    auto r2 = exec2.Select("dblp", q.pattern, q.sl, core::QueryOptions{});
    auto r3 = exec3.Select("dblp", q.pattern, q.sl, core::QueryOptions{});
    ASSERT_TRUE(r0.ok());
    ASSERT_TRUE(r2.ok());
    ASSERT_TRUE(r3.ok());
    auto ids0 = eval::ExtractRootProvenance(*r0);
    auto ids2 = eval::ExtractRootProvenance(*r2);
    auto ids3 = eval::ExtractRootProvenance(*r3);
    // TAX answers are contained in TOSS answers; eps=2 in eps=3 (the ~
    // relation only grows with eps for exact-literal queries).
    EXPECT_TRUE(std::includes(ids2.begin(), ids2.end(), ids0.begin(),
                              ids0.end()))
        << q.name;
    EXPECT_TRUE(std::includes(ids3.begin(), ids3.end(), ids2.begin(),
                              ids2.end()))
        << q.name;
  }
}

TEST_F(PipelineTest, PersistenceDoesNotChangeAnswers) {
  core::Seo seo = BuildSeo(3.0);
  core::QueryExecutor exec(&db_, &seo, &types_);
  auto before = exec.Select("dblp", queries_[0].pattern, {1}, core::QueryOptions{});
  ASSERT_TRUE(before.ok());

  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "toss_integration_db";
  fs::remove_all(dir);
  ASSERT_TRUE(db_.Save(dir.string()).ok());
  auto reopened = store::Database::Open(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status();

  core::QueryExecutor exec2(&*reopened, &seo, &types_);
  auto after = exec2.Select("dblp", queries_[0].pattern, {1}, core::QueryOptions{});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(eval::ExtractRootProvenance(*before),
            eval::ExtractRootProvenance(*after));
  fs::remove_all(dir);
}

TEST_F(PipelineTest, InflatedOntologyPreservesAnswers) {
  // Fig 16(a)'s ontology-size sweep relies on padding being inert.
  core::Seo seo = BuildSeo(3.0);
  ontology::Ontology inflated = onto_;
  data::InflateOntology(&inflated, 150, 99);
  core::SeoBuilder b;
  b.AddInstanceOntology(std::move(inflated));
  b.SetMeasure(*sim::MakeMeasure("levenshtein"));
  b.SetEpsilon(3.0);
  auto big = b.Build();
  ASSERT_TRUE(big.ok()) << big.status();
  EXPECT_GT(big->TotalNodeCount(), seo.TotalNodeCount());

  core::QueryExecutor small_exec(&db_, &seo, &types_);
  core::QueryExecutor big_exec(&db_, &*big, &types_);
  for (const auto& q : queries_) {
    auto rs = small_exec.Select("dblp", q.pattern, q.sl, core::QueryOptions{});
    auto rb = big_exec.Select("dblp", q.pattern, q.sl, core::QueryOptions{});
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(eval::ExtractRootProvenance(*rs),
              eval::ExtractRootProvenance(*rb))
        << q.name;
  }
}

TEST_F(PipelineTest, ExecutorMatchesReference) {
  // The executor's rewrite -> store -> evaluate pipeline must return the
  // naive reference's answers byte for byte on the Fig. 15 workload (the
  // rewrite is a pure pruning step).
  core::Seo seo = BuildSeo(3.0);
  core::QueryExecutor exec(&db_, &seo, &types_);
  reference::Evaluator ref(&db_, &seo, &types_);
  for (const auto& q : queries_) {
    EXPECT_TRUE(reference::SameAnswer(
        exec.Select("dblp", q.pattern, q.sl, core::QueryOptions{}),
        ref.Select("dblp", q.pattern, q.sl)))
        << q.name;
  }
}

}  // namespace
}  // namespace toss
