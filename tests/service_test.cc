// The service front door (DESIGN.md §11): one Run() entry point that must
// (a) answer exactly like the legacy per-operator wrappers, including under
// concurrent mixed load; (b) shed with ResourceExhausted when saturated;
// (c) honor deadlines and cancellation mid-query; and (d) reuse phase (i)
// plans through the prepared-query cache until SwapSeo invalidates them,
// across writes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/toss.h"
#include "data/bib_generator.h"
#include "data/workload.h"
#include "obs/trace.h"
#include "service/toss_service.h"

namespace toss::service {
namespace {

void ExpectSameTrees(const tax::TreeCollection& a,
                     const tax::TreeCollection& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].Equals(b[i])) << what << " tree " << i << " differs";
  }
}

// --- AdmissionController in isolation --------------------------------------

TEST(AdmissionControllerTest, ShedsWhenInflightAndQueueAreFull) {
  AdmissionController ac(/*max_inflight=*/1, /*max_queue=*/0);
  ASSERT_TRUE(ac.Acquire(nullptr).ok());
  EXPECT_EQ(ac.inflight(), 1u);

  Status s = ac.Acquire(nullptr);
  EXPECT_TRUE(s.IsResourceExhausted()) << s;

  ac.Release();
  EXPECT_EQ(ac.inflight(), 0u);
  ASSERT_TRUE(ac.Acquire(nullptr).ok());
  ac.Release();
}

TEST(AdmissionControllerTest, QueuedWaiterIsAdmittedOnRelease) {
  AdmissionController ac(1, 1);
  ASSERT_TRUE(ac.Acquire(nullptr).ok());

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    Status s = ac.Acquire(nullptr);
    EXPECT_TRUE(s.ok()) << s;
    admitted.store(true);
    ac.Release();
  });
  while (ac.queued() == 0) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());
  ac.Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(ac.inflight(), 0u);
}

TEST(AdmissionControllerTest, QueuedWaiterHonorsDeadline) {
  AdmissionController ac(1, 1);
  ASSERT_TRUE(ac.Acquire(nullptr).ok());
  CancelToken deadline = CancelToken::AfterMillis(30);
  Status s = ac.Acquire(&deadline);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s;
  EXPECT_EQ(ac.queued(), 0u) << "expired waiter must leave the queue";
  ac.Release();
}

TEST(AdmissionControllerTest, QueuedWaiterHonorsExternalCancel) {
  AdmissionController ac(1, 1);
  ASSERT_TRUE(ac.Acquire(nullptr).ok());
  CancelToken token;
  std::atomic<bool> done{false};
  std::thread waiter([&] {
    Status s = ac.Acquire(&token);
    EXPECT_TRUE(s.IsCancelled()) << s;
    done.store(true);
  });
  while (ac.queued() == 0) std::this_thread::yield();
  token.Cancel();
  waiter.join();
  EXPECT_TRUE(done.load());
  ac.Release();
}

// --- Service over a generated bibliographic fixture ------------------------

class ServiceTest : public ::testing::Test {
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
    // A small slice for self-joins (quadratic in its size).
    ASSERT_TRUE(data::LoadIntoCollection(&db_, "mini",
                                         data::EmitDblp(world_, 0, 15, cfg))
                    .ok());
    seo_ = BuildSeoAt(3.0);
    types_ = core::MakeBibliographicTypeSystem();

    auto queries = data::MakeSelectionWorkload(world_, 0, 120, 5, 7);
    ASSERT_TRUE(queries.ok());
    queries_ = std::move(queries).value();
  }

  core::Seo BuildSeoAt(double epsilon) {
    auto coll = db_.GetCollection("dblp");
    EXPECT_TRUE(coll.ok());
    std::vector<const xml::XmlDocument*> docs;
    for (store::DocId id : (*coll)->AllDocs()) {
      docs.push_back(&(*coll)->document(id));
    }
    ontology::OntologyMakerOptions opts;
    opts.content_tags = data::DblpContentTags();
    auto onto = ontology::MakeOntologyForDocuments(
        docs, lexicon::BuiltinBibliographicLexicon(), opts);
    EXPECT_TRUE(onto.ok());
    core::SeoBuilder b;
    b.AddInstanceOntology(std::move(onto).value());
    b.SetMeasure(*sim::MakeMeasure("guarded-levenshtein"));
    b.SetEpsilon(epsilon);
    auto seo = b.Build();
    EXPECT_TRUE(seo.ok()) << seo.status();
    return std::move(seo).value();
  }

  static tax::PatternTree YearSelfJoinPattern() {
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
    return pt;
  }

  data::BibWorld world_;
  store::Database db_;
  core::Seo seo_;
  core::TypeSystem types_;
  std::vector<data::SelectionQuery> queries_;
};

// The retained golden test for the retired per-operator wrappers: the
// service path must still produce exactly the answers a bare executor run
// through the QueryOptions path produces, operator by operator.
TEST_F(ServiceTest, RunMatchesDirectExecutorGolden) {
  TossService svc(&db_, &seo_, &types_);
  core::QueryExecutor direct(&db_, &seo_, &types_);
  const core::QueryOptions opts;

  for (const auto& q : queries_) {
    QueryResponse resp =
        svc.Run(QueryRequest::Select("dblp", q.pattern, q.sl));
    auto want = direct.Select("dblp", q.pattern, q.sl, opts);
    ASSERT_TRUE(resp.ok()) << resp.status;
    ASSERT_TRUE(want.ok()) << want.status();
    ExpectSameTrees(*want, resp.trees, "select/" + q.name);
    EXPECT_EQ(resp.stats.result_trees, resp.trees.size());
  }

  std::vector<tax::ProjectItem> pl{{1, true}};
  QueryResponse proj =
      svc.Run(QueryRequest::Project("dblp", queries_[0].pattern, pl));
  auto want_proj = direct.Project("dblp", queries_[0].pattern, pl, opts);
  ASSERT_TRUE(proj.ok()) << proj.status;
  ASSERT_TRUE(want_proj.ok()) << want_proj.status();
  ExpectSameTrees(*want_proj, proj.trees, "project");

  tax::PatternTree by_year;
  int root = by_year.AddRoot();
  by_year.AddChild(root, tax::EdgeKind::kPc);
  by_year.SetCondition(tax::ParseCondition(
                           "$1.tag = \"inproceedings\" & $2.tag = \"year\"")
                           .value());
  QueryResponse grouped =
      svc.Run(QueryRequest::GroupBy("dblp", by_year, 2, {1}));
  auto want_grouped = direct.GroupBy("dblp", by_year, 2, {1}, opts);
  ASSERT_TRUE(grouped.ok()) << grouped.status;
  ASSERT_TRUE(want_grouped.ok()) << want_grouped.status();
  ExpectSameTrees(*want_grouped, grouped.trees, "groupby");

  tax::PatternTree join_pt = YearSelfJoinPattern();
  QueryResponse joined =
      svc.Run(QueryRequest::Join("mini", "mini", join_pt, {2, 4}));
  auto want_joined = direct.Join("mini", "mini", join_pt, {2, 4}, opts);
  ASSERT_TRUE(joined.ok()) << joined.status;
  ASSERT_TRUE(want_joined.ok()) << want_joined.status();
  EXPECT_GT(joined.trees.size(), 0u);
  ExpectSameTrees(*want_joined, joined.trees, "join");
}

TEST_F(ServiceTest, ConcurrentMixedStressMatchesSequential) {
  // Expected answers, computed sequentially on a private executor.
  core::QueryExecutor reference(&db_, &seo_, &types_);
  std::vector<tax::TreeCollection> want_select;
  for (const auto& q : queries_) {
    auto r = reference.Select("dblp", q.pattern, q.sl,
                              core::QueryOptions{});
    ASSERT_TRUE(r.ok()) << r.status();
    want_select.push_back(std::move(r).value());
  }
  tax::PatternTree join_pt = YearSelfJoinPattern();
  auto want_join =
      reference.Join("mini", "mini", join_pt, {2, 4}, core::QueryOptions{});
  ASSERT_TRUE(want_join.ok()) << want_join.status();

  TossService svc(&db_, &seo_, &types_);
  constexpr size_t kThreads = 4;
  constexpr size_t kIterations = 3;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t it = 0; it < kIterations; ++it) {
        for (size_t qi = 0; qi < queries_.size(); ++qi) {
          const auto& q = queries_[qi];
          QueryRequest req = QueryRequest::Select("dblp", q.pattern, q.sl);
          // Odd clients also exercise the traced and parallel paths.
          req.collect_trace = (t % 2) == 1;
          req.parallelism = (t % 2) == 1 ? 4 : 0;
          QueryResponse resp = svc.Run(req);
          const tax::TreeCollection& want = want_select[qi];
          if (!resp.ok() || resp.trees.size() != want.size()) {
            failures.fetch_add(1);
            continue;
          }
          for (size_t i = 0; i < want.size(); ++i) {
            if (!resp.trees[i].Equals(want[i])) failures.fetch_add(1);
          }
        }
        QueryResponse joined =
            svc.Run(QueryRequest::Join("mini", "mini", join_pt, {2, 4}));
        if (!joined.ok() || joined.trees.size() != want_join->size()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < want_join->size(); ++i) {
          if (!joined.trees[i].Equals((*want_join)[i])) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0u)
      << "concurrent answers diverged from sequential";
  EXPECT_EQ(svc.inflight(), 0u);
}

TEST_F(ServiceTest, SaturatedServiceShedsWithResourceExhausted) {
  ServiceOptions options;
  options.max_inflight = 1;
  options.max_queue = 0;
  TossService svc(&db_, &seo_, &types_, options);

  tax::PatternTree join_pt = YearSelfJoinPattern();
  std::atomic<bool> shed_seen{false};
  std::thread holder([&] {
    // Keep the only slot busy until a shed has been observed (bounded).
    // With a fast join, the selects below can win the slot race and shed
    // THIS thread instead -- that is equally a saturation observation.
    for (int i = 0; i < 200 && !shed_seen.load(); ++i) {
      QueryResponse r = svc.Run(QueryRequest::Join("dblp", "dblp", join_pt,
                                                   {2, 4}));
      if (r.status.IsResourceExhausted()) {
        shed_seen.store(true);
        break;
      }
      ASSERT_TRUE(r.ok()) << r.status;
    }
  });
  const auto& q = queries_[0];
  for (int i = 0; i < 20000 && !shed_seen.load(); ++i) {
    QueryResponse r = svc.Run(QueryRequest::Select("dblp", q.pattern, q.sl));
    if (r.status.IsResourceExhausted()) shed_seen.store(true);
  }
  holder.join();
  EXPECT_TRUE(shed_seen.load());
}

TEST_F(ServiceTest, ExpiredTokenFailsSelectBeforeWork) {
  // Executor level: a pre-expired token is deterministic -- phase (i) never
  // starts, and the error is DeadlineExceeded, not a partial answer.
  core::QueryExecutor exec(&db_, &seo_, &types_);
  CancelToken expired = CancelToken::AfterMillis(0);
  core::QueryOptions opts;
  opts.cancel = &expired;
  core::ExecStats stats;
  auto r = exec.Select("dblp", queries_[0].pattern, queries_[0].sl, opts,
                       &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
  EXPECT_EQ(stats.result_trees, 0u);
}

TEST_F(ServiceTest, DeadlineFiresMidQueryWithPartialStats) {
  TossService svc(&db_, &seo_, &types_);
  // The 120-doc self-join takes far longer than 1 ms on any machine this
  // test runs on; the deadline fires in an eval or store loop.
  QueryRequest req =
      QueryRequest::Join("dblp", "dblp", YearSelfJoinPattern(), {2, 4});
  req.deadline_ms = 1;
  QueryResponse resp = svc.Run(req);
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status.IsDeadlineExceeded()) << resp.status;
  EXPECT_EQ(resp.trees.size(), 0u);
}

TEST_F(ServiceTest, ExternalCancelTokenIsHonored) {
  TossService svc(&db_, &seo_, &types_);
  CancelToken token;
  token.Cancel();
  QueryRequest req = QueryRequest::Select("dblp", queries_[0].pattern,
                                          queries_[0].sl);
  req.cancel = &token;
  QueryResponse resp = svc.Run(req);
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status.IsCancelled()) << resp.status;
}

TEST_F(ServiceTest, PreparedCacheHitsOnRepeatAndInvalidatesOnSwap) {
  TossService svc(&db_, &seo_, &types_);
  const auto& q = queries_[0];

  QueryResponse first = svc.Run(QueryRequest::Select("dblp", q.pattern, q.sl));
  ASSERT_TRUE(first.ok()) << first.status;
  EXPECT_FALSE(first.prepared_cache_hit);

  QueryResponse second =
      svc.Run(QueryRequest::Select("dblp", q.pattern, q.sl));
  ASSERT_TRUE(second.ok()) << second.status;
  EXPECT_TRUE(second.prepared_cache_hit);
  ExpectSameTrees(first.trees, second.trees, "cached rewrite");
  EXPECT_EQ(first.stats.expanded_terms, second.stats.expanded_terms)
      << "memoized rewrites must report identical stats";
  EXPECT_EQ(first.stats.xpath_queries, second.stats.xpath_queries);
  EXPECT_GE(svc.PreparedCacheStats().hits, 1u);

  // A swapped SEO changes what phase (i) may expand to: the cache must be
  // dropped, and answers must match a fresh executor over the new SEO.
  core::Seo tighter = BuildSeoAt(2.0);
  ASSERT_TRUE(svc.SwapSeo(&tighter).ok());
  EXPECT_EQ(svc.PreparedCacheStats().entries, 0u);

  QueryResponse after = svc.Run(QueryRequest::Select("dblp", q.pattern, q.sl));
  ASSERT_TRUE(after.ok()) << after.status;
  EXPECT_FALSE(after.prepared_cache_hit);
  core::QueryExecutor fresh(&db_, &tighter, &types_);
  auto want = fresh.Select("dblp", q.pattern, q.sl, core::QueryOptions{});
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectSameTrees(*want, after.trees, "post-swap answers");
}

// A plan depends on the pattern and the SEO, not on the stored documents:
// a write keeps the cached plan, and the cached plan sees the write.
TEST(ServiceMutationTest, PreparedPlanSurvivesReplaceAndSeesIt) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "toss_service_prepared_replace").string();
  fs::remove_all(dir);
  auto db = store::Database::OpenDurable(dir, store::Env::Default());
  ASSERT_TRUE(db.ok()) << db.status();
  TossService svc(&*db, nullptr, nullptr);
  ASSERT_TRUE(svc.Run(QueryRequest::Insert(
                          "lib", "a", "<paper><author>Ann</author></paper>"))
                  .ok());
  ASSERT_TRUE(svc.Run(QueryRequest::Insert(
                          "lib", "b", "<paper><author>Bob</author></paper>"))
                  .ok());
  tax::PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(root, tax::EdgeKind::kPc);
  pt.SetCondition(tax::ParseCondition("$1.tag = \"paper\" & "
                                      "$2.tag = \"author\" & "
                                      "$2.content = \"Ann\"")
                      .value());

  QueryResponse first = svc.Run(QueryRequest::Select("lib", pt, {1}));
  ASSERT_TRUE(first.ok()) << first.status;
  EXPECT_FALSE(first.prepared_cache_hit);
  EXPECT_EQ(first.trees.size(), 1u);

  ASSERT_TRUE(svc.Run(QueryRequest::Replace(
                          "lib", "b",
                          "<paper><author>Ann</author><year>2004</year>"
                          "</paper>"))
                  .ok());
  EXPECT_EQ(svc.PreparedCacheStats().entries, 1u);
  QueryResponse after = svc.Run(QueryRequest::Select("lib", pt, {1}));
  ASSERT_TRUE(after.ok()) << after.status;
  EXPECT_TRUE(after.prepared_cache_hit);
  EXPECT_EQ(after.trees.size(), 2u) << "the replaced document matches now";
  EXPECT_EQ(after.stats.candidate_docs, 2u);
  fs::remove_all(dir);
}

TEST_F(ServiceTest, TracedRunReturnsSameTreesPlusTrace) {
  TossService svc(&db_, &seo_, &types_);
  const auto& q = queries_[1];
  QueryResponse plain = svc.Run(QueryRequest::Select("dblp", q.pattern, q.sl));
  QueryRequest traced_req = QueryRequest::Select("dblp", q.pattern, q.sl);
  traced_req.collect_trace = true;
  QueryResponse traced = svc.Run(traced_req);
  ASSERT_TRUE(plain.ok()) << plain.status;
  ASSERT_TRUE(traced.ok()) << traced.status;
  ASSERT_NE(traced.trace, nullptr);
  EXPECT_EQ(plain.trace, nullptr);
  ExpectSameTrees(plain.trees, traced.trees, "traced run");
  // The query's phases are closed children of the root, inside its span.
  // (The phases' share of the root's wall time is not asserted: one
  // preemption between spans of a ~50 us select can halve it.)
  const obs::TraceNode& root = traced.trace->root();
  ASSERT_GT(root.duration_nanos, 0u);
  for (const char* phase : {"rewrite", "store_scan", "eval"}) {
    auto it = std::find_if(root.children.begin(), root.children.end(),
                           [&](const auto& c) { return c->name == phase; });
    ASSERT_NE(it, root.children.end()) << phase;
    const obs::TraceNode& child = **it;
    EXPECT_GT(child.duration_nanos, 0u) << phase << " is still open";
    EXPECT_GE(child.start_nanos, root.start_nanos) << phase;
    EXPECT_LE(child.start_nanos + child.duration_nanos,
              root.start_nanos + root.duration_nanos)
        << phase;
  }
}

TEST_F(ServiceTest, SwapSeoToNullServesTaxBaseline) {
  TossService svc(&db_, &seo_, &types_);
  const auto& q = queries_[0];
  ASSERT_TRUE(svc.SwapSeo(nullptr).ok());
  QueryResponse resp = svc.Run(QueryRequest::Select("dblp", q.pattern, q.sl));
  ASSERT_TRUE(resp.ok()) << resp.status;
  core::QueryExecutor tax(&db_, nullptr, nullptr);
  auto want = tax.Select("dblp", q.pattern, q.sl, core::QueryOptions{});
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectSameTrees(*want, resp.trees, "tax baseline after swap");
}

}  // namespace
}  // namespace toss::service
