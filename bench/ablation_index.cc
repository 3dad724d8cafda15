// Ablation: the store's index-backed document pruning on vs off, for four
// pushdown plans (value equality, term containment, containment of a
// literal that encloses no word, tag only). "Indexed"
// runs Collection::PlanDocs; "Scan" checks every live document with the
// plan's own element check (store::StepMatches). Validates the postings
// design called out in DESIGN.md §6.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/bench_util.h"

namespace {

using namespace toss;

struct Fixture {
  store::Database db;
  const store::Collection* coll = nullptr;

  Fixture() {
    data::BibConfig cfg;
    cfg.seed = 5;
    cfg.num_papers = 2000;
    cfg.num_people = 150;
    data::BibWorld world = data::GenerateWorld(cfg);
    bench::CheckOk(
        data::LoadIntoCollection(&db, "dblp",
                                 data::EmitDblp(world, 0, 2000, cfg)),
        "load");
    coll = *db.GetCollection("dblp");
  }
};

Fixture& GetFixture() {
  static Fixture fixture;
  return fixture;
}

store::PlanStep Step(std::string tag) {
  store::PlanStep step;
  step.tag = std::move(tag);
  return step;
}

// //inproceedings[booktitle='VLDB'][year='1999'] as typed steps.
store::PushdownPlan ValueEquality() {
  store::PlanStep booktitle = Step("booktitle");
  booktitle.any_of = {{"VLDB"}};
  store::PlanStep year = Step("year");
  year.any_of = {{"1999"}};
  return {Step("inproceedings"), booktitle, year};
}

// Only the words a literal encloses prune ("Semistructured" here): a
// containing title may hold its first and last word inside longer words.
store::PushdownPlan TermContains() {
  store::PlanStep title = Step("title");
  title.contains = {"for Semistructured Data"};
  return {title};
}

// A literal that encloses no word: no term posting prunes, so the step is
// its tag posting and every admitted document is checked element by element.
store::PushdownPlan ContainsNoWord() {
  store::PlanStep title = Step("title");
  title.contains = {"Semistructured"};
  return {title};
}

store::PushdownPlan TagOnly() { return {Step("booktitle")}; }

/// The plan's answer without indexes: every live document whose elements
/// satisfy every step.
std::vector<store::DocId> ScanDocs(const store::Collection& coll,
                                   const store::PushdownPlan& plan) {
  std::vector<store::DocId> docs;
  for (store::DocId id : coll.AllDocs()) {
    if (std::all_of(plan.begin(), plan.end(),
                    [&](const store::PlanStep& step) {
                      return store::StepMatches(coll.document(id), step);
                    })) {
      docs.push_back(id);
    }
  }
  return docs;
}

void RunPlan(benchmark::State& state, const store::PushdownPlan& plan,
             bool use_indexes) {
  const store::Collection& coll = *GetFixture().coll;
  if (coll.PlanDocs(plan) != ScanDocs(coll, plan)) {
    bench::CheckOk(Status::Internal("indexed and scanned answers differ"),
                   "plan");
  }
  for (auto _ : state) {
    auto docs = use_indexes ? coll.PlanDocs(plan) : ScanDocs(coll, plan);
    benchmark::DoNotOptimize(docs.size());
  }
}

void BM_ValueEquality_Indexed(benchmark::State& state) {
  RunPlan(state, ValueEquality(), true);
}
void BM_ValueEquality_Scan(benchmark::State& state) {
  RunPlan(state, ValueEquality(), false);
}
void BM_TermContains_Indexed(benchmark::State& state) {
  RunPlan(state, TermContains(), true);
}
void BM_TermContains_Scan(benchmark::State& state) {
  RunPlan(state, TermContains(), false);
}
void BM_ContainsNoWord_Indexed(benchmark::State& state) {
  RunPlan(state, ContainsNoWord(), true);
}
void BM_ContainsNoWord_Scan(benchmark::State& state) {
  RunPlan(state, ContainsNoWord(), false);
}
void BM_TagOnly_Indexed(benchmark::State& state) {
  RunPlan(state, TagOnly(), true);
}
void BM_TagOnly_Scan(benchmark::State& state) {
  RunPlan(state, TagOnly(), false);
}

BENCHMARK(BM_ValueEquality_Indexed);
BENCHMARK(BM_ValueEquality_Scan);
BENCHMARK(BM_TermContains_Indexed);
BENCHMARK(BM_TermContains_Scan);
BENCHMARK(BM_ContainsNoWord_Indexed);
BENCHMARK(BM_ContainsNoWord_Scan);
BENCHMARK(BM_TagOnly_Indexed);
BENCHMARK(BM_TagOnly_Scan);

}  // namespace

BENCHMARK_MAIN();
