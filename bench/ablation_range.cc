// Ablation: range-predicate pushdown. Year-range selections
// ($n.content >= lo & $n.content <= hi) either scan every document or,
// with the ordered numeric index, touch only documents inside the range.
// Sweeps range selectivity to show when the index matters.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"

using namespace toss;

namespace {

tax::PatternTree YearRangePattern(int lo, int hi) {
  tax::PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(root, tax::EdgeKind::kPc);
  pt.SetCondition(
      tax::ParseCondition(
          "$1.tag = \"inproceedings\" & $2.tag = \"year\" & "
          "$2.content >= \"" + std::to_string(lo) + "\" & "
          "$2.content <= \"" + std::to_string(hi) + "\"")
          .value());
  return pt;
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  const size_t papers = smoke ? 400 : 8000;
  data::BibConfig cfg;
  cfg.seed = 23;
  cfg.num_papers = papers;
  cfg.num_people = smoke ? 50 : 250;
  cfg.year_min = 1980;
  cfg.year_max = 2003;
  data::BibWorld world = data::GenerateWorld(cfg);
  store::Database db;
  bench::CheckOk(data::LoadIntoCollection(
                     &db, "dblp", data::EmitDblp(world, 0, papers, cfg)),
                 "load");
  core::QueryExecutor exec(&db, nullptr, nullptr);  // TAX suffices here

  struct Sweep {
    int lo, hi;
  };
  const Sweep kSweeps[] = {
      {1999, 1999}, {1998, 2000}, {1990, 2000}, {1980, 2003},
  };
  std::printf("Range-pushdown ablation (%zu papers; selection with a "
              "year range; ms, best of 3)\n",
              papers);
  std::printf("%14s %12s %12s %10s\n", "range", "pushdown", "no-index",
              "matches");
  for (const auto& sweep : kSweeps) {
    tax::PatternTree pattern = YearRangePattern(sweep.lo, sweep.hi);
    core::ExecStats stats;
    auto warm =
        exec.Select("dblp", pattern, {1}, core::QueryOptions{}, &stats);
    bench::CheckOk(warm.status(), "select");
    double with_index = 1e18;
    for (int i = 0; i < 3; ++i) {
      Timer t;
      bench::CheckOk(exec.Select("dblp", pattern, {1}, core::QueryOptions{}).status(),
                     "select");
      with_index = std::min(with_index, t.ElapsedMillis());
    }
    // Baseline: evaluate against all documents through the raw algebra
    // (what the executor would do without candidate pruning).
    auto coll = db.GetCollection("dblp");
    bench::CheckOk(coll.status(), "coll");
    double no_index = 1e18;
    for (int i = 0; i < 3; ++i) {
      Timer t;
      tax::TreeCollection trees;
      for (store::DocId id : (*coll)->AllDocs()) {
        trees.push_back(tax::DataTree::FromXml(
            (*coll)->document(id), (*coll)->document(id).root()));
      }
      tax::TaxSemantics sem;
      auto r = tax::Select(trees, pattern, {1}, sem);
      bench::CheckOk(r.status(), "select");
      no_index = std::min(no_index, t.ElapsedMillis());
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%d-%d", sweep.lo, sweep.hi);
    std::printf("%14s %12.2f %12.2f %10zu\n", label, with_index, no_index,
                warm->size());
  }
  std::printf(
      "\nExpected: pushdown wins big on selective ranges and converges to\n"
      "the scan cost as the range covers the whole collection.\n");
  return 0;
}
