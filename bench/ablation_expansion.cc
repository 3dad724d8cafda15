// Ablation: cost of phase (i) -- rewriting a pattern tree into a pushdown
// plan with SEO term expansion -- as the SEO grows. The Fig. 16 experiments
// attribute the TAX/TOSS gap to "accesses to the ontology"; this isolates
// that cost.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace {

using namespace toss;

struct Setup {
  store::Database db;
  core::TypeSystem types = core::MakeBibliographicTypeSystem();
  std::vector<core::Seo> seos;  // by padding level
  data::BibWorld world;

  Setup() {
    data::BibConfig cfg;
    cfg.seed = 3;
    cfg.num_papers = 400;
    cfg.num_people = 80;
    world = data::GenerateWorld(cfg);
    bench::CheckOk(
        data::LoadIntoCollection(&db, "dblp",
                                 data::EmitDblp(world, 0, 400, cfg)),
        "load");
    ontology::Ontology base =
        bench::CollectionOntology(db, "dblp", data::DblpContentTags());
    for (size_t pad : {size_t{0}, size_t{500}, size_t{2000}}) {
      ontology::Ontology inflated = base;
      data::InflateOntology(&inflated, pad, 42);
      seos.push_back(
          bench::BuildSeo({std::move(inflated)}, "levenshtein", 3.0));
    }
  }
};

Setup& GetSetup() {
  static Setup setup;
  return setup;
}

void BM_Rewrite(benchmark::State& state) {
  auto& setup = GetSetup();
  const core::Seo& seo = setup.seos[static_cast<size_t>(state.range(0))];
  core::QueryExecutor exec(&setup.db, &seo, &setup.types);
  tax::PatternTree pattern = data::MakeScalabilitySelectionPattern(
      setup.world.venues[0].short_name, setup.world.venues[0].category);
  size_t expanded = 0;
  for (auto _ : state) {
    auto r = exec.RewriteToPlan(pattern, &expanded);
    benchmark::DoNotOptimize(r.ok());
  }
  state.counters["seo_nodes"] =
      static_cast<double>(seo.TotalNodeCount());
}

BENCHMARK(BM_Rewrite)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
