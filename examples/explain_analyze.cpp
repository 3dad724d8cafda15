// EXPLAIN ANALYZE: run a Fig. 15-style selection query through the query
// service and print where its time went -- the per-phase trace tree
// (rewrite / store_scan / eval) with expansion fan-out, candidate counts,
// index-pruning ratio, and decoded-tree cache annotations -- followed by
// the process-wide metrics registry dump.
//
// Build & run:  ./build/examples/explain_analyze
//
// Pass --json to get the trace tree and metrics snapshot as JSON instead of
// the human-readable rendering.

#include <cstdio>
#include <cstring>

#include "core/toss.h"
#include "data/bib_generator.h"
#include "data/workload.h"
#include "obs/metrics.h"
#include "service/toss_service.h"

using namespace toss;

namespace {

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;

  // A generated DBLP collection, its ontology, and an SEO at epsilon = 3.
  data::BibConfig cfg;
  cfg.seed = 15;
  cfg.num_papers = 400;
  cfg.num_people = 60;
  data::BibWorld world = data::GenerateWorld(cfg);

  store::Database db;
  Status s = data::LoadIntoCollection(&db, "dblp",
                                      data::EmitDblp(world, 0, 400, cfg));
  if (!s.ok()) return Fail(s);

  auto coll = db.GetCollection("dblp");
  if (!coll.ok()) return Fail(coll.status());
  std::vector<const xml::XmlDocument*> docs;
  for (store::DocId id : (*coll)->AllDocs()) {
    docs.push_back(&(*coll)->document(id));
  }
  ontology::OntologyMakerOptions opts;
  opts.content_tags = data::DblpContentTags();
  auto onto = ontology::MakeOntologyForDocuments(
      docs, lexicon::BuiltinBibliographicLexicon(), opts);
  if (!onto.ok()) return Fail(onto.status());

  core::SeoBuilder builder;
  builder.AddInstanceOntology(std::move(onto).value());
  builder.SetMeasure(*sim::MakeMeasure("levenshtein"));
  builder.SetEpsilon(3.0);
  auto seo = builder.Build();
  if (!seo.ok()) return Fail(seo.status());

  // One of Fig. 16(a)'s conjunctive selection queries: papers at a venue
  // similar to the first generated venue's short name, in its category.
  const auto& venue = world.venues.front();
  tax::PatternTree pattern = data::MakeScalabilitySelectionPattern(
      venue.short_name, venue.category);

  core::TypeSystem types = core::MakeBibliographicTypeSystem();
  service::TossService svc(&db, &*seo, &types);

  service::QueryRequest req = service::QueryRequest::Select("dblp", pattern,
                                                            {1});
  req.collect_trace = true;
  service::QueryResponse resp = svc.Run(req);
  if (!resp.ok()) return Fail(resp.status);

  if (json) {
    std::printf("%s\n", resp.trace->Json().Dump().c_str());
    std::printf("%s\n", obs::Metrics().SnapshotJson().Dump().c_str());
    return 0;
  }

  std::printf("EXPLAIN ANALYZE select over %zu papers (venue ~ \"%s\", "
              "category isa \"%s\"):\n\n",
              static_cast<size_t>(400), venue.short_name.c_str(),
              venue.category.c_str());
  std::printf("%s", resp.trace->Pretty().c_str());
  std::printf("phases: rewrite %.3f ms, store %.3f ms, eval %.3f ms "
              "(total %.3f ms)\n"
              "plan steps %zu, expanded terms %zu, candidate docs %zu, "
              "result trees %zu\n"
              "trace coverage: %.1f%%\n",
              resp.stats.rewrite_ms, resp.stats.store_ms, resp.stats.eval_ms,
              resp.stats.TotalMs(), resp.stats.xpath_queries,
              resp.stats.expanded_terms, resp.stats.candidate_docs,
              resp.stats.result_trees,
              resp.trace->CoverageFraction() * 100.0);
  std::printf("\nanswers: %zu trees (queue wait %.3f ms, prepared-cache %s)\n",
              resp.trees.size(), resp.queue_wait_ms,
              resp.prepared_cache_hit ? "hit" : "miss");

  std::printf("\n--- metrics registry ---\n");
  obs::Metrics().Dump(stdout);
  return 0;
}
