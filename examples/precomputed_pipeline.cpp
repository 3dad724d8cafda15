// The production deployment story (paper Section 3: "After SEO is
// precomputed ..."): an *offline* step builds the database and the
// similarity enhanced ontology and writes both to disk; an *online* step
// later opens them and answers queries without re-running the ontology
// maker, fusion, or SEA.
//
// Build & run:  ./build/examples/precomputed_pipeline

#include <cstdio>
#include <filesystem>

#include "common/timer.h"
#include "core/query_language.h"
#include "core/toss.h"
#include "data/bib_generator.h"

using namespace toss;
namespace fs = std::filesystem;

namespace {

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  fs::path root = fs::temp_directory_path() / "toss_precomputed_demo";
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string db_dir = (root / "db").string();
  const std::string seo_path = (root / "seo.txt").string();

  // ---------------------------------------------------------------------------
  // Offline: generate, build, persist.
  // ---------------------------------------------------------------------------
  {
    Timer timer;
    data::BibConfig cfg;
    cfg.seed = 123;
    cfg.num_papers = 200;
    cfg.num_people = 50;
    data::BibWorld world = data::GenerateWorld(cfg);
    store::Database db;
    Status s = data::LoadIntoCollection(&db, "dblp",
                                        data::EmitDblp(world, 0, 200, cfg));
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
    builder.SetMeasure(*sim::MakeMeasure("guarded-levenshtein"));
    builder.SetEpsilon(3.0);
    auto seo = builder.Build();
    if (!seo.ok()) return Fail(seo.status());

    s = db.Save(db_dir);
    if (!s.ok()) return Fail(s);
    s = core::SaveSeo(*seo, seo_path);
    if (!s.ok()) return Fail(s);
    std::printf("offline: built and persisted DB (200 papers) + SEO "
                "(%zu nodes) in %.1f ms\n",
                seo->TotalNodeCount(), timer.ElapsedMillis());
  }

  // ---------------------------------------------------------------------------
  // Online: open, query.
  // ---------------------------------------------------------------------------
  {
    Timer timer;
    auto db = store::Database::Open(db_dir);
    if (!db.ok()) return Fail(db.status());
    auto seo = core::LoadSeo(seo_path);
    if (!seo.ok()) return Fail(seo.status());
    std::printf("online: reopened DB + SEO in %.1f ms\n",
                timer.ElapsedMillis());

    core::TypeSystem types = core::MakeBibliographicTypeSystem();
    core::QueryExecutor exec(&*db, &*seo, &types);
    core::ExecStats stats;
    auto result = core::RunQuery(
        exec,
        "SELECT $1 FROM dblp MATCH $1/$2 WHERE "
        "$1.tag = \"inproceedings\" & $2.tag = \"booktitle\" & "
        "$2.content isa \"database conference\"",
        {}, &stats);
    if (!result.ok()) return Fail(result.status());
    std::printf("query: %zu database-conference papers in %.2f ms "
                "(no fusion or SEA at query time)\n",
                result->size(), stats.TotalMs());
  }

  fs::remove_all(root);
  return 0;
}
