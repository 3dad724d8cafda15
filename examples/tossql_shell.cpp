// tossql: a small interactive shell for TOSS-QL queries over a generated
// bibliographic database.
//
// Usage:
//   ./build/examples/tossql_shell            # run the canned demo queries
//   ./build/examples/tossql_shell -i         # read queries from stdin,
//                                            # one per line; '\q' quits
//
// The shell loads two collections (dblp, sigmod) of synthetic data, builds
// the SEO (guarded Levenshtein, eps=3), and executes each statement under
// both TAX and TOSS so the recall difference is visible side by side.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "core/query_language.h"
#include "core/toss.h"
#include "data/bib_generator.h"
#include "xml/xml_writer.h"

using namespace toss;

namespace {

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

void Execute(const core::QueryExecutor& exec, const char* label,
             const std::string& text) {
  core::ExecStats stats;
  auto result = core::RunQuery(exec, text, {}, &stats);
  if (!result.ok()) {
    std::printf("%s: %s\n", label, result.status().ToString().c_str());
    return;
  }
  std::printf("%s: %zu tree(s) in %.2f ms (rewrite %.2f, store %.2f, "
              "eval %.2f)\n",
              label, result->size(), stats.TotalMs(), stats.rewrite_ms,
              stats.store_ms, stats.eval_ms);
  size_t shown = 0;
  for (const auto& tree : *result) {
    if (shown++ == 3) {
      std::printf("  ... (%zu more)\n", result->size() - 3);
      break;
    }
    xml::WriteOptions opts;
    opts.pretty = true;
    std::string xml = xml::WriteSubtree(tree.ToXml(), 0, opts);
    // Indent for readability.
    std::printf("  %s", xml.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool interactive = argc > 1 && std::strcmp(argv[1], "-i") == 0;

  // --- Data -----------------------------------------------------------------
  data::BibConfig cfg;
  cfg.seed = 99;
  cfg.num_papers = 60;
  cfg.num_people = 25;
  data::BibWorld world = data::GenerateWorld(cfg);
  store::Database db;
  Status s = data::LoadIntoCollection(&db, "dblp",
                                      data::EmitDblp(world, 0, 60, cfg));
  if (!s.ok()) return Fail(s);
  s = data::LoadIntoCollection(&db, "sigmod",
                               data::EmitSigmod(world, 0, 60, cfg));
  if (!s.ok()) return Fail(s);

  // --- SEO ------------------------------------------------------------------
  auto collection_onto = [&](const char* name,
                             std::vector<std::string> tags)
      -> Result<ontology::Ontology> {
    auto coll = db.GetCollection(name);
    if (!coll.ok()) return coll.status();
    std::vector<const xml::XmlDocument*> docs;
    for (store::DocId id : (*coll)->AllDocs()) {
      docs.push_back(&(*coll)->document(id));
    }
    ontology::OntologyMakerOptions opts;
    opts.content_tags = std::move(tags);
    return ontology::MakeOntologyForDocuments(
        docs, lexicon::BuiltinBibliographicLexicon(), opts);
  };
  auto donto = collection_onto("dblp", data::DblpContentTags());
  if (!donto.ok()) return Fail(donto.status());
  auto sonto = collection_onto("sigmod", data::SigmodContentTags());
  if (!sonto.ok()) return Fail(sonto.status());

  core::SeoBuilder builder;
  builder.AddInstanceOntology(std::move(donto).value());
  builder.AddInstanceOntology(std::move(sonto).value());
  builder.AddConstraints(ontology::kPartOf,
                         ontology::Eq("booktitle", 0, "conference", 1));
  builder.SetMeasure(*sim::MakeMeasure("guarded-levenshtein"));
  builder.SetEpsilon(3.0);
  auto seo = builder.Build();
  if (!seo.ok()) return Fail(seo.status());

  core::TypeSystem types = core::MakeBibliographicTypeSystem();
  core::QueryExecutor tax_exec(&db, nullptr, nullptr);
  core::QueryExecutor toss_exec(&db, &*seo, &types);

  auto run_both = [&](const std::string& text) {
    std::printf("> %s\n", text.c_str());
    // "explain <query>" prints the TOSS plan instead of executing.
    if (text.rfind("explain ", 0) == 0) {
      auto q = core::ParseQuery(text.substr(8));
      if (!q.ok()) {
        std::printf("%s\n\n", q.status().ToString().c_str());
        return;
      }
      auto plan = toss_exec.Explain(q->collection, q->pattern);
      std::printf("%s\n",
                  plan.ok() ? plan->c_str()
                            : plan.status().ToString().c_str());
      return;
    }
    Execute(tax_exec, "TAX ", text);
    Execute(toss_exec, "TOSS", text);
    std::printf("\n");
  };

  if (interactive) {
    std::printf("tossql> enter TOSS-QL statements, '\\q' to quit.\n");
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line == "\\q") break;
      if (line.empty()) continue;
      run_both(line);
    }
    return 0;
  }

  // --- Canned demo ------------------------------------------------------------
  const std::string author =
      world.PersonById(world.papers[0].authors[0]).CanonicalName();
  run_both(
      "SELECT $1 FROM dblp MATCH $1/$2 WHERE "
      "$1.tag = \"inproceedings\" & $2.tag = \"author\" & "
      "$2.content ~ \"" + author + "\"");
  run_both(
      "PROJECT $2 FROM dblp MATCH $1/$2, $1/$3 WHERE "
      "$1.tag = \"inproceedings\" & $2.tag = \"title\" & "
      "$3.tag = \"booktitle\" & $3.content isa \"database conference\"");
  run_both(
      "JOIN dblp, sigmod MATCH $1/$2, $2/$3, $1//$4, $4/$5 "
      "WHERE $1.tag = \"tax_prod_root\" & $2.tag = \"inproceedings\" & "
      "$3.tag = \"title\" & $4.tag = \"article\" & $5.tag = \"title\" & "
      "$3.content ~ $5.content SELECT $3, $5");
  run_both(
      "SELECT $1 FROM dblp MATCH $1/$2 WHERE "
      "$1.tag = \"inproceedings\" & $2.tag = \"booktitle\" GROUP BY $2");
  run_both(
      "explain SELECT $1 FROM dblp MATCH $1/$2 WHERE "
      "$1.tag = \"inproceedings\" & $2.tag = \"author\" & "
      "$2.content ~ \"" + author + "\"");
  // Range predicates push down to the store's ordered numeric index, and
  // parenthesized queries chain with UNION / INTERSECT / EXCEPT.
  run_both(
      "(SELECT $1 FROM dblp MATCH $1/$2 WHERE "
      "$1.tag = \"inproceedings\" & $2.tag = \"year\" & "
      "$2.content >= \"1999\" & $2.content <= \"2000\") INTERSECT "
      "(SELECT $1 FROM dblp MATCH $1/$2 WHERE "
      "$1.tag = \"inproceedings\" & $2.tag = \"booktitle\" & "
      "$2.content isa \"database conference\")");
  return 0;
}
