// Micro-benchmark: pattern-tree embedding enumeration over data trees of
// growing size, for pc-only, ad-heavy, and condition-filtered patterns.
// Each pattern runs both over a tree with a tag index (the production
// path) and over the same tree built without one (the naive full-scan
// enumeration) to quantify the pruning win. Timing goes through bench::MeasureAdaptiveMs,
// so sub-50ms points repeat until their median stabilises; medians land in
// the machine-readable bench report.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "tax/condition_parser.h"
#include "tax/embedding.h"
#include "tax/tax_semantics.h"

namespace {

using toss::Random;
using toss::tax::DataTree;
using toss::tax::EdgeKind;
using toss::tax::PatternTree;

/// A DBLP-shaped tree with `papers` inproceedings under one root, with a
/// tag index when `indexed`.
DataTree MakeTree(size_t papers, bool indexed) {
  Random rng(11);
  DataTree t;
  auto root = t.CreateRoot("dblp");
  for (size_t i = 0; i < papers; ++i) {
    auto paper = t.AppendChild(root, "inproceedings");
    size_t n_authors = 1 + rng.Uniform(3);
    for (size_t a = 0; a < n_authors; ++a) {
      t.AppendChild(paper, "author", rng.AlphaString(12));
    }
    t.AppendChild(paper, "title", rng.AlphaString(30));
    t.AppendChild(paper, "year",
                  std::to_string(1995 + rng.Uniform(9)));
  }
  if (indexed) t.BuildTagIndex();
  return t;
}

PatternTree PcPattern() {
  PatternTree pt;
  int root = pt.AddRoot();
  int paper = pt.AddChild(root, EdgeKind::kPc);
  pt.AddChild(paper, EdgeKind::kPc);
  pt.SetCondition(toss::tax::ParseCondition(
                      "$1.tag = \"dblp\" & $2.tag = \"inproceedings\" & "
                      "$3.tag = \"author\"")
                      .value());
  return pt;
}

PatternTree AdPattern() {
  PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(root, EdgeKind::kAd);
  pt.SetCondition(
      toss::tax::ParseCondition("$1.tag = \"dblp\" & $2.tag = \"author\"")
          .value());
  return pt;
}

PatternTree FilteredPattern() {
  PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(root, EdgeKind::kPc);
  pt.AddChild(root, EdgeKind::kPc);
  pt.SetCondition(toss::tax::ParseCondition(
                      "$1.tag = \"inproceedings\" & $2.tag = \"author\" & "
                      "$3.tag = \"year\" & $3.content = \"1999\"")
                      .value());
  return pt;
}

struct Variant {
  const char* name;  ///< bench key component, kept from the old GB names
  PatternTree (*make)();
  bool indexed;  ///< the tree carries a tag index
};

}  // namespace

int main() {
  const bool smoke = toss::bench::SmokeMode();
  const std::vector<size_t> kSizes =
      smoke ? std::vector<size_t>{10} : std::vector<size_t>{10, 100, 1000};
  const Variant kVariants[] = {
      {"BM_EmbeddingPc", PcPattern, true},
      {"BM_EmbeddingPcNaive", PcPattern, false},
      {"BM_EmbeddingAd", AdPattern, true},
      {"BM_EmbeddingAdNaive", AdPattern, false},
      {"BM_EmbeddingFiltered", FilteredPattern, true},
      {"BM_EmbeddingFilteredNaive", FilteredPattern, false},
  };

  std::printf("Embedding enumeration micro-bench (median ms)\n");
  std::printf("%-28s", "variant");
  for (size_t size : kSizes) std::printf(" %10zu", size);
  std::printf("\n");

  toss::tax::TaxSemantics sem;
  for (const Variant& v : kVariants) {
    PatternTree pattern = v.make();
    std::printf("%-28s", v.name);
    for (size_t size : kSizes) {
      DataTree tree = MakeTree(size, v.indexed);
      double ms = toss::bench::MeasureAdaptiveMs(
          std::string("micro_embedding/") + v.name + "/" +
              std::to_string(size),
          [&] {
            auto r = toss::tax::FindEmbeddings(pattern, tree, sem);
            toss::bench::CheckOk(r.status(), "FindEmbeddings");
          });
      std::printf(" %10.3f", ms);
    }
    std::printf("\n");
  }
  return 0;
}
