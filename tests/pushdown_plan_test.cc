// Phase (ii) against the naive reference (reference_eval.h): Select over
// the pushdown plan must return byte-identical answers to tax::Select
// over every live document, for random patterns of every atom kind, under
// the TAX baseline and under TOSS, over a collection with removed and
// replaced documents. Plus the store-level costs of a plan.

#include <gtest/gtest.h>

#include <random>

#include "core/toss.h"
#include "reference_eval.h"

namespace toss::core {
namespace {

using tax::CondOp;
using tax::Condition;
using tax::EdgeKind;
using tax::PatternTree;

const QueryOptions kOpts{};

// Tags whose values are all SEO terms: leaf elements, trimmed text. Under
// TOSS, ~ / isa / part_of expand over the SEO vocabulary (phase (i)), so
// their atoms go on these tags only.
const std::vector<std::string> kAuthors = {
    "Jeffrey Ullman", "Jeffrey D. Ullman", "Serge Abiteboul",
    "Serge Abitebul", "Jennifer Widom",    "O'Neil \"Pat\" Smith",
    "Data*"};
const std::vector<std::string> kVenues = {
    "SIGMOD Conference",
    "ACM SIGMOD International Conference on Management of Data", "VLDB",
    "SIGIR", "sigmod conference"};

// Values for the other tags, including the shapes the value and term
// indexes do not key as they are.
std::vector<std::string> MessyValues() {
  return {"1999", "2000",  " 2000", "007",        "-5",  "3.5",
          "abc",  "Views", "",      "Data*",      "x*y", "Query Plans",
          "A 'quoted' \"word\"",    std::string(300, 'q')};
}

std::vector<std::string> Literals() {
  std::vector<std::string> out = {
      "Jeffrey Ullman", "jeffrey ullman", "JEFFREY ULLMAN", "Ullman",
      "SIGMOD Conference", "database conference", "conference",
      "O'Neil \"Pat\" Smith", "1999", "2000", "5", "abc", "M", "3.5", "",
      "Views of Data", "Data", "Database", "Query", "ery Pl", "x1y",
      std::string(300, 'q'), std::string(257, 'q')};
  for (const auto& v : MessyValues()) out.push_back(v);
  return out;
}

template <typename T>
const T& Pick(std::mt19937& rng, const std::vector<T>& v) {
  return v[std::uniform_int_distribution<size_t>(0, v.size() - 1)(rng)];
}

bool Coin(std::mt19937& rng, double p) {
  return std::uniform_real_distribution<double>(0, 1)(rng) < p;
}

xml::XmlDocument RandomPaper(std::mt19937& rng) {
  xml::XmlDocument doc;
  xml::NodeId root = doc.CreateRoot("paper");
  auto add = [&](xml::NodeId parent, const std::string& tag,
                 const std::string& text) {
    if (text.empty()) {
      doc.AppendElement(parent, tag);
    } else {
      doc.AppendTextElement(parent, tag, text);
    }
  };
  const int authors = 1 + static_cast<int>(rng() % 2);
  for (int i = 0; i < authors; ++i) add(root, "author", Pick(rng, kAuthors));
  if (Coin(rng, 0.8)) add(root, "venue", Pick(rng, kVenues));
  for (const char* tag : {"title", "year", "note"}) {
    if (!Coin(rng, 0.7)) continue;
    if (Coin(rng, 0.2)) {
      // Mixed content: own text "Views Data", full text "Views of Data".
      xml::NodeId el = doc.AppendElement(root, tag);
      doc.AppendText(el, "Views ");
      doc.AppendTextElement(el, "i", Pick(rng, MessyValues()));
      doc.AppendText(el, "Data");
    } else {
      add(root, tag, Pick(rng, MessyValues()));
    }
  }
  // A tag with '*' matches every tag literal it globs.
  if (Coin(rng, 0.1)) add(root, Coin(rng, 0.5) ? "ye*" : "*", "2000");
  if (Coin(rng, 0.1)) {
    xml::NodeId nested = doc.AppendElement(root, "paper");
    add(nested, "year", Pick(rng, MessyValues()));
  }
  return doc;
}

const std::vector<std::string> kAllTags = {"paper", "author", "venue",
                                           "title", "year",   "note"};

/// One random content atom on `label`, or none.
std::optional<Condition> RandomAtom(std::mt19937& rng, int label,
                                    const std::string& tag, bool toss) {
  const bool clean = tag == "author" || tag == "venue";
  std::string literal = Pick(rng, Literals());
  CondOp op = CondOp::kEq;
  switch (rng() % 8) {
    case 0:
      return std::nullopt;  // tag-only
    case 1:
      break;  // =
    case 2:
      // "*X*" wildcard.
      literal = "*" + std::string(Pick(rng, std::vector<std::string>{
                          "Ullman", "ery Pl", "Data", "q", "SIGMOD"})) +
                "*";
      break;
    case 3:
      op = CondOp::kSimilar;
      break;
    case 4:
      op = Coin(rng, 0.5) ? CondOp::kIsa : CondOp::kPartOf;
      break;
    default: {
      const CondOp kOrder[] = {CondOp::kLt, CondOp::kLeq, CondOp::kGt,
                               CondOp::kGeq};
      op = kOrder[rng() % 4];
      break;
    }
  }
  const bool ontology_op = op == CondOp::kSimilar || op == CondOp::kIsa ||
                           op == CondOp::kPartOf;
  if (toss && ontology_op && !clean) return std::nullopt;
  if (Coin(rng, 0.2) && op != CondOp::kIsa && op != CondOp::kPartOf) {
    // Reversed operand order: literal op $n.content.
    return Condition::Atom(tax::Value(literal), op, tax::ContentOf(label));
  }
  return Condition::Atom(tax::ContentOf(label), op, tax::Value(literal));
}

PatternTree RandomPattern(std::mt19937& rng, bool toss) {
  PatternTree pt;
  int root = pt.AddRoot();
  std::vector<Condition> atoms;
  atoms.push_back(Condition::Atom(tax::TagOf(1), CondOp::kEq,
                                  tax::Value(Coin(rng, 0.9)
                                                 ? "paper"
                                                 : Pick(rng, kAllTags))));
  const int children = 1 + static_cast<int>(rng() % 2);
  for (int c = 0; c < children; ++c) {
    const int label =
        pt.AddChild(root, Coin(rng, 0.7) ? EdgeKind::kPc : EdgeKind::kAd);
    const std::string tag = Pick(rng, kAllTags);
    atoms.push_back(
        Condition::Atom(tax::TagOf(label), CondOp::kEq, tax::Value(tag)));
    const int content_atoms = static_cast<int>(rng() % 3);
    for (int a = 0; a < content_atoms; ++a) {
      if (auto atom = RandomAtom(rng, label, tag, toss)) {
        atoms.push_back(std::move(*atom));
      }
    }
  }
  pt.SetCondition(Condition::And(std::move(atoms)));
  return pt;
}

class PushdownReferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto coll = db_.CreateCollection("papers");
    ASSERT_TRUE(coll.ok());
    coll_ = *coll;
    std::mt19937 rng(20040613);
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(
          coll_->Insert("p" + std::to_string(i), RandomPaper(rng)).ok());
    }
    for (int i = 0; i < 60; i += 7) {
      ASSERT_TRUE(coll_->Remove("p" + std::to_string(i)).ok());
    }
    for (int i = 3; i < 60; i += 7) {
      ASSERT_TRUE(
          coll_->Replace("p" + std::to_string(i), RandomPaper(rng)).ok());
    }
    // The SEO covers the final collection, as every driver builds it.
    ontology::OntologyMakerOptions opts;
    opts.content_tags = kAllTags;
    std::vector<const xml::XmlDocument*> docs;
    for (store::DocId id : coll_->AllDocs()) {
      docs.push_back(&coll_->document(id));
    }
    auto o = ontology::MakeOntologyForDocuments(
        docs, lexicon::BuiltinBibliographicLexicon(), opts);
    ASSERT_TRUE(o.ok()) << o.status();
    SeoBuilder builder;
    builder.AddInstanceOntology(std::move(o).value());
    builder.SetMeasure(*sim::MakeMeasure("levenshtein"));
    builder.SetEpsilon(2.0);
    auto seo = builder.Build();
    ASSERT_TRUE(seo.ok()) << seo.status();
    seo_ = std::move(seo).value();
    types_ = MakeBibliographicTypeSystem();
  }

  /// Select over the plan equals the reference; returns the answer size.
  size_t ExpectMatchesReference(const QueryExecutor& exec,
                                const PatternTree& pattern,
                                ExecStats* stats) {
    reference::Evaluator ref(&db_, exec.is_toss() ? &seo_ : nullptr,
                             exec.is_toss() ? &types_ : nullptr);
    auto got = exec.Select("papers", pattern, {1}, kOpts, stats);
    EXPECT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(reference::SameAnswer(got, ref.Select("papers", pattern, {1})))
        << pattern.condition().ToString();
    return got.ok() ? got->size() : 0;
  }

  void CheckRandomPatterns(const QueryExecutor& exec, uint32_t seed) {
    std::mt19937 rng(seed);
    size_t pruned = 0;
    size_t nonempty = 0;
    for (int i = 0; i < 400 && !HasFailure(); ++i) {
      ExecStats stats;
      if (ExpectMatchesReference(exec, RandomPattern(rng, exec.is_toss()),
                                 &stats) > 0) {
        ++nonempty;
      }
      if (stats.candidate_docs < coll_->AllDocs().size()) ++pruned;
    }
    // The patterns exercise both pruning and non-empty answers.
    EXPECT_GT(pruned, 100u);
    EXPECT_GT(nonempty, 50u);
  }

  store::Database db_;
  store::Collection* coll_ = nullptr;
  Seo seo_;
  TypeSystem types_;
};

TEST_F(PushdownReferenceTest, TaxBaselineMatchesNaiveSelect) {
  QueryExecutor exec(&db_, nullptr, nullptr);
  CheckRandomPatterns(exec, 1);
}

TEST_F(PushdownReferenceTest, TossMatchesNaiveSelect) {
  QueryExecutor exec(&db_, &seo_, &types_);
  CheckRandomPatterns(exec, 2);
}

TEST_F(PushdownReferenceTest, TossExpandsALiteralOutsideTheSeoLikeSimilar) {
  // "JEFFREY ULLMAN" is no SEO term, so ~ falls back to the measure, which
  // Similar applies to lowercased forms: the expansion must do the same.
  QueryExecutor exec(&db_, &seo_, &types_);
  PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(root, EdgeKind::kPc);
  pt.SetCondition(Condition::And(
      {Condition::Atom(tax::TagOf(1), CondOp::kEq, tax::Value("paper")),
       Condition::Atom(tax::TagOf(2), CondOp::kEq, tax::Value("author")),
       Condition::Atom(tax::ContentOf(2), CondOp::kSimilar,
                       tax::Value("JEFFREY ULLMAN"))}));
  ExecStats stats;
  EXPECT_GT(ExpectMatchesReference(exec, pt, &stats), 0u);
}

TEST_F(PushdownReferenceTest, LiteralWithBothQuotesPrunes) {
  // A literal holding both quote kinds prunes to its documents, not to
  // the whole tag posting.
  const std::string literal = "O'Neil \"Pat\" Smith";
  size_t holders = 0;
  for (store::DocId id : coll_->AllDocs()) {
    auto tree = coll_->DecodedTree(id);
    for (tax::NodeId n = 0; n < tree->size(); ++n) {
      if (tree->node(n).tag == "author" && tree->node(n).content == literal) {
        ++holders;
        break;
      }
    }
  }
  ASSERT_GT(holders, 0u);
  ASSERT_LT(holders, coll_->AllDocs().size() / 2);
  for (CondOp op : {CondOp::kEq, CondOp::kSimilar}) {
    PatternTree pt;
    int root = pt.AddRoot();
    pt.AddChild(root, EdgeKind::kPc);
    pt.SetCondition(Condition::And(
        {Condition::Atom(tax::TagOf(1), CondOp::kEq, tax::Value("paper")),
         Condition::Atom(tax::TagOf(2), CondOp::kEq, tax::Value("author")),
         Condition::Atom(tax::ContentOf(2), op, tax::Value(literal))}));
    for (const Seo* seo : {static_cast<const Seo*>(nullptr),
                           static_cast<const Seo*>(&seo_)}) {
      QueryExecutor exec(&db_, seo, seo != nullptr ? &types_ : nullptr);
      ExecStats stats;
      auto r = exec.Select("papers", pt, {1}, kOpts, &stats);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(stats.candidate_docs, holders);
      EXPECT_EQ(r->size(), holders);
    }
  }
}

}  // namespace
}  // namespace toss::core
