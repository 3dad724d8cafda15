#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "reference_eval.h"
#include "tax/condition_parser.h"
#include "tax/embedding.h"
#include "tax/tax_semantics.h"
#include "xml/xml_parser.h"

namespace toss::tax {
namespace {

DataTree Dblp() {
  auto doc = xml::Parse(R"(
    <dblp>
      <inproceedings>
        <author>Paolo Ciancarini</author>
        <author>Robert Tolksdorf</author>
        <title>Coordinating Multiagent Applications</title>
        <year>1999</year>
      </inproceedings>
      <inproceedings>
        <author>Ernesto Damiani</author>
        <title>Securing XML Documents</title>
        <year>2000</year>
      </inproceedings>
    </dblp>)");
  EXPECT_TRUE(doc.ok());
  return DataTree::FromXml(*doc, doc->root());
}

PatternTree MakePattern(const std::string& cond,
                        std::vector<std::pair<int, EdgeKind>> children) {
  PatternTree pt;
  int root = pt.AddRoot();
  for (auto [parent, kind] : children) {
    pt.AddChild(parent == 0 ? root : parent, kind);
  }
  auto parsed = ParseCondition(cond);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  pt.SetCondition(std::move(parsed).value());
  return pt;
}

TEST(PatternTreeTest, LabelsAssignedInOrder) {
  PatternTree pt;
  EXPECT_TRUE(pt.empty());
  int r = pt.AddRoot();
  EXPECT_EQ(r, 1);
  EXPECT_EQ(pt.AddRoot(), 1);  // idempotent
  int c1 = pt.AddChild(r, EdgeKind::kPc);
  int c2 = pt.AddChild(r, EdgeKind::kAd);
  int g = pt.AddChild(c1, EdgeKind::kPc);
  EXPECT_EQ(c1, 2);
  EXPECT_EQ(c2, 3);
  EXPECT_EQ(g, 4);
  EXPECT_EQ(pt.AddChild(99, EdgeKind::kPc), -1);
  EXPECT_EQ(pt.node_count(), 4u);
  std::vector<int> labels{1, 2, 3, 4};
  EXPECT_EQ(pt.Labels(), labels);
}

TEST(PatternTreeTest, ValidateChecksConditionLabels) {
  PatternTree pt;
  pt.AddRoot();
  pt.SetCondition(ParseCondition("$1.tag = \"x\"").value());
  EXPECT_TRUE(pt.Validate().ok());
  pt.SetCondition(ParseCondition("$7.tag = \"x\"").value());
  EXPECT_TRUE(pt.Validate().IsInvalidArgument());
  PatternTree empty;
  EXPECT_TRUE(empty.Validate().IsInvalidArgument());
}

TEST(EmbeddingTest, ParentChildEdges) {
  DataTree tree = Dblp();
  TaxSemantics sem;
  // $1 inproceedings with pc child $2 author.
  PatternTree pt = MakePattern(
      "$1.tag = \"inproceedings\" & $2.tag = \"author\"",
      {{0, EdgeKind::kPc}});
  auto r = FindEmbeddings(pt, tree, sem);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 3u);  // three author nodes overall
}

TEST(EmbeddingTest, AncestorDescendantEdges) {
  DataTree tree = Dblp();
  TaxSemantics sem;
  // $1 dblp with ad descendant $2 author: pc would fail, ad succeeds.
  PatternTree pc = MakePattern("$1.tag = \"dblp\" & $2.tag = \"author\"",
                               {{0, EdgeKind::kPc}});
  PatternTree ad = MakePattern("$1.tag = \"dblp\" & $2.tag = \"author\"",
                               {{0, EdgeKind::kAd}});
  auto rpc = FindEmbeddings(pc, tree, sem);
  auto rad = FindEmbeddings(ad, tree, sem);
  ASSERT_TRUE(rpc.ok());
  ASSERT_TRUE(rad.ok());
  EXPECT_TRUE(rpc->empty());
  EXPECT_EQ(rad->size(), 3u);
}

TEST(EmbeddingTest, ConditionFiltersEmbeddings) {
  DataTree tree = Dblp();
  TaxSemantics sem;
  PatternTree pt = MakePattern(
      "$1.tag = \"inproceedings\" & $2.tag = \"year\" & "
      "$2.content = \"1999\"",
      {{0, EdgeKind::kPc}});
  auto r = FindEmbeddings(pt, tree, sem);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
}

TEST(EmbeddingTest, MultiNodePattern) {
  DataTree tree = Dblp();
  TaxSemantics sem;
  // Both an author and a year under the same inproceedings.
  PatternTree pt = MakePattern(
      "$1.tag = \"inproceedings\" & $2.tag = \"author\" & "
      "$3.tag = \"year\" & $3.content = \"1999\"",
      {{0, EdgeKind::kPc}, {0, EdgeKind::kPc}});
  auto r = FindEmbeddings(pt, tree, sem);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);  // two authors on the 1999 paper
}

TEST(EmbeddingTest, CrossNodeConditionEvaluatedAtEnd) {
  DataTree tree = Dblp();
  TaxSemantics sem;
  // Two distinct author children with different contents.
  PatternTree pt = MakePattern(
      "$1.tag = \"inproceedings\" & $2.tag = \"author\" & "
      "$3.tag = \"author\" & $2.content < $3.content",
      {{0, EdgeKind::kPc}, {0, EdgeKind::kPc}});
  auto r = FindEmbeddings(pt, tree, sem);
  ASSERT_TRUE(r.ok());
  // Only (Paolo, Robert) ordered pair qualifies.
  ASSERT_EQ(r->size(), 1u);
}

TEST(EmbeddingTest, EmptyInputs) {
  TaxSemantics sem;
  PatternTree pt = MakePattern("true", {});
  DataTree empty;
  auto r = FindEmbeddings(pt, empty, sem);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(WitnessTreeTest, InducedStructureUsesClosestAncestors) {
  DataTree tree = Dblp();
  TaxSemantics sem;
  // Map $1 -> dblp root (ad) $2 -> author: witness keeps dblp above author
  // even though intermediate inproceedings is not matched.
  PatternTree pt = MakePattern("$1.tag = \"dblp\" & $2.tag = \"author\"",
                               {{0, EdgeKind::kAd}});
  auto r = FindEmbeddings(pt, tree, sem);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty());
  DataTree w = BuildWitnessTree(pt, tree, (*r)[0], {});
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.node(w.root()).tag, "dblp");
  EXPECT_EQ(w.node(1).tag, "author");
  EXPECT_EQ(w.node(1).parent, w.root());  // closest matched ancestor
}

TEST(WitnessTreeTest, SlExpansionIncludesDescendants) {
  DataTree tree = Dblp();
  TaxSemantics sem;
  PatternTree pt = MakePattern(
      "$1.tag = \"inproceedings\" & $2.tag = \"year\" & "
      "$2.content = \"2000\"",
      {{0, EdgeKind::kPc}});
  auto r = FindEmbeddings(pt, tree, sem);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  // Bare witness: just the two matched nodes.
  DataTree bare = BuildWitnessTree(pt, tree, (*r)[0], {});
  EXPECT_EQ(bare.size(), 2u);
  // SL = {1}: the whole paper subtree comes along (author, title, year).
  DataTree full = BuildWitnessTree(pt, tree, (*r)[0], {1});
  EXPECT_EQ(full.size(), 4u);
  EXPECT_EQ(full.node(full.root()).tag, "inproceedings");
}

TEST(WitnessTreeTest, PreservesDocumentOrder) {
  DataTree tree = Dblp();
  TaxSemantics sem;
  PatternTree pt = MakePattern(
      "$1.tag = \"inproceedings\" & $2.tag = \"author\" & "
      "$3.tag = \"title\"",
      {{0, EdgeKind::kPc}, {0, EdgeKind::kPc}});
  auto r = FindEmbeddings(pt, tree, sem);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty());
  DataTree w = BuildWitnessTree(pt, tree, (*r)[0], {});
  // Children of the witness root appear in source order: author then
  // title.
  const auto& kids = w.node(w.root()).children;
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(w.node(kids[0]).tag, "author");
  EXPECT_EQ(w.node(kids[1]).tag, "title");
}

/// Appends every total mapping of pattern nodes `index`.. (earlier nodes
/// fixed in `mapping`) whose whole condition holds, in the naive order:
/// the root over all nodes by id, pc children in child order, ad
/// descendants in preorder. Nothing is pushed down: no tag filter, no
/// prefilter, the full condition at every leaf.
Status BruteForce(const PatternTree& pattern, const DataTree& tree,
                  const ConditionSemantics& sem, size_t index,
                  LabelMap* mapping, std::vector<LabelMap>* out) {
  if (index == pattern.node_count()) {
    EmbeddingView view{&tree, mapping};
    TOSS_ASSIGN_OR_RETURN(bool ok,
                          EvalCondition(pattern.condition(), view, sem));
    if (ok) out->push_back(*mapping);
    return Status::OK();
  }
  const PatternNode& p = pattern.node(index);
  std::vector<NodeId> candidates;
  if (p.parent < 0) {
    for (NodeId v = 0; v < tree.size(); ++v) candidates.push_back(v);
  } else {
    NodeId image = mapping->Get(pattern.node(p.parent).label);
    candidates = p.edge_from_parent == EdgeKind::kPc
                     ? tree.node(image).children
                     : tree.Descendants(image);
  }
  for (NodeId v : candidates) {
    mapping->Set(p.label, v);
    TOSS_RETURN_NOT_OK(BruteForce(pattern, tree, sem, index + 1, mapping, out));
    mapping->Erase(p.label);
  }
  return Status::OK();
}

TEST(EmbeddingPlanTest, OnePlanReusedAcrossTreesMatchesNaiveEnumeration) {
  Random rng(2323);
  const std::vector<std::string> tags = {"a", "b", "c", "item", "a*", "*"};
  // Trees first: a plan lowers its tags to the ids the trees interned.
  TreeCollection trees;
  for (int i = 0; i < 200; ++i) {
    DataTree t;
    t.CreateRoot(rng.Choice(tags), rng.AlphaString(1 + rng.Uniform(2)));
    for (size_t n = rng.Uniform(12); n > 0; --n) {
      NodeId parent = static_cast<NodeId>(rng.Uniform(t.size()));
      t.AppendChild(parent, rng.Choice(tags),
                    rng.AlphaString(1 + rng.Uniform(2)));
    }
    if (i % 10 == 0) {
      t.node(t.size() - 1).tag_type = "year";  // not TagFilterable
    }
    if (i % 4 == 1) {
      xml::XmlDocument doc = t.ToXml();  // preorder ids, indexed
      t = DataTree::FromXml(doc, doc.root());
    } else if (i % 4 != 3) {
      t.BuildTagIndex();  // i % 4 == 3: no tag index, hence no symbol ids
    }
    trees.push_back(std::move(t));
  }
  std::vector<std::pair<std::string, std::vector<std::pair<int, EdgeKind>>>>
      patterns = {
          {"$1.tag = \"a\"", {}},
          {"$1.tag = \"item\" & $2.tag = \"b\"", {{0, EdgeKind::kPc}}},
          {"($1.tag = \"a\" | $1.tag = \"c\") & $2.tag = \"b\"",
           {{0, EdgeKind::kAd}}},
          {"$1.tag = \"b\" & $2.content != \"qq\" & $3.tag = \"zzz\"",
           {{0, EdgeKind::kAd}, {0, EdgeKind::kPc}}},
          {"$2.tag = \"c\" & ($3.tag = \"a\" | $3.tag = \"item\")",
           {{0, EdgeKind::kAd}, {2, EdgeKind::kAd}}},
          {"$1.content = $2.content", {{0, EdgeKind::kAd}}},
          // Nested conjunctions around residual conjuncts (a two-label
          // atom, a disjunction), and a disjunction at the top.
          {"($1.tag = \"a\" & ($2.content != \"qq\" & "
           "$1.content != $2.content)) & ($2.tag = \"b\" | $2.tag = \"c\")",
           {{0, EdgeKind::kAd}}},
          {"($1.tag = \"item\" & $2.content = $1.content) | $2.tag = \"b\"",
           {{0, EdgeKind::kPc}}},
      };
  // Random 1-3 node shapes over pc and ad edges, each label pinned to a
  // tag (a glob literal among them), a tag disjunction, a content atom,
  // or nothing.
  const std::vector<std::string> pool = {"a", "b", "c", "item", "a*", "zzz"};
  for (int k = 0; k < 60; ++k) {
    std::vector<std::pair<int, EdgeKind>> edges;
    for (size_t n = rng.Uniform(3); n > 0; --n) {
      edges.emplace_back(static_cast<int>(1 + rng.Uniform(edges.size() + 1)),
                         rng.Bernoulli(0.5) ? EdgeKind::kPc : EdgeKind::kAd);
    }
    std::vector<std::string> atoms;
    for (size_t label = 1; label <= edges.size() + 1; ++label) {
      const std::string node = "$" + std::to_string(label);
      auto tag_atom = [&] {
        return node + ".tag = \"" + rng.Choice(pool) + "\"";
      };
      switch (rng.Uniform(4)) {
        case 0:
          atoms.push_back(tag_atom());
          break;
        case 1:
          atoms.push_back("(" + tag_atom() + " | " + tag_atom() + ")");
          break;
        case 2:
          atoms.push_back(node + ".content != \"qqq\"");
          break;
        default:
          break;
      }
    }
    patterns.emplace_back(atoms.empty() ? "true" : Join(atoms, " & "),
                          std::move(edges));
  }
  TaxSemantics sem;
  reference::Semantics ref;
  size_t nonempty = 0;
  for (const auto& [cond, edges] : patterns) {
    PatternTree pattern = MakePattern(cond, edges);
    auto plan = EmbeddingPlan::Build(pattern);
    ASSERT_TRUE(plan.ok()) << plan.status();
    for (size_t i = 0; i < trees.size(); ++i) {
      const DataTree plain_tree = reference::Unindexed(trees[i]);
      auto planned = plan->Run(trees[i], sem);
      auto plain = FindEmbeddings(pattern, plain_tree, ref);
      ASSERT_EQ(planned.ok(), plain.ok()) << cond << " tree " << i;
      if (!plain.ok()) {
        EXPECT_EQ(planned.status().code(), plain.status().code());
        continue;
      }
      // Prefilters and the residual final check decide as the whole
      // condition does.
      LabelMap mapping;
      std::vector<LabelMap> brute;
      ASSERT_TRUE(
          BruteForce(pattern, plain_tree, ref, 0, &mapping, &brute).ok())
          << cond << " tree " << i;
      ASSERT_EQ(planned->size(), plain->size()) << cond << " tree " << i;
      ASSERT_EQ(brute.size(), plain->size()) << cond << " tree " << i;
      for (size_t e = 0; e < plain->size(); ++e) {
        for (int label : pattern.Labels()) {
          ASSERT_EQ((*planned)[e].mapping.Get(label),
                    (*plain)[e].mapping.Get(label))
              << cond << " tree " << i << " embedding " << e;
          ASSERT_EQ(brute[e].Get(label), (*plain)[e].mapping.Get(label))
              << cond << " tree " << i << " embedding " << e;
        }
      }
      if (!plain->empty()) ++nonempty;
    }
  }
  EXPECT_GT(nonempty, 200u);  // the equivalence is exercised nontrivially
}

TEST(EmbeddingTest, IllTypedConditionSurfacesError) {
  DataTree tree = Dblp();
  TaxSemantics sem;
  // $9 unbound in a two-label atom that escapes prefiltering.
  PatternTree pt;
  pt.AddRoot();
  pt.SetCondition(ParseCondition("$1.tag = $1.tag").value());
  auto ok = FindEmbeddings(pt, tree, sem);
  EXPECT_TRUE(ok.ok());
  // Validate() rejects unbound labels before enumeration begins.
  pt.SetCondition(ParseCondition("$1.tag = $9.tag").value());
  auto r = FindEmbeddings(pt, tree, sem);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(EmbeddingTest, PartialMatchesStopOneTupleAfterTheCap) {
  // An ad pair over a chain n deep has n * (n - 1) / 2 partial matches.
  auto chain = [](int depth) {
    DataTree tree;
    NodeId node = tree.CreateRoot("c");
    for (int d = 1; d < depth; ++d) node = tree.AppendChild(node, "c");
    return tree;
  };
  PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(pt.AddChild(root, EdgeKind::kAd), EdgeKind::kAd);
  pt.SetCondition(ParseCondition("$1.tag = \"tax_prod_root\"").value());
  auto plan = EmbeddingPlan::Build(pt);
  ASSERT_TRUE(plan.ok());
  TaxSemantics sem;
  auto below = FindPartialMatches(*plan, 1, chain(100), sem, {});
  ASSERT_TRUE(below.ok());
  EXPECT_EQ(below->size(), 4950u);
  auto past = FindPartialMatches(*plan, 1, chain(460), sem, {});  // 105,570
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(past->size(), kMaxPostingsPerSubtree + 1);
}

}  // namespace
}  // namespace toss::tax
