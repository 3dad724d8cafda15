#include <gtest/gtest.h>

#include "tax/condition_parser.h"
#include "tax/operators.h"
#include "tax/tax_semantics.h"
#include "xml/xml_parser.h"

namespace toss::tax {
namespace {

DataTree FromXml(const char* text) {
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return DataTree::FromXml(*doc, doc->root());
}

TreeCollection Dblp() {
  TreeCollection coll;
  coll.push_back(FromXml(
      "<inproceedings><author>Paolo Ciancarini</author>"
      "<author>Robert Tolksdorf</author>"
      "<title>Coordinating Multiagent Applications</title>"
      "<year>1999</year></inproceedings>"));
  coll.push_back(FromXml(
      "<inproceedings><author>Ernesto Damiani</author>"
      "<title>Securing XML Documents</title>"
      "<year>2000</year></inproceedings>"));
  coll.push_back(FromXml(
      "<inproceedings><author>Paolo Ciancarini</author>"
      "<title>Another Paper</title>"
      "<year>1999</year></inproceedings>"));
  return coll;
}

PatternTree AuthorsOf1999() {
  // Paper Example 5's intent: authors of papers published in 1999.
  PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(root, EdgeKind::kPc);  // $2 author
  pt.AddChild(root, EdgeKind::kPc);  // $3 year
  pt.SetCondition(ParseCondition("$1.tag = \"inproceedings\" & "
                                 "$2.tag = \"author\" & $3.tag = \"year\" & "
                                 "$3.content = \"1999\"")
                      .value());
  return pt;
}

TEST(SelectTest, ReturnsWitnessTreesWithSlExpansion) {
  TaxSemantics sem;
  TreeCollection dblp = Dblp();
  PatternTree pt = AuthorsOf1999();
  // SL = {1}: full papers.
  auto r = Select(dblp, pt, {1}, sem);
  ASSERT_TRUE(r.ok()) << r.status();
  // Papers 1 and 3 match; duplicates from the two authors of paper 1
  // collapse because SL-expansion makes their witnesses identical.
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].node(0).tag, "inproceedings");
  EXPECT_EQ((*r)[0].size(), 5u);  // full first paper
}

TEST(SelectTest, WithoutSlKeepsDistinctWitnesses) {
  TaxSemantics sem;
  auto r = Select(Dblp(), AuthorsOf1999(), {}, sem);
  ASSERT_TRUE(r.ok());
  // Three embeddings (two authors on paper 1, one on paper 3), but the
  // witness for (paper 3, Paolo, 1999) is value-equal to the one for
  // (paper 1, Paolo, 1999), so set semantics collapses them to two trees.
  EXPECT_EQ(r->size(), 2u);
}

TEST(SelectTest, NoMatchesYieldsEmpty) {
  TaxSemantics sem;
  PatternTree pt;
  pt.AddRoot();
  pt.SetCondition(ParseCondition("$1.tag = \"phdthesis\"").value());
  auto r = Select(Dblp(), pt, {1}, sem);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(ProjectTest, KeepsMatchedNodesAsSeparateTrees) {
  TaxSemantics sem;
  // Paper Example 5 / Figure 5: project the authors.
  auto r = Project(Dblp(), AuthorsOf1999(), {{2, false}}, sem);
  ASSERT_TRUE(r.ok()) << r.status();
  // Three author nodes, but "Paolo Ciancarini" appears twice -> dedup = 2.
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].node(0).tag, "author");
  EXPECT_EQ((*r)[0].size(), 1u);
  EXPECT_EQ((*r)[0].node(0).content, "Paolo Ciancarini");
  EXPECT_EQ((*r)[1].node(0).content, "Robert Tolksdorf");
}

TEST(ProjectTest, HierarchicalRelationshipsPreserved) {
  TaxSemantics sem;
  // Project both the paper and its author: author stays nested.
  auto r = Project(Dblp(), AuthorsOf1999(), {{1, false}, {2, false}}, sem);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);  // one tree per matching paper
  const DataTree& first = (*r)[0];
  EXPECT_EQ(first.node(first.root()).tag, "inproceedings");
  ASSERT_EQ(first.node(first.root()).children.size(), 2u);  // both authors
  EXPECT_EQ(first.node(first.node(first.root()).children[0]).tag, "author");
}

TEST(ProjectTest, KeepSubtreeBringsDescendants) {
  TaxSemantics sem;
  auto r = Project(Dblp(), AuthorsOf1999(), {{1, true}}, sem);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].size(), 5u);  // whole paper subtree
}

TEST(ProductTest, PairsEveryTreeUnderFreshRoot) {
  TreeCollection left = Dblp();
  TreeCollection right;
  right.push_back(FromXml("<article><title>T</title></article>"));
  right.push_back(FromXml("<article><title>U</title></article>"));
  TreeCollection prod = Product(left, right);
  ASSERT_EQ(prod.size(), 6u);
  const DataTree& t = prod[0];
  EXPECT_EQ(t.node(t.root()).tag, kProductRootTag);
  ASSERT_EQ(t.node(t.root()).children.size(), 2u);
  EXPECT_EQ(t.node(t.node(t.root()).children[0]).tag, "inproceedings");
  EXPECT_EQ(t.node(t.node(t.root()).children[1]).tag, "article");
  EXPECT_TRUE(Product({}, right).empty());
}

TEST(JoinTest, ProductPlusSelection) {
  TaxSemantics sem;
  TreeCollection left = Dblp();
  TreeCollection right;
  right.push_back(FromXml(
      "<article><title>Securing XML Documents</title></article>"));
  right.push_back(FromXml("<article><title>Unrelated</title></article>"));

  // Join on equal titles (TAX ~ = exact equality).
  PatternTree pt;
  int root = pt.AddRoot();
  int l = pt.AddChild(root, EdgeKind::kPc);
  pt.AddChild(l, EdgeKind::kPc);  // $3 dblp title
  int r2 = pt.AddChild(root, EdgeKind::kPc);
  pt.AddChild(r2, EdgeKind::kPc);  // $5 article title
  pt.SetCondition(
      ParseCondition("$1.tag = \"tax_prod_root\" & "
                     "$2.tag = \"inproceedings\" & $3.tag = \"title\" & "
                     "$4.tag = \"article\" & $5.tag = \"title\" & "
                     "$3.content ~ $5.content")
          .value());
  auto joined = Select(Product(left, right), pt, {2, 4}, sem);
  ASSERT_TRUE(joined.ok()) << joined.status();
  ASSERT_EQ(joined->size(), 1u);
  // The joined tree holds both full operands under the product root.
  const DataTree& t = (*joined)[0];
  EXPECT_EQ(t.node(t.root()).tag, kProductRootTag);
  EXPECT_EQ(t.node(t.root()).children.size(), 2u);
}

TEST(GroupByTest, GroupsWitnessesByNodeContent) {
  TaxSemantics sem;
  TreeCollection dblp = Dblp();
  // Group papers by year.
  PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(root, EdgeKind::kPc);  // $2 year
  pt.SetCondition(
      ParseCondition("$1.tag = \"inproceedings\" & $2.tag = \"year\"")
          .value());
  auto r = GroupBy(dblp, pt, 2, {1}, sem);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->size(), 2u);  // years 1999 and 2000
  // First-occurrence order: 1999 first.
  EXPECT_EQ((*r)[0].node(0).tag, kGroupRootTag);
  EXPECT_EQ((*r)[0].node(0).content, "1999");
  EXPECT_EQ((*r)[0].node(0).provenance, 2u);  // two 1999 papers
  EXPECT_EQ((*r)[0].node(0).children.size(), 2u);
  EXPECT_EQ((*r)[1].node(0).content, "2000");
  EXPECT_EQ((*r)[1].node(0).provenance, 1u);
  // Members are full papers (SL = {1}).
  NodeId member = (*r)[0].node(0).children[0];
  EXPECT_EQ((*r)[0].node(member).tag, "inproceedings");
}

TEST(GroupByTest, UnknownLabelRejected) {
  TaxSemantics sem;
  PatternTree pt;
  pt.AddRoot();
  pt.SetCondition(Condition::True());
  EXPECT_TRUE(GroupBy(Dblp(), pt, 9, {}, sem).status().IsInvalidArgument());
}

TEST(GroupByTest, EmptyInputYieldsNoGroups) {
  TaxSemantics sem;
  PatternTree pt;
  pt.AddRoot();
  pt.SetCondition(Condition::True());
  auto r = GroupBy({}, pt, 1, {}, sem);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(SetOpsTest, UnionIntersectDifference) {
  TreeCollection a = Dblp();
  TreeCollection b;
  b.push_back(a[1]);  // shared tree
  b.push_back(FromXml("<inproceedings><title>New</title></inproceedings>"));

  TreeCollection u = Union(a, b);
  EXPECT_EQ(u.size(), 4u);
  TreeCollection i = Intersect(a, b);
  ASSERT_EQ(i.size(), 1u);
  EXPECT_TRUE(i[0].Equals(a[1]));
  TreeCollection d = Difference(a, b);
  EXPECT_EQ(d.size(), 2u);
  TreeCollection d2 = Difference(b, a);
  ASSERT_EQ(d2.size(), 1u);
  EXPECT_EQ(d2[0].node(0).children.size(), 1u);
}

TEST(SetOpsTest, UnionDeduplicatesWithinAndAcross) {
  TreeCollection a = Dblp();
  TreeCollection twice = a;
  twice.insert(twice.end(), a.begin(), a.end());
  EXPECT_EQ(Union(twice, {}).size(), a.size());
  EXPECT_EQ(Union(twice, twice).size(), a.size());
}

TEST(SetOpsTest, AlgebraicIdentities) {
  TreeCollection a = Dblp();
  TreeCollection b;
  b.push_back(a[0]);
  // A - B and A ∩ B partition A.
  EXPECT_EQ(Difference(a, b).size() + Intersect(a, b).size(), a.size());
  // A ∪ A = A; A - A = ∅; A ∩ A = A.
  EXPECT_EQ(Union(a, a).size(), a.size());
  EXPECT_TRUE(Difference(a, a).empty());
  EXPECT_EQ(Intersect(a, a).size(), a.size());
}

TEST(SelectTest, SelectionDistributesOverUnion) {
  TaxSemantics sem;
  TreeCollection all = Dblp();
  TreeCollection left{all[0], all[1]};
  TreeCollection right{all[2]};
  PatternTree pt = AuthorsOf1999();
  auto whole = Select(Union(left, right), pt, {1}, sem);
  auto split_l = Select(left, pt, {1}, sem);
  auto split_r = Select(right, pt, {1}, sem);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(split_l.ok());
  ASSERT_TRUE(split_r.ok());
  TreeCollection merged = Union(*split_l, *split_r);
  ASSERT_EQ(whole->size(), merged.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_TRUE((*whole)[i].Equals(merged[i]));
  }
}

}  // namespace
}  // namespace toss::tax
