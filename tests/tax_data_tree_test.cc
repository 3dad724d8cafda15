#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "tax/data_tree.h"
#include "tax/operators.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace toss::tax {
namespace {

DataTree SamplePaper() {
  DataTree t;
  NodeId root = t.CreateRoot("inproceedings");
  t.AppendChild(root, "author", "Jeffrey Ullman");
  t.AppendChild(root, "title", "A Paper");
  t.AppendChild(root, "year", "1999");
  return t;
}

TEST(DataTreeTest, BuildAndInspect) {
  DataTree t = SamplePaper();
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.node(t.root()).tag, "inproceedings");
  EXPECT_EQ(t.node(1).content, "Jeffrey Ullman");
  EXPECT_EQ(t.node(1).parent, t.root());
  EXPECT_EQ(t.node(t.root()).children.size(), 3u);
  EXPECT_TRUE(t.IsAncestor(t.root(), 2));
  EXPECT_FALSE(t.IsAncestor(2, t.root()));
  EXPECT_EQ(t.node(0).tag_type, kStringType);
}

TEST(DataTreeTest, DescendantsPreorder) {
  DataTree t;
  NodeId root = t.CreateRoot("a");
  NodeId b = t.AppendChild(root, "b");
  NodeId c = t.AppendChild(b, "c");
  NodeId d = t.AppendChild(root, "d");
  auto desc = t.Descendants(root);
  ASSERT_EQ(desc.size(), 3u);
  EXPECT_EQ(desc[0], b);
  EXPECT_EQ(desc[1], c);
  EXPECT_EQ(desc[2], d);
  EXPECT_TRUE(t.Descendants(c).empty());
}

TEST(DataTreeTest, CopySubtreeCarriesTypesAndProvenance) {
  DataTree src = SamplePaper();
  src.node(1).provenance = 1001;
  src.node(1).content_type = "person";
  DataTree dst;
  dst.CopySubtree(src, src.root(), kInvalidNode);
  EXPECT_TRUE(dst.Equals(src));
  EXPECT_EQ(dst.node(1).provenance, 1001u);
  EXPECT_EQ(dst.node(1).content_type, "person");
}

TEST(DataTreeTest, XmlRoundTrip) {
  auto parsed = xml::Parse(
      "<inproceedings gtid=\"10007\">"
      "<author gtid=\"1003\">J. Ullman</author>"
      "<title>Mixed <i>inline</i> text</title>"
      "</inproceedings>");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  DataTree t = DataTree::FromXml(*parsed, parsed->root());
  EXPECT_EQ(t.node(t.root()).provenance, 10007u);
  EXPECT_EQ(t.node(1).tag, "author");
  EXPECT_EQ(t.node(1).provenance, 1003u);
  EXPECT_EQ(t.node(1).content, "J. Ullman");
  // Element children under <title> become child nodes; direct text stays
  // as content.
  NodeId title = 2;
  EXPECT_EQ(t.node(title).tag, "title");
  EXPECT_EQ(t.node(title).content, "Mixed  text");
  ASSERT_EQ(t.node(title).children.size(), 1u);
  EXPECT_EQ(t.node(t.node(title).children[0]).tag, "i");

  // Back to XML: provenance becomes gtid again.
  xml::XmlDocument out = t.ToXml();
  EXPECT_EQ(out.Attribute(out.root(), "gtid"), "10007");
  DataTree again = DataTree::FromXml(out, out.root());
  EXPECT_TRUE(again.Equals(t));
}

TEST(DataTreeTest, EqualsIsOrderSensitive) {
  DataTree a, b;
  NodeId ra = a.CreateRoot("r");
  a.AppendChild(ra, "x", "1");
  a.AppendChild(ra, "y", "2");
  NodeId rb = b.CreateRoot("r");
  b.AppendChild(rb, "y", "2");
  b.AppendChild(rb, "x", "1");
  EXPECT_FALSE(a.Equals(b));  // sibling order matters (ordered trees)
}

TEST(DataTreeTest, EqualsComparesContentAndTypes) {
  DataTree a = SamplePaper();
  DataTree b = SamplePaper();
  EXPECT_TRUE(a.Equals(b));
  b.node(3).content = "2000";
  EXPECT_FALSE(a.Equals(b));
  DataTree c = SamplePaper();
  c.node(3).content_type = "year";
  EXPECT_FALSE(a.Equals(c));  // value-based atoms see types
}

TEST(DataTreeTest, CanonicalKeyInjective) {
  // The classic collision shapes: nesting vs siblings, and field bleed.
  DataTree a, b;
  NodeId ra = a.CreateRoot("r");
  NodeId x = a.AppendChild(ra, "x");
  a.AppendChild(x, "y");
  NodeId rb = b.CreateRoot("r");
  b.AppendChild(rb, "x");
  b.AppendChild(rb, "y");
  EXPECT_NE(a.CanonicalKey(), b.CanonicalKey());

  DataTree c, d;
  c.CreateRoot("ab", "c");
  d.CreateRoot("a", "bc");
  EXPECT_NE(c.CanonicalKey(), d.CanonicalKey());
}

/// Copies `src`'s subtree at `id` under `parent` of `out`, reversing the
/// children of `flip`.
void CopyFlipped(const DataTree& src, NodeId id, NodeId flip, DataTree* out,
                 NodeId parent) {
  const DataNode& n = src.node(id);
  NodeId dst = parent == kInvalidNode ? out->CreateRoot(n.tag, n.content)
                                      : out->AppendChild(parent, n.tag,
                                                         n.content);
  out->node(dst).tag_type = n.tag_type;
  out->node(dst).content_type = n.content_type;
  std::vector<NodeId> kids = n.children;
  if (id == flip) std::reverse(kids.begin(), kids.end());
  for (NodeId c : kids) CopyFlipped(src, c, flip, out, dst);
}

TEST(DataTreeTest, EqualsAndHashAgreeWithCanonicalKey) {
  Random rng(5150);
  const std::vector<std::string> tags = {"a", "b", "a*"};
  const std::vector<std::string> contents = {"", "x", "xy"};
  const std::vector<std::string> types = {kStringType, "year"};
  TreeCollection pool;
  for (int i = 0; i < 120; ++i) {
    // Random parents: ids are not in preorder, unlike CopySubtree copies.
    DataTree t;
    t.CreateRoot(rng.Choice(tags), rng.Choice(contents));
    for (size_t n = rng.Uniform(5); n > 0; --n) {
      NodeId parent = static_cast<NodeId>(rng.Uniform(t.size()));
      NodeId id = t.AppendChild(parent, rng.Choice(tags), rng.Choice(contents));
      if (rng.Bernoulli(0.1)) t.node(id).provenance = rng.Uniform(3) + 1;
    }
    pool.push_back(t);
    DataTree copy;  // same trees, preorder ids
    copy.CopySubtree(t, t.root(), kInvalidNode);
    pool.push_back(copy);
    NodeId v = static_cast<NodeId>(rng.Uniform(t.size()));
    DataTree tag_typed = t;  // differs only in one tag_type
    tag_typed.node(v).tag_type = "year";
    pool.push_back(tag_typed);
    DataTree content_typed = t;  // differs only in one content_type
    content_typed.node(v).content_type = rng.Choice(types);
    pool.push_back(content_typed);
    DataTree flipped;  // differs only in one node's sibling order
    CopyFlipped(t, t.root(), v, &flipped, kInvalidNode);
    pool.push_back(flipped);
  }
  size_t equal_pairs = 0, unequal_pairs = 0;
  for (const DataTree& a : pool) {
    for (const DataTree& b : pool) {
      const bool same_key = a.CanonicalKey() == b.CanonicalKey();
      ASSERT_EQ(a.Equals(b), same_key)
          << a.CanonicalKey() << " vs " << b.CanonicalKey();
      // Equal trees hash alike; the pool happens to hold no collision.
      ASSERT_EQ(a.StructuralHash() == b.StructuralHash(), same_key)
          << a.CanonicalKey() << " vs " << b.CanonicalKey();
      ++(same_key ? equal_pairs : unequal_pairs);
    }
  }
  EXPECT_GT(equal_pairs, 2 * pool.size());  // beyond each tree with itself
  EXPECT_GT(unequal_pairs, pool.size() * pool.size() / 2);

  // MergeDedup keeps the first tree of each CanonicalKey, in part order.
  std::vector<TreeCollection> parts(4);
  for (size_t i = 0; i < pool.size(); ++i) parts[i % 7 % 4].push_back(pool[i]);
  TreeCollection expected;
  std::set<std::string> seen;
  for (const TreeCollection& part : parts) {
    for (const DataTree& t : part) {
      if (seen.insert(t.CanonicalKey()).second) expected.push_back(t);
    }
  }
  TreeCollection merged = MergeDedup(std::move(parts));
  ASSERT_EQ(merged.size(), expected.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    ASSERT_EQ(merged[i].CanonicalKey(), expected[i].CanonicalKey()) << i;
    for (NodeId v = 0; v < merged[i].size(); ++v) {  // the first one kept
      EXPECT_EQ(merged[i].node(v).provenance, expected[i].node(v).provenance);
    }
  }
}

TEST(DataTreeTest, TotalNodes) {
  TreeCollection coll;
  coll.push_back(SamplePaper());
  coll.push_back(SamplePaper());
  EXPECT_EQ(TotalNodes(coll), 8u);
  EXPECT_EQ(TotalNodes({}), 0u);
}

}  // namespace
}  // namespace toss::tax
