// The reference evaluator's own guarantees, and a second oracle that shares
// no embedding code with it or with the executor: a descendant-only path
// pattern of tag tests ($1//$2//...//$k with $i.tag = t_i) matches a
// document iff t_1 .. t_k is a subsequence of the tags along some
// root-to-leaf path (Bille & Gørtz, "Matching Subsequences in Trees"). A
// '*' in a data tag globs the literal, as tag equality does.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/toss.h"
#include "reference_eval.h"

namespace toss {
namespace {

TEST(ReferenceEvalTest, UnindexedCopyKeepsNodeIdsAndDropsTheIndex) {
  tax::DataTree tree;
  tree.CreateRoot("a", "x");
  tree.AppendChild(0, "b", "y");
  tree.AppendChild(0, "c");
  tree.AppendChild(1, "d", "z");  // ids are not in preorder
  tree.BuildTagIndex();
  const tax::DataTree copy = reference::Unindexed(tree);
  EXPECT_FALSE(copy.has_tag_index());
  EXPECT_FALSE(copy.HasSymbolIds());
  EXPECT_TRUE(copy.Equals(tree));
  EXPECT_EQ(copy.node(3).parent, 1u);
}

/// A random document as the oracle sees it: parents and tags by node.
struct PathDoc {
  std::vector<int> parent;  ///< -1 for the root; parents precede children
  std::vector<std::string> tags;
};

PathDoc RandomPathDoc(std::mt19937& rng) {
  static const std::vector<std::string> kTags = {"a", "b", "c", "d",
                                                 "*", "a*", "*c"};
  PathDoc d;
  const int n = 1 + static_cast<int>(rng() % 16);
  for (int i = 0; i < n; ++i) {
    d.parent.push_back(i == 0 ? -1 : static_cast<int>(rng() % i));
    d.tags.push_back(kTags[rng() % kTags.size()]);
  }
  return d;
}

xml::XmlDocument ToXml(const PathDoc& d) {
  xml::XmlDocument doc;
  std::vector<xml::NodeId> ids;
  for (size_t i = 0; i < d.tags.size(); ++i) {
    ids.push_back(d.parent[i] < 0
                      ? doc.CreateRoot(d.tags[i])
                      : doc.AppendElement(ids[d.parent[i]], d.tags[i]));
  }
  return doc;
}

/// `pattern` with '*' matching any run of characters, matched against `s`.
bool Glob(std::string_view pattern, std::string_view s) {
  if (pattern.empty()) return s.empty();
  if (pattern[0] == '*') {
    return Glob(pattern.substr(1), s) ||
           (!s.empty() && Glob(pattern, s.substr(1)));
  }
  return !s.empty() && pattern[0] == s[0] &&
         Glob(pattern.substr(1), s.substr(1));
}

/// True when `seq` is a subsequence of the tags along some root-to-leaf
/// path -- equivalently, along the path from the root to some node.
/// Matching each tag at its earliest place on the path is optimal.
bool SubsequenceOfSomePath(const PathDoc& d,
                           const std::vector<std::string>& seq) {
  for (int end = 0; end < static_cast<int>(d.tags.size()); ++end) {
    std::vector<int> path;  // end to root
    for (int v = end; v >= 0; v = d.parent[v]) path.push_back(v);
    size_t next = 0;
    for (auto v = path.rbegin(); v != path.rend(); ++v) {
      if (next < seq.size() && Glob(d.tags[*v], seq[next])) ++next;
    }
    if (next == seq.size()) return true;
  }
  return false;
}

TEST(SubsequenceOracleTest, PathPatternsMatchIffTagsAreASubsequence) {
  std::mt19937 rng(1996);
  store::Database db;
  std::vector<PathDoc> docs;
  for (int i = 0; i < 80; ++i) {
    docs.push_back(RandomPathDoc(rng));
    auto coll = db.CreateCollection("d" + std::to_string(i));
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->Insert("doc", ToXml(docs.back())).ok());
  }
  core::QueryExecutor exec(&db, nullptr, nullptr);
  reference::Evaluator ref(&db);
  const std::vector<std::string> kLiterals = {"a", "b", "c", "d"};
  size_t matched = 0;
  size_t checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::string> seq(1 + rng() % 4);
    for (std::string& tag : seq) tag = kLiterals[rng() % kLiterals.size()];
    tax::PatternTree pt;
    int label = pt.AddRoot();
    std::vector<tax::Condition> atoms;
    for (size_t k = 0; k < seq.size(); ++k) {
      if (k > 0) label = pt.AddChild(label, tax::EdgeKind::kAd);
      atoms.push_back(tax::Condition::Atom(tax::TagOf(label), tax::CondOp::kEq,
                                           tax::Value(seq[k])));
    }
    pt.SetCondition(tax::Condition::And(std::move(atoms)));
    for (size_t i = 0; i < docs.size(); ++i) {
      const std::string coll = "d" + std::to_string(i);
      const bool want = SubsequenceOfSomePath(docs[i], seq);
      auto got = exec.Select(coll, pt, {1}, {});
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(!got->empty(), want)
          << pt.condition().ToString() << " on document " << i;
      auto naive = ref.Select(coll, pt, {1});
      ASSERT_TRUE(naive.ok()) << naive.status();
      EXPECT_EQ(!naive->empty(), want)
          << pt.condition().ToString() << " on document " << i;
      matched += want ? 1 : 0;
      ++checked;
    }
  }
  // Both verdicts occur often.
  EXPECT_GT(matched, checked / 10);
  EXPECT_LT(matched, checked - checked / 10);
}

}  // namespace
}  // namespace toss
