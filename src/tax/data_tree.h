// TAX data model (paper Def. 1).
//
// A semistructured instance is a set of rooted, ordered, labelled trees. A
// tree node ("object") carries two attributes -- its tag and its content --
// each with an associated type (plain TAX fixes both to "string"; the
// ontology-extended model of Section 5 generalizes the type names).
//
// DataTree uses the same arena layout as xml::XmlDocument but folds text
// children into the owning element's `content` attribute, matching the
// o.tag / o.content view of the paper. `provenance` carries the generating
// entity id through query pipelines so the evaluation harness can audit
// precision/recall mechanically (our substitute for the paper's manual
// relevance judgments).

#ifndef TOSS_TAX_DATA_TREE_H_
#define TOSS_TAX_DATA_TREE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "xml/xml_document.h"

namespace toss::tax {

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

/// Default type of tags and contents in plain TAX.
inline constexpr const char* kStringType = "string";

struct DataNode {
  std::string tag;
  std::string content;
  std::string tag_type = kStringType;
  std::string content_type = kStringType;
  uint64_t provenance = 0;  ///< generator entity id; 0 = untracked
  NodeId parent = kInvalidNode;
  std::vector<NodeId> children;
};

/// One rooted ordered tree of a semistructured instance.
class DataTree {
 public:
  DataTree() = default;

  /// Creates the root; exactly one per tree. Returns its id.
  NodeId CreateRoot(std::string_view tag, std::string_view content = "");

  /// Appends a child under `parent` in document order; returns its id.
  NodeId AppendChild(NodeId parent, std::string_view tag,
                     std::string_view content = "");

  bool empty() const { return nodes_.empty(); }
  size_t size() const { return nodes_.size(); }
  NodeId root() const { return nodes_.empty() ? kInvalidNode : 0; }

  const DataNode& node(NodeId id) const { return nodes_[id]; }
  /// Mutable access drops the tag index: the caller may rewrite tags, so
  /// a previously built index can no longer be trusted.
  DataNode& node(NodeId id) {
    tag_index_.reset();
    return nodes_[id];
  }

  /// All descendants of `id` (excluding `id`) in document (pre)order.
  std::vector<NodeId> Descendants(NodeId id) const;

  /// True iff `ancestor` is a proper ancestor of `node`.
  bool IsAncestor(NodeId ancestor, NodeId node) const;

  /// Deep-copies the subtree rooted at `src_id` of `src` under `parent`
  /// here (pass kInvalidNode to copy as this tree's root). Returns the id
  /// of the copy.
  NodeId CopySubtree(const DataTree& src, NodeId src_id, NodeId parent);

  /// Converts an XML element subtree: element children become child nodes,
  /// text children concatenate into `content`.
  static DataTree FromXml(const xml::XmlDocument& doc, xml::NodeId root);

  /// Converts back to XML (content becomes a text child when non-empty).
  xml::XmlDocument ToXml() const;

  /// Order-preserving value equality (paper Section 5.1.2): isomorphic
  /// shapes with equal tags, contents and types at corresponding nodes.
  /// Provenance does not take part.
  bool Equals(const DataTree& other) const;

  /// A 64-bit hash of what Equals compares: Equals(a, b) implies equal
  /// hashes. Duplicate elimination keys trees by it and calls Equals only
  /// when two hashes collide.
  uint64_t StructuralHash() const;

  /// Canonical serialization; Equals(a,b) iff CanonicalKey()s are equal.
  /// The reference the tests hold Equals and StructuralHash to.
  std::string CanonicalKey() const;

  // --- Tag index -----------------------------------------------------------
  //
  // A tag -> sorted-node-list index that lets the embedding enumerator seed
  // candidates for tag-pinned pattern nodes without scanning the whole
  // tree. Build it once after the tree is complete (FromXml does this
  // automatically); any later mutation -- AppendChild, CopySubtree into
  // this tree, or non-const node() access -- drops the index, and lookups
  // fall back to full scans until it is rebuilt.

  /// Builds (or rebuilds) the tag index. Idempotent and cheap when already
  /// built. Also precomputes preorder subtree intervals when node ids are
  /// in preorder (true for FromXml / CopySubtree-built trees).
  void BuildTagIndex();

  bool has_tag_index() const { return tag_index_.has_value(); }

  /// True when the index exists and plain string comparison of tags is
  /// faithful to condition semantics: every tag_type is "string". Trees
  /// with exotic tag types route tag atoms through type conversions, which
  /// string-match pruning must not preempt.
  bool TagFilterable() const {
    return tag_index_.has_value() && tag_index_->filterable;
  }

  /// Nodes carrying exactly the tag interned as `tag`, ascending NodeId;
  /// nullptr when the tag is absent. Requires TagFilterable().
  const std::vector<NodeId>* NodesWithTagId(SymbolId tag) const;

  /// Nodes whose tag contains '*'. Under glob-equality semantics a *data*
  /// tag can act as the pattern side of `$n.tag = "lit"`, so these stay
  /// candidates for every tag literal. Requires TagFilterable().
  const std::vector<NodeId>& WildcardTagNodes() const;

  /// True when node ids enumerate the tree in preorder and the index is
  /// built; then the descendants of v are exactly ids in (v, SubtreeEnd(v)).
  bool HasPreorderIds() const {
    return tag_index_.has_value() && !tag_index_->subtree_end.empty();
  }

  /// One past the last id of v's subtree (valid iff HasPreorderIds()).
  NodeId SubtreeEnd(NodeId v) const { return tag_index_->subtree_end[v]; }

  // --- Interned symbol ids -------------------------------------------------
  //
  // BuildTagIndex also interns every node's tag and content through the
  // process-wide Interner, so downstream comparisons (conditions, twig
  // merge values, SEO probes) work on u32 ids. The ids share the index's
  // lifecycle: any mutation drops them together with the tag index, which
  // is exactly the staleness rule they need.

  /// True when per-node tag/content SymbolIds were computed (whenever the
  /// index is built, unless the process dictionary overflowed).
  bool HasSymbolIds() const {
    return tag_index_.has_value() && !tag_index_->tag_ids.empty();
  }

  /// Interned id of v's tag. Valid iff HasSymbolIds().
  SymbolId TagId(NodeId v) const { return tag_index_->tag_ids[v]; }

  /// Interned id of v's content. Valid iff HasSymbolIds().
  SymbolId ContentId(NodeId v) const { return tag_index_->content_ids[v]; }

 private:
  struct TagIndexData {
    std::unordered_map<SymbolId, std::vector<NodeId>> by_tag;
    std::vector<NodeId> wildcard_nodes;
    std::vector<NodeId> subtree_end;  ///< empty when ids are not preorder
    std::vector<SymbolId> tag_ids;      ///< per-node interned tag
    std::vector<SymbolId> content_ids;  ///< per-node interned content
    bool filterable = true;           ///< all tag_types are "string"
  };

  std::vector<DataNode> nodes_;
  std::optional<TagIndexData> tag_index_;
};

/// A semistructured DB / intermediate result: an ordered list of trees.
using TreeCollection = std::vector<DataTree>;

/// Total node count across a collection.
size_t TotalNodes(const TreeCollection& collection);

}  // namespace toss::tax

#endif  // TOSS_TAX_DATA_TREE_H_
