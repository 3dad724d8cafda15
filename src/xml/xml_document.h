// Vector-backed ordered XML DOM.
//
// Nodes live in a contiguous arena inside XmlDocument and are addressed by
// dense 32-bit NodeIds; child lists preserve document order. This layout is
// deliberately close to how column-oriented engines store trees: traversals
// are pointer-free and the whole document is trivially copyable.

#ifndef TOSS_XML_XML_DOCUMENT_H_
#define TOSS_XML_XML_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace toss::xml {

using NodeId = uint32_t;

/// Sentinel meaning "no node".
inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

enum class NodeKind : uint8_t {
  kElement,  ///< <tag attr="...">...</tag>
  kText,     ///< character data
};

/// One XML attribute.
struct XmlAttribute {
  std::string name;
  std::string value;
};

/// One node in the arena. Element nodes carry a tag and attributes; text
/// nodes carry character data in `text`.
struct XmlNode {
  NodeKind kind = NodeKind::kElement;
  std::string tag;
  std::string text;
  std::vector<XmlAttribute> attributes;
  NodeId parent = kInvalidNode;
  std::vector<NodeId> children;
};

/// An ordered XML tree.
class XmlDocument {
 public:
  XmlDocument() = default;

  /// Creates the root element; must be called exactly once on an empty
  /// document. Returns the root id.
  NodeId CreateRoot(std::string_view tag);

  /// Appends a new element child under `parent`; returns its id.
  NodeId AppendElement(NodeId parent, std::string_view tag);

  /// Appends a new text child under `parent`; returns its id.
  NodeId AppendText(NodeId parent, std::string_view text);

  /// Convenience: appends `<tag>text</tag>` under `parent`; returns the
  /// element's id.
  NodeId AppendTextElement(NodeId parent, std::string_view tag,
                           std::string_view text);

  /// Adds an attribute to an element node.
  void SetAttribute(NodeId node, std::string_view name,
                    std::string_view value);

  bool empty() const { return nodes_.empty(); }
  size_t size() const { return nodes_.size(); }
  /// Reserves room for `n` nodes, so building a document of known size
  /// moves no node.
  void Reserve(size_t n) { nodes_.reserve(n); }
  NodeId root() const { return nodes_.empty() ? kInvalidNode : 0; }

  const XmlNode& node(NodeId id) const { return nodes_[id]; }
  XmlNode& node(NodeId id) { return nodes_[id]; }

  /// Concatenation of all text descendants of `id` (the element "content").
  std::string TextContent(NodeId id) const;

  /// Attribute value or empty string when absent.
  std::string_view Attribute(NodeId id, std::string_view name) const;

  /// All element descendants of `id` (excluding `id`), in document order.
  std::vector<NodeId> ElementDescendants(NodeId id) const;

  /// Element children of `id` in document order.
  std::vector<NodeId> ElementChildren(NodeId id) const;

  /// Element children of `id` whose tag equals `tag`.
  std::vector<NodeId> ChildrenByTag(NodeId id, std::string_view tag) const;

  /// First element child with the given tag, or kInvalidNode.
  NodeId FirstChildByTag(NodeId id, std::string_view tag) const;

  /// True iff `ancestor` is a proper ancestor of `node`.
  bool IsAncestor(NodeId ancestor, NodeId node) const;

  /// Depth of the node (root = 0).
  int Depth(NodeId id) const;

  /// Deep-copies the subtree rooted at `src_id` in `src` under `parent` in
  /// this document; returns the id of the copied root.
  NodeId CopySubtree(const XmlDocument& src, NodeId src_id, NodeId parent);

 private:
  NodeId NewNode(NodeKind kind, NodeId parent);

  std::vector<XmlNode> nodes_;
};

}  // namespace toss::xml

#endif  // TOSS_XML_XML_DOCUMENT_H_
