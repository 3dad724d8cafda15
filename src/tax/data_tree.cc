#include "tax/data_tree.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "common/string_util.h"

namespace toss::tax {

NodeId DataTree::CreateRoot(std::string_view tag, std::string_view content) {
  assert(nodes_.empty() && "CreateRoot on non-empty tree");
  tag_index_.reset();
  nodes_.emplace_back();
  nodes_[0].tag = tag;
  nodes_[0].content = content;
  return 0;
}

NodeId DataTree::AppendChild(NodeId parent, std::string_view tag,
                             std::string_view content) {
  assert(parent < nodes_.size());
  tag_index_.reset();
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.emplace_back();
  nodes_[id].tag = tag;
  nodes_[id].content = content;
  nodes_[id].parent = parent;
  nodes_[parent].children.push_back(id);
  return id;
}

std::vector<NodeId> DataTree::Descendants(NodeId id) const {
  std::vector<NodeId> out;
  std::vector<NodeId> stack;
  for (auto it = nodes_[id].children.rbegin();
       it != nodes_[id].children.rend(); ++it) {
    stack.push_back(*it);
  }
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    const auto& n = nodes_[cur];
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

bool DataTree::IsAncestor(NodeId ancestor, NodeId node) const {
  // With preorder ids the question is an interval containment test on the
  // positional labels -- O(1) instead of a parent walk.
  if (HasPreorderIds()) {
    return ancestor < node && node < SubtreeEnd(ancestor);
  }
  NodeId cur = nodes_[node].parent;
  while (cur != kInvalidNode) {
    if (cur == ancestor) return true;
    cur = nodes_[cur].parent;
  }
  return false;
}

NodeId DataTree::CopySubtree(const DataTree& src, NodeId src_id,
                             NodeId parent) {
  if (parent == kInvalidNode && src.HasPreorderIds()) {
    // A new tree: the source's preorder ids give the copy's node count.
    nodes_.reserve(src.SubtreeEnd(src_id) - src_id);
  }
  const DataNode& sn = src.node(src_id);
  NodeId dst = (parent == kInvalidNode) ? CreateRoot(sn.tag, sn.content)
                                        : AppendChild(parent, sn.tag,
                                                      sn.content);
  nodes_[dst].tag_type = sn.tag_type;
  nodes_[dst].content_type = sn.content_type;
  nodes_[dst].provenance = sn.provenance;
  for (NodeId c : sn.children) CopySubtree(src, c, dst);
  return dst;
}

namespace {

void ConvertXml(const xml::XmlDocument& doc, xml::NodeId src, DataTree* out,
                NodeId parent) {
  const auto& n = doc.node(src);
  // Content = concatenation of direct text children.
  std::string content;
  for (xml::NodeId c : n.children) {
    if (doc.node(c).kind == xml::NodeKind::kText) content += doc.node(c).text;
  }
  NodeId id = (parent == kInvalidNode)
                  ? out->CreateRoot(n.tag, content)
                  : out->AppendChild(parent, n.tag, content);
  // Ground-truth provenance survives XML round-trips via a reserved
  // attribute (see data_tree.h on mechanical precision/recall auditing).
  std::string_view gtid = doc.Attribute(src, "gtid");
  if (!gtid.empty()) {
    long long value = 0;
    if (ParseInt(gtid, &value) && value > 0) {
      out->node(id).provenance = static_cast<uint64_t>(value);
    }
  }
  for (xml::NodeId c : n.children) {
    if (doc.node(c).kind == xml::NodeKind::kElement) {
      ConvertXml(doc, c, out, id);
    }
  }
}

void ConvertToXml(const DataTree& tree, NodeId src, xml::XmlDocument* out,
                  xml::NodeId parent) {
  const DataNode& n = tree.node(src);
  xml::NodeId id = (parent == xml::kInvalidNode)
                       ? out->CreateRoot(n.tag)
                       : out->AppendElement(parent, n.tag);
  if (n.provenance != 0) {
    out->SetAttribute(id, "gtid", std::to_string(n.provenance));
  }
  if (!n.content.empty()) out->AppendText(id, n.content);
  for (NodeId c : n.children) ConvertToXml(tree, c, out, id);
}

void AppendCanonical(const DataTree& tree, NodeId id, std::string* out) {
  const DataNode& n = tree.node(id);
  // Length-prefixed fields make the key collision-free.
  auto field = [out](const std::string& s) {
    *out += std::to_string(s.size());
    *out += ':';
    *out += s;
  };
  *out += '(';
  field(n.tag);
  field(n.content);
  field(n.tag_type);
  field(n.content_type);
  for (NodeId c : n.children) AppendCanonical(tree, c, out);
  *out += ')';
}

bool SameSubtree(const DataTree& a, NodeId x, const DataTree& b, NodeId y) {
  const DataNode& n = a.node(x);
  const DataNode& m = b.node(y);
  if (n.children.size() != m.children.size() || n.tag != m.tag ||
      n.content != m.content || n.tag_type != m.tag_type ||
      n.content_type != m.content_type) {
    return false;
  }
  for (size_t i = 0; i < n.children.size(); ++i) {
    if (!SameSubtree(a, n.children[i], b, m.children[i])) return false;
  }
  return true;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// A Merkle-style hash: a node's fields, its child count, then its
/// children's hashes in order, so shape and sibling order take part.
uint64_t HashSubtree(const DataTree& tree, NodeId id) {
  const DataNode& n = tree.node(id);
  std::hash<std::string_view> hash;
  uint64_t h = Mix(hash(n.tag), hash(n.content));
  h = Mix(h, hash(n.tag_type));
  h = Mix(h, hash(n.content_type));
  h = Mix(h, n.children.size());
  for (NodeId c : n.children) h = Mix(h, HashSubtree(tree, c));
  return h;
}

}  // namespace

DataTree DataTree::FromXml(const xml::XmlDocument& doc, xml::NodeId root) {
  DataTree out;
  ConvertXml(doc, root, &out, kInvalidNode);
  // Decoded trees head straight into query evaluation; index them here so
  // every consumer (executor cache, operators) gets candidate pruning.
  out.BuildTagIndex();
  return out;
}

void DataTree::BuildTagIndex() {
  if (tag_index_.has_value()) return;
  TagIndexData index;
  index.tag_ids.resize(nodes_.size(), kInvalidSymbol);
  index.content_ids.resize(nodes_.size(), kInvalidSymbol);
  Interner& interner = Interner::Global();
  bool symbols_ok = true;
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    const DataNode& n = nodes_[v];
    const SymbolId tag_id = interner.Intern(n.tag);
    index.tag_ids[v] = tag_id;
    index.content_ids[v] = interner.Intern(n.content);
    if (tag_id == kInvalidSymbol ||
        index.content_ids[v] == kInvalidSymbol) {
      symbols_ok = false;  // process dictionary full (2^26 terms)
    } else {
      index.by_tag[tag_id].push_back(v);  // v ascending -> lists stay sorted
    }
    if (n.tag.find('*') != std::string::npos) {
      index.wildcard_nodes.push_back(v);
    }
    if (n.tag_type != kStringType) index.filterable = false;
  }
  if (!symbols_ok) {
    // Without complete ids the id-keyed tag map is partial; disable both
    // the ids and index-based tag pruning rather than prune wrongly.
    index.tag_ids.clear();
    index.content_ids.clear();
    index.by_tag.clear();
    index.filterable = false;
  }
  // Preorder check: walking children depth-first must visit ids 0,1,2,...
  // (true for FromXml / CopySubtree construction). Then each subtree is the
  // contiguous id range [v, v + size(v)).
  if (!nodes_.empty()) {
    bool preorder = true;
    std::vector<NodeId> stack{0};
    NodeId expect = 0;
    while (!stack.empty() && preorder) {
      NodeId cur = stack.back();
      stack.pop_back();
      if (cur != expect++) preorder = false;
      const auto& kids = nodes_[cur].children;
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        stack.push_back(*it);
      }
    }
    if (preorder) {
      // AppendChild guarantees child ids exceed the parent's, so a reverse
      // sweep sees every subtree size before its parent needs it.
      index.subtree_end.assign(nodes_.size(), 0);
      for (NodeId v = static_cast<NodeId>(nodes_.size()); v-- > 0;) {
        NodeId end = v + 1;
        for (NodeId c : nodes_[v].children) {
          end = std::max(end, index.subtree_end[c]);
        }
        index.subtree_end[v] = end;
      }
    }
  }
  tag_index_ = std::move(index);
}

const std::vector<NodeId>* DataTree::NodesWithTagId(SymbolId tag) const {
  assert(tag_index_.has_value());
  auto it = tag_index_->by_tag.find(tag);
  return it == tag_index_->by_tag.end() ? nullptr : &it->second;
}

const std::vector<NodeId>& DataTree::WildcardTagNodes() const {
  assert(tag_index_.has_value());
  return tag_index_->wildcard_nodes;
}

xml::XmlDocument DataTree::ToXml() const {
  xml::XmlDocument out;
  out.Reserve(2 * nodes_.size());  // an element and a text node each
  if (!empty()) ConvertToXml(*this, root(), &out, xml::kInvalidNode);
  return out;
}

bool DataTree::Equals(const DataTree& other) const {
  if (nodes_.size() != other.nodes_.size()) return false;
  return empty() || SameSubtree(*this, root(), other, other.root());
}

uint64_t DataTree::StructuralHash() const {
  return empty() ? 0 : HashSubtree(*this, root());
}

std::string DataTree::CanonicalKey() const {
  std::string out;
  out.reserve(nodes_.size() * 16);
  if (!empty()) AppendCanonical(*this, root(), &out);
  return out;
}

size_t TotalNodes(const TreeCollection& collection) {
  size_t n = 0;
  for (const auto& t : collection) n += t.size();
  return n;
}

}  // namespace toss::tax
