#include "tax/operators.h"

#include <map>
#include <set>

namespace toss::tax {

bool TreeSet::Contains(const TreeCollection& trees, const DataTree& tree,
                       uint64_t hash) const {
  auto [begin, end] = by_hash_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (trees[it->second].Equals(tree)) return true;
  }
  return false;
}

bool TreeDeduper::Admit(const DataTree& tree, uint64_t hash) {
  if (tree.empty() || seen_.Contains(*out_, tree, hash)) return false;
  seen_.Add(out_->size(), hash);
  return true;
}

namespace {

/// Builds the induced forest over `kept` nodes of `src`: top-most kept
/// nodes become roots of separate output trees; descendants attach to their
/// closest kept ancestor. `full` nodes bring their whole data subtree.
void BuildForest(const DataTree& src, NodeId src_id,
                 const std::set<NodeId>& kept, const std::set<NodeId>& full,
                 DataTree* current, NodeId current_parent,
                 TreeCollection* out) {
  bool is_kept = kept.count(src_id) > 0;
  if (is_kept && current == nullptr) {
    // Top-most kept node: starts a fresh output tree.
    DataTree tree;
    if (full.count(src_id)) {
      tree.CopySubtree(src, src_id, kInvalidNode);
    } else {
      const DataNode& n = src.node(src_id);
      NodeId id = tree.CreateRoot(n.tag, n.content);
      tree.node(id).tag_type = n.tag_type;
      tree.node(id).content_type = n.content_type;
      tree.node(id).provenance = n.provenance;
      for (NodeId c : src.node(src_id).children) {
        BuildForest(src, c, kept, full, &tree, id, out);
      }
    }
    out->push_back(std::move(tree));
    return;
  }
  NodeId next_parent = current_parent;
  if (is_kept) {
    if (full.count(src_id)) {
      current->CopySubtree(src, src_id, current_parent);
      return;
    }
    const DataNode& n = src.node(src_id);
    NodeId id = current->AppendChild(current_parent, n.tag, n.content);
    current->node(id).tag_type = n.tag_type;
    current->node(id).content_type = n.content_type;
    current->node(id).provenance = n.provenance;
    next_parent = id;
  }
  for (NodeId c : src.node(src_id).children) {
    BuildForest(src, c, kept, full, current, next_parent, out);
  }
}

}  // namespace

Result<TreeCollection> SelectTree(const DataTree& tree,
                                  const EmbeddingPlan& plan,
                                  const std::set<int>& expand,
                                  const ConditionSemantics& semantics) {
  TOSS_ASSIGN_OR_RETURN(std::vector<Embedding> embeddings,
                        plan.Run(tree, semantics));
  TreeCollection out;
  out.reserve(embeddings.size());
  for (const Embedding& h : embeddings) {
    out.push_back(BuildWitnessTree(plan.pattern(), tree, h, expand));
  }
  return out;
}

Result<TreeCollection> ProjectTree(const DataTree& tree,
                                   const EmbeddingPlan& plan,
                                   const std::vector<ProjectItem>& pl,
                                   const ConditionSemantics& semantics) {
  TOSS_ASSIGN_OR_RETURN(std::vector<Embedding> embeddings,
                        plan.Run(tree, semantics));
  std::set<NodeId> kept;
  std::set<NodeId> full;
  for (const Embedding& h : embeddings) {
    for (const ProjectItem& item : pl) {
      NodeId mapped = h.mapping.Get(item.label);
      if (mapped == kInvalidNode) continue;
      kept.insert(mapped);
      if (item.keep_subtree) full.insert(mapped);
    }
  }
  TreeCollection out;
  if (kept.empty()) return out;
  BuildForest(tree, tree.root(), kept, full, nullptr, kInvalidNode, &out);
  return out;
}

Result<std::vector<GroupedWitness>> GroupByTree(
    const DataTree& tree, const EmbeddingPlan& plan, int group_label,
    const std::set<int>& expand, const ConditionSemantics& semantics) {
  const PatternTree& pattern = plan.pattern();
  if (pattern.IndexOfLabel(group_label) < 0) {
    return Status::InvalidArgument("GroupBy: label $" +
                                   std::to_string(group_label) +
                                   " is not a pattern node");
  }
  TOSS_ASSIGN_OR_RETURN(std::vector<Embedding> embeddings,
                        plan.Run(tree, semantics));
  std::vector<GroupedWitness> out;
  out.reserve(embeddings.size());
  for (const Embedding& h : embeddings) {
    GroupedWitness gw;
    gw.value = tree.node(h.mapping.Get(group_label)).content;
    gw.witness = BuildWitnessTree(pattern, tree, h, expand);
    out.push_back(std::move(gw));
  }
  return out;
}

TreeCollection AssembleGroups(std::vector<std::vector<GroupedWitness>> parts) {
  // Grouping value -> (first-occurrence order, deduped member trees).
  struct Group {
    TreeCollection members;
    TreeSet seen;
  };
  std::vector<std::string> group_order;
  std::map<std::string, Group> groups;
  for (std::vector<GroupedWitness>& part : parts) {
    for (GroupedWitness& gw : part) {
      auto [it, inserted] = groups.try_emplace(gw.value);
      if (inserted) group_order.push_back(gw.value);
      Group& g = it->second;
      const uint64_t hash = gw.witness.StructuralHash();
      if (!g.seen.Contains(g.members, gw.witness, hash)) {
        g.seen.Add(g.members.size(), hash);
        g.members.push_back(std::move(gw.witness));
      }
    }
  }
  TreeCollection out;
  out.reserve(group_order.size());
  for (const std::string& value : group_order) {
    DataTree group;
    NodeId root = group.CreateRoot(kGroupRootTag, value);
    const TreeCollection& members = groups[value].members;
    group.node(root).provenance = members.size();  // count aggregate
    for (const DataTree& member : members) {
      group.CopySubtree(member, member.root(), root);
    }
    out.push_back(std::move(group));
  }
  return out;
}

Result<TreeCollection> JoinTreeWithRight(
    const DataTree& left_tree, const std::vector<const DataTree*>& right,
    const PatternTree& pattern, const std::set<int>& expand,
    const ConditionSemantics& semantics) {
  TreeCollection out;
  TreeDeduper dedup(&out);
  for (const DataTree* b : right) {
    DataTree pair;
    NodeId root = pair.CreateRoot(kProductRootTag);
    pair.CopySubtree(left_tree, left_tree.root(), root);
    pair.CopySubtree(*b, b->root(), root);
    pair.BuildTagIndex();
    TOSS_ASSIGN_OR_RETURN(std::vector<Embedding> embeddings,
                          FindEmbeddings(pattern, pair, semantics));
    for (const Embedding& h : embeddings) {
      dedup.Add(BuildWitnessTree(pattern, pair, h, expand));
    }
  }
  return out;
}

TreeCollection MergeDedup(std::vector<TreeCollection> parts) {
  TreeCollection out;
  TreeDeduper dedup(&out);
  for (TreeCollection& part : parts) {
    for (DataTree& tree : part) dedup.Add(std::move(tree));
  }
  return out;
}

Result<TreeCollection> Select(const TreeCollection& input,
                              const PatternTree& pattern,
                              const std::vector<int>& sl,
                              const ConditionSemantics& semantics) {
  TOSS_ASSIGN_OR_RETURN(EmbeddingPlan plan, EmbeddingPlan::Build(pattern));
  std::set<int> expand(sl.begin(), sl.end());
  std::vector<TreeCollection> parts;
  parts.reserve(input.size());
  for (const DataTree& tree : input) {
    TOSS_ASSIGN_OR_RETURN(TreeCollection part,
                          SelectTree(tree, plan, expand, semantics));
    parts.push_back(std::move(part));
  }
  return MergeDedup(std::move(parts));
}

Result<TreeCollection> Project(const TreeCollection& input,
                               const PatternTree& pattern,
                               const std::vector<ProjectItem>& pl,
                               const ConditionSemantics& semantics) {
  TOSS_ASSIGN_OR_RETURN(EmbeddingPlan plan, EmbeddingPlan::Build(pattern));
  std::vector<TreeCollection> parts;
  parts.reserve(input.size());
  for (const DataTree& tree : input) {
    TOSS_ASSIGN_OR_RETURN(TreeCollection part,
                          ProjectTree(tree, plan, pl, semantics));
    parts.push_back(std::move(part));
  }
  return MergeDedup(std::move(parts));
}

TreeCollection Product(const TreeCollection& left,
                       const TreeCollection& right) {
  TreeCollection out;
  out.reserve(left.size() * right.size());
  for (const DataTree& a : left) {
    for (const DataTree& b : right) {
      DataTree tree;
      NodeId root = tree.CreateRoot(kProductRootTag);
      tree.CopySubtree(a, a.root(), root);
      tree.CopySubtree(b, b.root(), root);
      out.push_back(std::move(tree));
    }
  }
  return out;
}

Result<TreeCollection> GroupBy(const TreeCollection& input,
                               const PatternTree& pattern, int group_label,
                               const std::vector<int>& sl,
                               const ConditionSemantics& semantics) {
  if (pattern.IndexOfLabel(group_label) < 0) {
    return Status::InvalidArgument("GroupBy: label $" +
                                   std::to_string(group_label) +
                                   " is not a pattern node");
  }
  TOSS_ASSIGN_OR_RETURN(EmbeddingPlan plan, EmbeddingPlan::Build(pattern));
  std::set<int> expand(sl.begin(), sl.end());
  std::vector<std::vector<GroupedWitness>> parts;
  parts.reserve(input.size());
  for (const DataTree& tree : input) {
    TOSS_ASSIGN_OR_RETURN(
        std::vector<GroupedWitness> part,
        GroupByTree(tree, plan, group_label, expand, semantics));
    parts.push_back(std::move(part));
  }
  return AssembleGroups(std::move(parts));
}

TreeCollection Union(const TreeCollection& left,
                     const TreeCollection& right) {
  TreeCollection out;
  TreeDeduper dedup(&out);
  for (const DataTree& t : left) dedup.Add(t);
  for (const DataTree& t : right) dedup.Add(t);
  return out;
}

namespace {

/// Left trees, deduplicated, that do (`keep_shared`) or do not occur in
/// `right`.
TreeCollection FilterByRight(const TreeCollection& left,
                             const TreeCollection& right, bool keep_shared) {
  TreeSet right_set;
  for (size_t i = 0; i < right.size(); ++i) {
    right_set.Add(i, right[i].StructuralHash());
  }
  TreeCollection out;
  TreeDeduper dedup(&out);
  for (const DataTree& t : left) {
    if (right_set.Contains(right, t, t.StructuralHash()) == keep_shared) {
      dedup.Add(t);
    }
  }
  return out;
}

}  // namespace

TreeCollection Intersect(const TreeCollection& left,
                         const TreeCollection& right) {
  return FilterByRight(left, right, /*keep_shared=*/true);
}

TreeCollection Difference(const TreeCollection& left,
                          const TreeCollection& right) {
  return FilterByRight(left, right, /*keep_shared=*/false);
}

}  // namespace toss::tax
