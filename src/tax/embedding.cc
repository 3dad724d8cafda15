#include "tax/embedding.h"

#include <algorithm>
#include <map>

namespace toss::tax {

namespace {

/// Atoms usable as per-node candidate filters: atoms in conjunctive context
/// referencing exactly one pattern label.
void CollectSingleLabelAtoms(
    const Condition& c,
    std::map<int, std::vector<const Condition*>>* by_label) {
  if (c.kind == Condition::Kind::kAnd) {
    for (const auto& child : c.children) {
      CollectSingleLabelAtoms(*child, by_label);
    }
    return;
  }
  if (c.kind != Condition::Kind::kAtom) return;
  auto labels = c.ReferencedLabels();
  if (labels.size() == 1) {
    (*by_label)[labels[0]].push_back(&c);
  }
}

/// The leaves of the And-tree at the top of `c`, left to right: the order
/// in which evaluating `c` visits them.
void CollectConjuncts(const Condition& c, std::vector<const Condition*>* out) {
  if (c.kind != Condition::Kind::kAnd) {
    out->push_back(&c);
    return;
  }
  for (const auto& child : c.children) CollectConjuncts(*child, out);
}

/// True when `atom` is `$n.tag = "literal"` (either orientation) with a
/// plain string literal whose exact-string evaluation cannot error and
/// cannot involve glob matching on the literal side. Mirrors the executor's
/// pushdown policy: atoms whose evaluation may raise (typed literals) or
/// match non-textually ('*' literals) never participate in pruning.
bool ExactTagLiteral(const Condition& atom, int* label, std::string* tag) {
  if (atom.op != CondOp::kEq) return false;
  const CondTerm *node = nullptr, *lit = nullptr;
  if (atom.lhs.kind == CondTerm::Kind::kNodeTag &&
      atom.rhs.kind == CondTerm::Kind::kTypedValue) {
    node = &atom.lhs;
    lit = &atom.rhs;
  } else if (atom.rhs.kind == CondTerm::Kind::kNodeTag &&
             atom.lhs.kind == CondTerm::Kind::kTypedValue) {
    node = &atom.rhs;
    lit = &atom.lhs;
  } else {
    return false;
  }
  if (!lit->value_type.empty() && lit->value_type != kStringType) {
    return false;  // typed literal: comparison may convert or error
  }
  if (lit->text.find('*') != std::string::npos) return false;
  *label = node->node_label;
  *tag = lit->text;
  return true;
}

class Enumerator {
 public:
  Enumerator(const EmbeddingPlan& plan, const DataTree& tree,
             const ConditionSemantics& semantics)
      : plan_(plan),
        pattern_(plan.pattern()),
        tree_(tree),
        semantics_(semantics),
        filter_tags_(tree.TagFilterable()) {}

  /// Partial-match mode: assigns only `subset` (ascending pattern indexes
  /// forming the subtree of subset[0]) and collects image tuples instead of
  /// running the final condition check.
  Enumerator(const EmbeddingPlan& plan, const std::vector<size_t>& subset,
             bool head_must_be_root, const DataTree& tree,
             const ConditionSemantics& semantics)
      : Enumerator(plan, tree, semantics) {
    subset_ = &subset;
    head_must_be_root_ = head_must_be_root;
  }

  Result<std::vector<Embedding>> Run() {
    if (pattern_.empty() || tree_.empty()) return std::vector<Embedding>{};
    TOSS_RETURN_NOT_OK(Assign(0));
    return std::move(results_);
  }

  Result<std::vector<std::vector<NodeId>>> RunPartial() {
    if (pattern_.empty() || tree_.empty()) {
      return std::vector<std::vector<NodeId>>{};
    }
    TOSS_RETURN_NOT_OK(Assign(0));
    return std::move(tuples_);
  }

 private:
  /// A node stays a candidate when its tag is allowed, or contains '*'
  /// (glob equality lets a data-side wildcard match any literal). One array
  /// load + binary search over u32s.
  bool TagAllowed(NodeId v, const std::vector<SymbolId>& allowed) const {
    SymbolId t = tree_.TagId(v);
    return std::binary_search(allowed.begin(), allowed.end(), t) ||
           Interner::Global().HasStar(t);
  }

  /// Index-seeded candidates with ids in [lo, hi), ascending. Per-tag lists
  /// are disjoint ('*'-free literals never collide with wildcard tags), so
  /// a concatenate-and-sort merge is exact.
  std::vector<NodeId> SeedFromIndex(const std::vector<SymbolId>& allowed,
                                    NodeId lo, NodeId hi) const {
    std::vector<NodeId> out;
    auto take = [&](const std::vector<NodeId>& list) {
      auto begin = std::lower_bound(list.begin(), list.end(), lo);
      auto end = std::lower_bound(begin, list.end(), hi);
      out.insert(out.end(), begin, end);
    };
    for (SymbolId tag : allowed) {
      if (const std::vector<NodeId>* list = tree_.NodesWithTagId(tag)) {
        take(*list);
      }
    }
    take(tree_.WildcardTagNodes());
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Checks the prefilter atoms of pattern node `index` against a partial
  /// mapping that already contains its label.
  Result<bool> PassesPrefilters(size_t index) {
    const std::vector<const Condition*>& atoms = plan_.node(index).prefilters;
    if (atoms.empty()) return true;
    EmbeddingView view{&tree_, &current_.mapping};
    for (const Condition* atom : atoms) {
      TOSS_ASSIGN_OR_RETURN(bool ok, EvalCondition(*atom, view, semantics_));
      if (!ok) return false;
    }
    return true;
  }

  size_t SlotCount() const {
    return subset_ != nullptr ? subset_->size() : pattern_.node_count();
  }

  Status Assign(size_t slot) {
    if (slot == SlotCount()) {
      if (subset_ != nullptr) {
        std::vector<NodeId> tuple(subset_->size());
        for (size_t j = 0; j < subset_->size(); ++j) {
          tuple[j] = current_.mapping.Get(pattern_.node((*subset_)[j]).label);
        }
        tuples_.push_back(std::move(tuple));
        return Status::OK();
      }
      EmbeddingView view{&tree_, &current_.mapping};
      for (const Condition* conjunct : plan_.residual()) {
        TOSS_ASSIGN_OR_RETURN(bool ok,
                              EvalCondition(*conjunct, view, semantics_));
        if (!ok) return Status::OK();
      }
      results_.push_back(current_);
      return Status::OK();
    }
    const size_t index = subset_ != nullptr ? (*subset_)[slot] : slot;
    const PatternNode& pnode = pattern_.node(index);
    const EmbeddingPlan::NodePlan& nplan = plan_.node(index);
    // Non-null when the node is pinned and the tree's index may prune.
    const std::vector<SymbolId>* allowed =
        filter_tags_ && nplan.pinned ? &nplan.tag_ids : nullptr;
    auto node_allowed = [&](NodeId v) { return TagAllowed(v, *allowed); };
    auto seed = [&](NodeId lo, NodeId hi) {
      return SeedFromIndex(*allowed, lo, hi);
    };
    const bool is_head = subset_ != nullptr ? slot == 0 : pnode.parent < 0;
    // Candidate enumeration order always matches the naive scan (ascending
    // ids at the root, child order on pc edges, preorder on ad edges), so
    // pruning never reorders the resulting embeddings.
    std::vector<NodeId> candidates;
    if (is_head && subset_ != nullptr && head_must_be_root_) {
      // The head hangs off the elided product root by a pc edge, so within
      // this operand tree its image can only be the root -- subject to the
      // same tag filter any pc candidate faces.
      if (allowed == nullptr || node_allowed(0)) {
        candidates.push_back(0);
      }
    } else if (is_head) {
      if (allowed != nullptr) {
        candidates = seed(0, static_cast<NodeId>(tree_.size()));
      } else {
        candidates.reserve(tree_.size());
        for (NodeId v = 0; v < tree_.size(); ++v) candidates.push_back(v);
      }
    } else {
      NodeId parent_image =
          current_.mapping.Get(pattern_.node(pnode.parent).label);
      if (pnode.edge_from_parent == EdgeKind::kPc) {
        const std::vector<NodeId>& kids = tree_.node(parent_image).children;
        if (allowed != nullptr) {
          for (NodeId c : kids) {
            if (node_allowed(c)) candidates.push_back(c);
          }
        } else {
          candidates = kids;
        }
      } else if (allowed != nullptr && tree_.HasPreorderIds()) {
        // Preorder ids: the subtree is a contiguous range, and ascending id
        // order within it *is* preorder, so the index prunes ad edges too.
        candidates = seed(parent_image + 1, tree_.SubtreeEnd(parent_image));
      } else if (allowed != nullptr) {
        for (NodeId v : tree_.Descendants(parent_image)) {
          if (node_allowed(v)) candidates.push_back(v);
        }
      } else {
        candidates = tree_.Descendants(parent_image);
      }
    }
    for (NodeId cand : candidates) {
      if (tuples_.size() > kMaxPostingsPerSubtree) break;
      current_.mapping.Set(pnode.label, cand);
      TOSS_ASSIGN_OR_RETURN(bool pass, PassesPrefilters(index));
      if (pass) {
        TOSS_RETURN_NOT_OK(Assign(slot + 1));
      }
      current_.mapping.Erase(pnode.label);
    }
    return Status::OK();
  }

  const EmbeddingPlan& plan_;
  const PatternTree& pattern_;
  const DataTree& tree_;
  const ConditionSemantics& semantics_;
  /// The tree's tag index may prune candidates. A tag-filterable tree
  /// always carries symbol ids (DataTree::BuildTagIndex).
  const bool filter_tags_;
  const std::vector<size_t>* subset_ = nullptr;  ///< partial-match mode
  bool head_must_be_root_ = false;
  Embedding current_;
  std::vector<Embedding> results_;
  std::vector<std::vector<NodeId>> tuples_;
};

}  // namespace

void AppendWitness(const DataTree& src, NodeId src_id,
                   const std::set<NodeId>& witness_nodes,
                   const std::set<NodeId>& expand_nodes, DataTree* out,
                   NodeId out_parent) {
  bool is_witness = witness_nodes.count(src_id) > 0;
  NodeId next_parent = out_parent;
  if (is_witness) {
    if (expand_nodes.count(src_id)) {
      // SL semantics: the whole data subtree comes along.
      out->CopySubtree(src, src_id, out_parent);
      return;
    }
    const DataNode& n = src.node(src_id);
    NodeId id = (out_parent == kInvalidNode)
                    ? out->CreateRoot(n.tag, n.content)
                    : out->AppendChild(out_parent, n.tag, n.content);
    out->node(id).tag_type = n.tag_type;
    out->node(id).content_type = n.content_type;
    out->node(id).provenance = n.provenance;
    next_parent = id;
  }
  for (NodeId c : src.node(src_id).children) {
    AppendWitness(src, c, witness_nodes, expand_nodes, out, next_parent);
  }
}

std::map<int, std::vector<const Condition*>> CollectConjunctivePrefilters(
    const Condition& condition) {
  std::map<int, std::vector<const Condition*>> out;
  CollectSingleLabelAtoms(condition, &out);
  return out;
}

namespace {

void RestrictFilter(std::map<int, std::set<std::string>>* filters, int label,
                    std::set<std::string> tags) {
  auto [it, inserted] = filters->emplace(label, std::move(tags));
  if (inserted) return;
  std::set<std::string> merged;
  std::set_intersection(it->second.begin(), it->second.end(), tags.begin(),
                        tags.end(), std::inserter(merged, merged.begin()));
  it->second = std::move(merged);
}

void CollectTagFiltersRec(const Condition& c,
                          std::map<int, std::set<std::string>>* filters) {
  if (c.kind == Condition::Kind::kAnd) {
    for (const auto& child : c.children) CollectTagFiltersRec(*child, filters);
    return;
  }
  int label = 0;
  std::string tag;
  if (c.kind == Condition::Kind::kAtom) {
    if (ExactTagLiteral(c, &label, &tag)) {
      RestrictFilter(filters, label, {std::move(tag)});
    }
    return;
  }
  if (c.kind != Condition::Kind::kOr || c.children.empty()) return;
  std::set<std::string> tags;
  int common_label = 0;
  for (const auto& child : c.children) {
    if (child->kind != Condition::Kind::kAtom ||
        !ExactTagLiteral(*child, &label, &tag)) {
      return;
    }
    if (tags.empty()) {
      common_label = label;
    } else if (label != common_label) {
      return;
    }
    tags.insert(std::move(tag));
  }
  RestrictFilter(filters, common_label, std::move(tags));
}

}  // namespace

std::map<int, std::set<std::string>> CollectConjunctiveTagFilters(
    const Condition& condition) {
  std::map<int, std::set<std::string>> out;
  CollectTagFiltersRec(condition, &out);
  return out;
}

Result<EmbeddingPlan> EmbeddingPlan::Build(const PatternTree& pattern) {
  TOSS_RETURN_NOT_OK(pattern.Validate());
  EmbeddingPlan plan(pattern);
  std::map<int, std::vector<const Condition*>> prefilters =
      CollectConjunctivePrefilters(pattern.condition());
  const std::map<int, std::set<std::string>> tag_filters =
      CollectConjunctiveTagFilters(pattern.condition());
  Interner& interner = Interner::Global();
  std::set<const Condition*> prefiltered;
  plan.nodes_.resize(pattern.node_count());
  for (size_t i = 0; i < pattern.node_count(); ++i) {
    NodePlan& node = plan.nodes_[i];
    const int label = pattern.node(i).label;
    if (auto it = prefilters.find(label); it != prefilters.end()) {
      node.prefilters = it->second;
      prefiltered.insert(it->second.begin(), it->second.end());
    }
    auto it = tag_filters.find(label);
    if (it == tag_filters.end()) continue;
    // A literal the dictionary has never seen matches no indexed node and
    // is dropped, so the id list can be empty (only '*' tags remain
    // candidates); see the class comment for why that holds per query.
    for (const std::string& tag : it->second) {
      if (auto sym = interner.Find(tag)) node.tag_ids.push_back(*sym);
    }
    std::sort(node.tag_ids.begin(), node.tag_ids.end());
    node.pinned = true;
  }
  std::vector<const Condition*> conjuncts;
  CollectConjuncts(pattern.condition(), &conjuncts);
  for (const Condition* conjunct : conjuncts) {
    if (!prefiltered.count(conjunct)) plan.residual_.push_back(conjunct);
  }
  return plan;
}

Result<std::vector<Embedding>> EmbeddingPlan::Run(
    const DataTree& tree, const ConditionSemantics& semantics) const {
  return Enumerator(*this, tree, semantics).Run();
}

Result<std::vector<std::vector<NodeId>>> FindPartialMatches(
    const EmbeddingPlan& plan, size_t head, const DataTree& tree,
    const ConditionSemantics& semantics, const PartialMatchOptions& options) {
  const PatternTree& pattern = plan.pattern();
  // Subtree indexes, ascending: parents precede children in pattern-index
  // order, so ascending order is exactly the relative order the full
  // enumeration assigns these nodes in.
  std::vector<size_t> subset;
  std::vector<size_t> stack{head};
  while (!stack.empty()) {
    size_t cur = stack.back();
    stack.pop_back();
    subset.push_back(cur);
    for (int c : pattern.node(cur).children) {
      stack.push_back(static_cast<size_t>(c));
    }
  }
  std::sort(subset.begin(), subset.end());
  return Enumerator(plan, subset, options.head_must_be_root, tree, semantics)
      .RunPartial();
}

Result<std::vector<Embedding>> FindEmbeddings(
    const PatternTree& pattern, const DataTree& tree,
    const ConditionSemantics& semantics) {
  TOSS_ASSIGN_OR_RETURN(EmbeddingPlan plan, EmbeddingPlan::Build(pattern));
  return plan.Run(tree, semantics);
}

DataTree BuildWitnessTree(const PatternTree& pattern, const DataTree& tree,
                          const Embedding& h,
                          const std::set<int>& expand_labels) {
  std::set<NodeId> witness_nodes;
  for (const auto& [label, node] : h.mapping) witness_nodes.insert(node);
  std::set<NodeId> expand_nodes;
  for (int label : expand_labels) {
    NodeId mapped = h.mapping.Get(label);
    if (mapped != kInvalidNode) expand_nodes.insert(mapped);
  }
  DataTree out;
  // The pattern root's image is an ancestor-or-self of every image node, so
  // starting the walk there covers the whole witness set.
  NodeId start = h.mapping.Get(pattern.node(0).label);
  AppendWitness(tree, start, witness_nodes, expand_nodes, &out, kInvalidNode);
  return out;
}

}  // namespace toss::tax
