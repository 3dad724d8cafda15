// Pattern-tree embeddings and witness trees (paper Section 2.1.1).
//
// An embedding h maps pattern nodes to data nodes preserving pc/ad edges,
// such that the image satisfies the selection condition. Each embedding
// induces a witness tree: the image nodes, connected by closest-ancestor
// edges, in source document order.
//
// Enumeration is backtracking over pattern nodes in parent-before-child
// order, with single-node atoms from conjunctive context pushed down as
// candidate filters (the classic selection-pushdown optimization); every
// complete mapping is then checked against the conjuncts no filter covers.
//
// When the data tree carries a tag index (DataTree::BuildTagIndex; built
// automatically by FromXml) and a pattern node's conjunctive atoms pin its
// tag to a literal -- or to a disjunction of literals, the shape SEO
// expansion produces -- candidates are drawn from the index instead of
// scanning the whole tree (root nodes) and edge candidates are filtered by
// tag before any condition evaluation runs (pc/ad nodes). Candidate order
// is preserved exactly, so results are byte-identical to the naive
// enumeration, including the order of embeddings.
//
// All of that is derived from the pattern alone, so it is compiled once per
// query into an EmbeddingPlan and reused for every document the query
// visits; FindEmbeddings plans and runs in one call.

#ifndef TOSS_TAX_EMBEDDING_H_
#define TOSS_TAX_EMBEDDING_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "tax/condition.h"
#include "tax/data_tree.h"
#include "tax/label_map.h"
#include "tax/pattern_tree.h"

namespace toss::tax {

/// A total mapping from pattern node labels to data nodes.
struct Embedding {
  LabelMap mapping;
};

/// A pattern compiled for enumeration: per pattern node, its single-label
/// prefilter atoms and the tags its conjunctive atoms pin it to, lowered
/// to interned ids. Holds pointers into the pattern, which
/// must outlive the plan.
///
/// Id lowering probes the process dictionary (Interner::Find) once, when
/// the plan is built, and drops a tag no tree can carry yet: every indexed
/// tree interned its tags in BuildTagIndex. So a plan is sound for trees
/// indexed before it was built, and for the whole query over a collection:
/// store::Collection interns every tag of a document (UpdatePostings)
/// before the document becomes visible, and decoded trees carry the same
/// tags.
class EmbeddingPlan {
 public:
  /// Validates `pattern` and compiles it.
  static Result<EmbeddingPlan> Build(const PatternTree& pattern);

  const PatternTree& pattern() const { return *pattern_; }

  /// Enumerates all embeddings of the pattern into `tree` whose witness
  /// satisfies the pattern's condition under `semantics`, in the naive
  /// enumeration's order.
  Result<std::vector<Embedding>> Run(const DataTree& tree,
                                     const ConditionSemantics& semantics) const;

  /// Per pattern node (by index): what enumeration pushes down.
  struct NodePlan {
    std::vector<const Condition*> prefilters;  ///< single-label atoms
    /// True when conjunctive atoms pin the node to a set of tags.
    bool pinned = false;
    /// The pinned tags the dictionary knows, interned, ascending.
    std::vector<SymbolId> tag_ids;
  };
  const NodePlan& node(size_t index) const { return nodes_[index]; }

  /// The condition's conjuncts that no prefilter checks, in evaluation
  /// order. A complete embedding passed every prefilter, and an atom's
  /// value depends only on the nodes it names, so the final check
  /// evaluates these alone: the condition's verdict, error included.
  const std::vector<const Condition*>& residual() const { return residual_; }

 private:
  explicit EmbeddingPlan(const PatternTree& pattern) : pattern_(&pattern) {}

  const PatternTree* pattern_;
  std::vector<NodePlan> nodes_;
  std::vector<const Condition*> residual_;
};

/// Enumerates all embeddings of `pattern` into `tree` whose witness
/// satisfies the pattern's condition under `semantics` (plans and runs).
Result<std::vector<Embedding>> FindEmbeddings(
    const PatternTree& pattern, const DataTree& tree,
    const ConditionSemantics& semantics);

/// Builds the witness tree induced by `h`. Data subtrees of nodes
/// h(l), l in `expand_labels`, are included wholesale (selection's SL
/// semantics); pass {} for the bare witness.
DataTree BuildWitnessTree(const PatternTree& pattern, const DataTree& tree,
                          const Embedding& h,
                          const std::set<int>& expand_labels);

// --- Structural-join support -----------------------------------------------
//
// The twig-join engine (tax/twig_join.h) decomposes a join pattern into the
// root's child subtrees, enumerates each subtree's partial matches once per
// document, and merges them across the two operand collections. The pieces
// below expose the enumerator's machinery so that decomposition reproduces
// the full enumeration byte for byte: identical candidate order, identical
// prefilter pushdown, identical witness construction.

struct PartialMatchOptions {
  /// The head's edge from the (elided) product root is parent-child, so its
  /// image must be the tree root; otherwise (ancestor-descendant) the head
  /// ranges over every node in ascending id order.
  bool head_must_be_root = false;
};

/// Partial matches per subtree and document beyond which the join engine
/// falls back to the pairwise join: such postings would cost more to
/// materialize and merge than the pairwise scan they replace.
inline constexpr size_t kMaxPostingsPerSubtree = 100000;

/// Enumerates mappings of the plan's pattern subtree rooted at node index
/// `head` into `tree`, with the full enumeration's candidate order and
/// prefilter pushdown but WITHOUT the final condition check (the join
/// engine completes mappings across trees first). Each tuple holds the
/// images of the subtree's pattern nodes in ascending pattern-index order
/// (head first). Enumeration stops after kMaxPostingsPerSubtree + 1
/// tuples, so a result of that size means "too many".
Result<std::vector<std::vector<NodeId>>> FindPartialMatches(
    const EmbeddingPlan& plan, size_t head, const DataTree& tree,
    const ConditionSemantics& semantics, const PartialMatchOptions& options);

/// Conjunctive-context tag constraints per label: a bare tag-equality atom
/// pins a label to one tag; an Or of same-label tag equalities (the shape
/// SEO expansion yields) pins it to a set; multiple constraints intersect.
/// The enumerator's pushdown policy, shared with the join engine.
std::map<int, std::set<std::string>> CollectConjunctiveTagFilters(
    const Condition& condition);

/// Atoms in conjunctive context referencing exactly one label, grouped by
/// label (the enumerator's candidate prefilters). Pointers alias nodes of
/// `condition`.
std::map<int, std::vector<const Condition*>> CollectConjunctivePrefilters(
    const Condition& condition);

/// Appends the witness induced by `witness_nodes` under `src_id` to `out`
/// below `out_parent` (kInvalidNode = build as `out`'s root), expanding
/// `expand_nodes` subtrees wholesale. The recursive core of
/// BuildWitnessTree, exposed for witnesses spanning two source trees.
void AppendWitness(const DataTree& src, NodeId src_id,
                   const std::set<NodeId>& witness_nodes,
                   const std::set<NodeId>& expand_nodes, DataTree* out,
                   NodeId out_parent);

}  // namespace toss::tax

#endif  // TOSS_TAX_EMBEDDING_H_
