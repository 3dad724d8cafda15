// The TAX algebra operators (paper Section 2.1.2), parameterized by
// ConditionSemantics so the identical code implements both TAX (with
// TaxSemantics) and TOSS (with core::SeoSemantics) -- the paper's algebra
// extension changes only condition satisfaction, not operator shape.

#ifndef TOSS_TAX_OPERATORS_H_
#define TOSS_TAX_OPERATORS_H_

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "tax/data_tree.h"
#include "tax/embedding.h"
#include "tax/pattern_tree.h"

namespace toss::tax {

/// Tag of the fresh root created by Product (paper Fig. 7).
inline constexpr const char* kProductRootTag = "tax_prod_root";

/// Selection sigma_{P,SL}: all witness trees of P, with the data subtrees of
/// SL-labelled images included wholesale. Duplicate witness trees (from
/// distinct embeddings) are returned once.
Result<TreeCollection> Select(const TreeCollection& input,
                              const PatternTree& pattern,
                              const std::vector<int>& sl,
                              const ConditionSemantics& semantics);

/// One projection-list entry: keep nodes matched by `label`; with
/// `keep_subtree` their entire data subtree survives.
struct ProjectItem {
  int label = 0;
  bool keep_subtree = false;
};

/// Projection pi_{P,PL}: per input tree, the nodes matched by PL labels
/// under any embedding, with closest-ancestor structure preserved; each
/// top-most surviving node roots its own output tree (paper Fig. 5).
Result<TreeCollection> Project(const TreeCollection& input,
                               const PatternTree& pattern,
                               const std::vector<ProjectItem>& pl,
                               const ConditionSemantics& semantics);

/// Cross product: one tree per input pair, under a fresh kProductRootTag
/// root with the pair as left/right children. A condition join is Select
/// over Product (paper Example 6).
TreeCollection Product(const TreeCollection& left,
                       const TreeCollection& right);

/// Tag of the root of each group tree produced by GroupBy.
inline constexpr const char* kGroupRootTag = "tax_group_root";

/// Grouping (from the original TAX algebra): partitions the witness trees
/// of `pattern` by the *content* of the node matched by `group_label`.
/// Each group becomes one output tree:
///
///   <tax_group_root>                 -- content = the grouping value
///     <witness tree 1/> <witness tree 2/> ...
///
/// Witness trees carry the SL expansion of `sl`, and groups appear in
/// first-occurrence order of their grouping value. The group root's
/// content holds the grouping value; its provenance holds the member
/// count (a simple aggregate).
Result<TreeCollection> GroupBy(const TreeCollection& input,
                               const PatternTree& pattern, int group_label,
                               const std::vector<int>& sl,
                               const ConditionSemantics& semantics);

/// Set-theoretic operators under order-preserving tree equality
/// (paper Section 5.1.2). Results keep left-operand order; duplicates
/// within a result are collapsed.
TreeCollection Union(const TreeCollection& left, const TreeCollection& right);
TreeCollection Intersect(const TreeCollection& left,
                         const TreeCollection& right);
TreeCollection Difference(const TreeCollection& left,
                          const TreeCollection& right);

// --- Per-tree primitives ---------------------------------------------------
//
// Each collection operator above factors into an independent per-input-tree
// step plus an order-preserving merge. The executor compiles the pattern
// once (EmbeddingPlan), fans the per-tree steps out across a worker pool
// and merges in input order, which reproduces the sequential output
// byte-for-byte: the merge is the one place duplicates are collapsed, as
// the sequential global dedup would.

/// Witness trees of the plan's pattern in `tree`, in embedding order, not
/// deduplicated (MergeDedup collapses duplicates within and across trees).
Result<TreeCollection> SelectTree(const DataTree& tree,
                                  const EmbeddingPlan& plan,
                                  const std::set<int>& expand,
                                  const ConditionSemantics& semantics);

/// Projection of a single tree: the induced forest over PL-matched nodes,
/// not deduplicated (MergeDedup collapses duplicates).
Result<TreeCollection> ProjectTree(const DataTree& tree,
                                   const EmbeddingPlan& plan,
                                   const std::vector<ProjectItem>& pl,
                                   const ConditionSemantics& semantics);

/// One grouped witness: the grouping value paired with the witness tree.
struct GroupedWitness {
  std::string value;
  DataTree witness;
};

/// Grouping values and witnesses of a single tree, in embedding order, not
/// deduplicated (group membership dedup spans trees; AssembleGroups does it).
Result<std::vector<GroupedWitness>> GroupByTree(
    const DataTree& tree, const EmbeddingPlan& plan, int group_label,
    const std::set<int>& expand, const ConditionSemantics& semantics);

/// Builds the GroupBy output from per-tree grouped witnesses concatenated
/// in input order: groups in first-occurrence order of their value, members
/// deduplicated per group, count aggregate in the group root's provenance.
TreeCollection AssembleGroups(std::vector<std::vector<GroupedWitness>> parts);

/// Join witnesses of one left tree against the whole right collection
/// (passed as pointers so callers can share cached decoded trees), in
/// right-collection order, duplicates within the result collapsed.
Result<TreeCollection> JoinTreeWithRight(
    const DataTree& left_tree, const std::vector<const DataTree*>& right,
    const PatternTree& pattern, const std::set<int>& expand,
    const ConditionSemantics& semantics);

/// Concatenates per-tree results in order, collapsing duplicates globally
/// (first occurrence wins).
TreeCollection MergeDedup(std::vector<TreeCollection> parts);

/// Trees of a caller-owned collection keyed by StructuralHash, with Equals
/// settling a hash collision. Holds indexes, so the collection may grow
/// between calls.
class TreeSet {
 public:
  /// True when a tree equal to `tree` (whose hash is `hash`) was added.
  bool Contains(const TreeCollection& trees, const DataTree& tree,
                uint64_t hash) const;

  /// Adds the tree at `index` of the collection, whose hash is `hash`.
  void Add(size_t index, uint64_t hash) { by_hash_.emplace(hash, index); }

 private:
  std::unordered_multimap<uint64_t, size_t> by_hash_;
};

/// Appends non-empty trees to `out` unless an equal tree was appended
/// through it before: the duplicate filter of every operator, MergeDedup
/// and the twig join. No canonical string is built.
class TreeDeduper {
 public:
  explicit TreeDeduper(TreeCollection* out) : out_(out) {}

  void Add(DataTree tree) {
    const uint64_t hash = tree.StructuralHash();
    if (Admit(tree, hash)) out_->push_back(std::move(tree));
  }

  /// Appends a copy of `tree`, whose StructuralHash is `hash`, unless it is
  /// a duplicate.
  void AddCopy(const DataTree& tree, uint64_t hash) {
    if (Admit(tree, hash)) out_->push_back(tree);
  }

 private:
  /// Records `tree` at the end of `out_` when it is new and non-empty.
  bool Admit(const DataTree& tree, uint64_t hash);

  TreeCollection* out_;
  TreeSet seen_;
};

}  // namespace toss::tax

#endif  // TOSS_TAX_OPERATORS_H_
