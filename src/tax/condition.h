// Selection conditions (paper Section 5.1.1).
//
// Simple (atomic) conditions have the form `X op Y` where
//   op in { =, !=, <, <=, >, >=, ~, instance_of, isa, subtype_of,
//           part_of, above, below }
// and X, Y are *terms*: node attributes ($n.tag / $n.content), type names,
// or typed values `"v":tau`. Boolean connectives (&, |, !) combine atoms.
//
// Evaluation is parameterized by ConditionSemantics so the same pattern
// machinery serves both algebras:
//  * TaxSemantics (tax/tax_semantics.h) -- plain TAX: exact matching;
//    ontology/similarity operators degrade to the paper's experimental
//    baseline behaviour (exact match for ~, substring "contains" for isa).
//  * SeoSemantics (core/seo_semantics.h) -- TOSS: the similarity enhanced
//    ontology, type hierarchies, and conversion functions.

#ifndef TOSS_TAX_CONDITION_H_
#define TOSS_TAX_CONDITION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "tax/data_tree.h"
#include "tax/label_map.h"

namespace toss::tax {

enum class CondOp {
  kEq,
  kNeq,
  kLt,
  kLeq,
  kGt,
  kGeq,
  kSimilar,     ///< ~  (similarTo)
  kInstanceOf,  ///< value is an instance of a type
  kIsa,         ///< ontology isa relation (terms or types)
  kSubtypeOf,   ///< strictly type-level isa
  kPartOf,      ///< ontology partof relation
  kAbove,       ///< Y below X
  kBelow,       ///< X instance_of Y or X subtype_of Y (transitively)
};

/// Token name of an operator (as accepted by the condition parser).
const char* CondOpName(CondOp op);

/// A term of an atomic condition.
struct CondTerm {
  enum class Kind {
    kNodeTag,      ///< $n.tag
    kNodeContent,  ///< $n.content
    kTypeName,     ///< bare identifier, e.g. year
    kTypedValue,   ///< "v" or "v":tau
  };
  Kind kind = Kind::kTypedValue;
  int node_label = 0;      ///< for kNodeTag / kNodeContent
  std::string text;        ///< type name or literal value
  std::string value_type;  ///< declared type of a literal ("" = string)

  /// Interned id of a *string-typed* literal, computed once at term
  /// construction (Value() / the condition parser). kInvalidSymbol for
  /// node terms, type names, and non-string literals.
  SymbolId symbol = kInvalidSymbol;
};

/// Helpers for building terms programmatically.
CondTerm TagOf(int label);
CondTerm ContentOf(int label);
CondTerm TypeName(std::string name);
CondTerm Value(std::string text, std::string type = "");

/// Boolean combination of atomic conditions.
struct Condition {
  enum class Kind { kAtom, kAnd, kOr, kNot, kTrue };
  Kind kind = Kind::kTrue;

  // kAtom:
  CondTerm lhs;
  CondOp op = CondOp::kEq;
  CondTerm rhs;

  // kAnd / kOr (n-ary) / kNot (unary):
  std::vector<std::shared_ptr<Condition>> children;

  static Condition True();
  static Condition Atom(CondTerm lhs, CondOp op, CondTerm rhs);
  static Condition And(std::vector<Condition> cs);
  static Condition Or(std::vector<Condition> cs);
  static Condition Not(Condition c);

  /// All node labels referenced anywhere in the condition.
  std::vector<int> ReferencedLabels() const;

  /// Parseable text form (round-trips through ParseCondition).
  std::string ToString() const;
};

/// The value of a term under an embedding: its text plus type information
/// (paper: "the value of a term X w.r.t. a mapping h").
struct TermValue {
  std::string text;
  std::string type;          ///< type of the value ("" when X is a type name)
  bool is_type_name = false;

  /// Interned id of `text` when it is a string-typed value whose id is
  /// known (node attribute of an indexed tree, or interned literal);
  /// kInvalidSymbol otherwise. Invariant: symbol != kInvalidSymbol implies
  /// !is_type_name and type == "string", and Interner::Global().Text(symbol)
  /// == text.
  SymbolId symbol = kInvalidSymbol;
};

// --- Symbol fast paths -------------------------------------------------------
//
// Equality in TAX/TOSS is string equality plus '*' globbing -- never numeric
// coercion (tax_semantics.cc CompareValues) -- so interned ids decide most
// equality atoms without touching the texts. A term without an id (a tree
// built without a tag index, a dictionary overflow) takes the text path; the
// tests hold both paths to a reference evaluator that never sees an id.

/// Exact text equality decided from ids alone: true/false when both ids are
/// valid (ids are canonical: equal id <=> equal text), nullopt when either
/// id is missing. Sound for ~ under
/// TaxSemantics and for pre-glob screening -- NOT for glob-aware equality
/// (use SymbolGlobEquality).
std::optional<bool> SymbolTextEquality(const TermValue& x, const TermValue& y);

/// Glob-aware equality decided from ids: like SymbolTextEquality but also
/// nullopt when either term contains '*' and the ids differ (distinct texts
/// may still glob-match). Matches CompareValues kEq semantics exactly:
/// equal ids => equal texts => equal (a pattern always glob-matches
/// itself); unequal star-free ids => unequal.
std::optional<bool> SymbolGlobEquality(const TermValue& x, const TermValue& y);

/// Pluggable meaning of operators. Implementations must be pure
/// (side-effect free); Compare-family calls may return TypeError for
/// ill-typed operands (TOSS well-typedness, Section 5.1.1).
class ConditionSemantics {
 public:
  virtual ~ConditionSemantics() = default;

  /// op in {=, !=, <, <=, >, >=}.
  virtual Result<bool> Compare(const TermValue& x, CondOp op,
                               const TermValue& y) const = 0;
  /// X ~ Y.
  virtual Result<bool> Similar(const TermValue& x,
                               const TermValue& y) const = 0;
  /// X isa/part_of Y over the named relation.
  virtual Result<bool> Related(const std::string& relation,
                               const TermValue& x,
                               const TermValue& y) const = 0;
  /// X instance_of Y.
  virtual Result<bool> InstanceOf(const TermValue& x,
                                  const TermValue& y) const = 0;
  /// X subtype_of Y.
  virtual Result<bool> SubtypeOf(const TermValue& x,
                                 const TermValue& y) const = 0;
};

/// An embedding restricted to what condition evaluation needs: the data
/// tree plus the label -> node mapping.
struct EmbeddingView {
  const DataTree* tree = nullptr;
  const LabelMap* mapping = nullptr;
};

/// A resolved label image plus the interned ids of its tag/content when the
/// backing tree carries them (DataTree::HasSymbolIds).
struct ResolvedNode {
  const DataNode* node = nullptr;
  SymbolId tag_symbol = kInvalidSymbol;
  SymbolId content_symbol = kInvalidSymbol;
};

/// Label resolution decoupled from a single DataTree: the structural join
/// engine evaluates conditions over mappings that span two source trees
/// (plus a synthetic product root), so the node behind a label cannot be
/// expressed as one (tree, LabelMap) pair.
class NodeSource {
 public:
  virtual ~NodeSource() = default;
  /// The image node of `label`, or nullptr when the label is unmapped.
  virtual const DataNode* Resolve(int label) const = 0;
  /// Resolve plus interned ids; sources backed by indexed trees override
  /// this to surface the ids. Default: node only.
  virtual ResolvedNode ResolveIds(int label) const {
    return ResolvedNode{Resolve(label), kInvalidSymbol, kInvalidSymbol};
  }
};

/// Extracts the TermValue of `term` under `h` (paper's X^h / type(X)^h).
Result<TermValue> EvalTerm(const CondTerm& term, const EmbeddingView& h);
Result<TermValue> EvalTerm(const CondTerm& term, const NodeSource& source);

/// Recursive satisfaction (paper's EI, WT |= c).
Result<bool> EvalCondition(const Condition& c, const EmbeddingView& h,
                           const ConditionSemantics& semantics);
Result<bool> EvalCondition(const Condition& c, const NodeSource& source,
                           const ConditionSemantics& semantics);

}  // namespace toss::tax

#endif  // TOSS_TAX_CONDITION_H_
