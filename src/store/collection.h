// A collection of XML documents with secondary indexes -- the unit of
// storage of the embedded XML database (the repository's Apache Xindice
// substitute; see DESIGN.md "Substitutions").
//
// One query entry point reads the tag / value / term indexes: PlanDocs
// answers a typed PushdownPlan, the form pattern queries take in phase (ii)
// (DESIGN.md §6) -- one `//tag[preds]` path step per labelled pattern node.
// Each step is answered from the postings where they decide it exactly;
// only documents that survive every step's postings are checked element by
// element (StepMatches), and only for the steps the postings could not
// decide.

#ifndef TOSS_STORE_COLLECTION_H_
#define TOSS_STORE_COLLECTION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "tax/data_tree.h"
#include "xml/xml_document.h"

namespace toss::store {

/// A document's id within its collection: drawn from a counter, never
/// reused, so a Replace yields a fresh id and ids order documents by
/// insertion.
using DocId = uint64_t;

/// Execution counters for one PlanDocs call.
struct QueryStats {
  size_t candidate_docs = 0;  ///< documents satisfying the plan
  size_t scanned_docs = 0;    ///< element checks (step, document) run
  size_t total_docs = 0;      ///< collection size at query time
};

/// One step of a pushdown plan: the document holds an element tagged `tag`
/// whose content satisfies every predicate. Content is the element's own
/// text (its direct text children, as tax::DataTree decodes it), and the
/// predicates follow TAX evaluation -- equality where a '*' in the content
/// globs, CompareScalar ordering, substring containment -- so a plan never
/// drops a document that evaluation could match.
struct PlanStep {
  enum class Order { kLt, kLeq, kGt, kGeq };
  struct Bound {
    Order op = Order::kLt;
    std::string literal;
  };

  std::string tag;
  /// Any-of groups: the content equals at least one value of each group.
  std::vector<std::vector<std::string>> any_of;
  /// Ordering predicates: `content op literal`.
  std::vector<Bound> bounds;
  /// Substrings the content contains.
  std::vector<std::string> contains;

  /// XPath-style rendering for EXPLAIN, e.g. //year[. >= '1999'].
  std::string ToString() const;
};

/// Phase (ii) of a pattern query: one step per labelled pattern node.
using PushdownPlan = std::vector<PlanStep>;

/// The element check: some element of `doc` matches the step's tag (glob-
/// aware, as tag equality evaluates) and its own text satisfies all the
/// step's predicates. PlanDocs runs it where the postings cannot decide.
bool StepMatches(const xml::XmlDocument& doc, const PlanStep& step);

/// What one plan step cost (Collection::PlanDocs).
struct PlanStepStats {
  size_t step = 0;          ///< index into the plan
  size_t candidates = 0;    ///< documents left after this step's postings
  size_t checked_docs = 0;  ///< survivors checked element by element
};

class Collection {
 public:
  explicit Collection(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  /// Live documents.
  size_t size() const { return docs_.size(); }

  /// Adds a document under `key` (unique within the collection). The
  /// document is indexed immediately.
  Result<DocId> Insert(std::string key, xml::XmlDocument doc);

  /// Parses `text` then inserts it.
  Result<DocId> InsertXml(std::string key, std::string_view text);

  /// Removes the document stored under `key`.
  Status Remove(const std::string& key);

  /// Replaces the document stored under `key` (atomic from the reader's
  /// perspective: lookups never observe the key missing). Returns the new
  /// DocId; NotFound when the key is absent.
  Result<DocId> Replace(const std::string& key, xml::XmlDocument doc);

  /// Document lookup by key.
  Result<DocId> FindKey(const std::string& key) const;

  /// The document and key of live document `id`.
  const xml::XmlDocument& document(DocId id) const { return docs_.at(id).doc; }
  const std::string& key(DocId id) const { return docs_.at(id).key; }

  /// Live document ids, ascending (insertion order).
  std::vector<DocId> AllDocs() const;

  /// Live documents satisfying every step of `plan`, ascending; every live
  /// document when the plan is empty. Steps run smallest posting first.
  /// A step is exact from the postings when it is a bare tag (its tag
  /// posting) or its only predicates are any-of groups (the union of the
  /// value postings of the values every group holds). Steps with ranges
  /// or `contains` only prefilter. Documents whose elements the indexes do
  /// not key faithfully for the tag (irregular content, wildcard or
  /// unindexed tags) are never decided by postings. Such documents are
  /// checked element by element, after every step's postings have been
  /// intersected, so only survivors are touched. `stats->scanned_docs`
  /// counts those checks; `step_stats` (optional) receives one entry per
  /// step in execution order.
  std::vector<DocId> PlanDocs(const PushdownPlan& plan,
                              QueryStats* stats = nullptr,
                              std::vector<PlanStepStats>* step_stats =
                                  nullptr) const;

  /// Total serialized byte size of all live documents (the paper's
  /// "data size" axis), computed by serializing each one: a report, not a
  /// hot path.
  size_t ApproxByteSize() const;

  // --- Decoded trees -------------------------------------------------------
  //
  // Algebra evaluation works on tax::DataTree, not raw XML; decoding is the
  // dominant per-document cost once candidates are pruned. Documents are
  // immutable per DocId (Replace allocates a fresh id), so each document
  // keeps its decoded tree once built, shared across queries and worker
  // threads. Remove/Replace erase the dead id's entry, tree included.

  /// The decoded (and tag-indexed) tree of document `id`, decoding it on
  /// first access. Safe to call concurrently.
  std::shared_ptr<const tax::DataTree> DecodedTree(DocId id) const;

  /// DecodedTree calls that found the tree built (hits) or built it
  /// (misses), and the documents holding a built tree (entries).
  struct TreeCacheStats {
    size_t hits = 0;
    size_t misses = 0;
    size_t entries = 0;
  };
  TreeCacheStats GetTreeCacheStats() const;

  /// Aggregate statistics (sizes of the catalog and each index).
  struct Stats {
    size_t live_docs = 0;
    size_t tag_index_entries = 0;
    size_t term_index_entries = 0;
    size_t value_index_keys = 0;
    size_t numeric_index_keys = 0;
    size_t approx_bytes = 0;
  };
  Stats GetStats() const;

  /// Documents containing a `tag` element whose text content lies in
  /// [lo, hi] (absent bound = open side), plus every document holding a
  /// `tag` element whose content the ordered indexes do not key (empty,
  /// longer than 256 bytes, or mixed content). Ordering follows CompareScalar:
  /// when every present bound parses as an integer the numeric index is
  /// scanned (only integer-valued contents can match); pure-string bounds
  /// scan the lexicographic index. Bounds parsing as non-integer numbers
  /// ("3.5") are unsupported (Unsupported status) -- callers fall back to
  /// full evaluation.
  Result<std::vector<DocId>> DocsWithValueInRange(
      std::string_view tag, const std::optional<std::string>& lo,
      const std::optional<std::string>& hi) const;

  /// Live documents containing at least one element tagged with any member
  /// of `tags`, ascending. `tags` are interned SymbolIds (the tag index is
  /// keyed by them), e.g. from tax::TwigJoiner::PruneFilterIds; serves the
  /// join engine's document-level pruning.
  std::vector<DocId> DocsWithAnyTagIds(const std::vector<SymbolId>& tags) const;

  /// Live documents containing at least one element whose tag contains '*'
  /// (such tags match any tag literal under glob equality), plus the
  /// documents with unindexed tags, ascending.
  std::vector<DocId> DocsWithWildcardTag() const;

 private:
  struct Entry {
    std::string key;
    xml::XmlDocument doc;
    /// The decoded tree, built on first DecodedTree call (guarded by
    /// tree_mu_).
    mutable std::shared_ptr<const tax::DataTree> tree = nullptr;
  };
  /// Ordered (tag, value) keys to the sorted postings of their documents.
  using ValueIndex = std::map<std::string, std::vector<DocId>, std::less<>>;

  /// Adds an entry for `key` under the next id, indexed.
  DocId Append(std::string key, xml::XmlDocument doc);
  /// Unindexes entry `id` and erases it: document, key and decoded tree.
  void Retire(DocId id);
  /// Adds (`add`) or erases document `id`'s postings in every index, by
  /// one walk over its elements: removal erases exactly what insertion
  /// added, at a cost bounded by the document, not the index.
  void UpdatePostings(DocId id, bool add);

  /// One plan step resolved against the indexes, without materializing
  /// its postings: candidates are probed against them instead.
  struct StepPostings;
  StepPostings Resolve(const PlanStep& step) const;

  std::string name_;
  /// Live documents only; a retired id's entry is erased.
  std::map<DocId, Entry> docs_;
  DocId next_id_ = 0;
  std::map<std::string, DocId> by_key_;

  // Secondary indexes. Every posting is a sorted vector of live doc ids:
  // a new document's id is the largest yet (next_id_), so indexing
  // appends, removal binary-searches and erases, and a probe is a binary
  // search over contiguous ids. Exact values live in two ordered maps --
  // lexicographic raw keys plus an order-preserving numeric encoding -- so
  // equality lookups and range scans share storage. An emptied posting is
  // dropped, so the indexes equal those built fresh from the live
  // documents.
  // The tag index is keyed by interned SymbolId (every indexed tag joins
  // the process dictionary in UpdatePostings); string lookups go through
  // Interner::Find -- a tag the dictionary has never seen is in no live
  // document. Documents carrying a tag the dictionary could not intern
  // (overflow) land in unindexed_tag_docs_ and are conservatively kept by
  // every tag-based pruning path.
  //
  // irregular_docs_[tag] holds the documents with a `tag` element whose own
  // text (what evaluation compares) is empty, longer than 256 bytes,
  // contains '*', or differs from its full text content (the value index
  // key): for those the value and term postings cannot decide the element.
  // wildcard_tag_docs_ holds documents with a '*' in some tag.
  std::unordered_map<SymbolId, std::vector<DocId>> tag_index_;
  std::vector<DocId> unindexed_tag_docs_;
  std::unordered_map<SymbolId, std::vector<DocId>> irregular_docs_;
  std::vector<DocId> wildcard_tag_docs_;
  std::unordered_map<std::string, std::vector<DocId>> term_index_;
  ValueIndex value_index_;    // ValueKey(tag, content)
  ValueIndex numeric_index_;  // NumericKey(tag, content), integer contents

  // Guards every Entry::tree and the counters below, held only to read or
  // swap a pointer; decoding runs outside it (racing decoders of one DocId
  // build identical trees, and the first one stored wins).
  mutable std::mutex tree_mu_;
  mutable TreeCacheStats tree_stats_;
};

}  // namespace toss::store

#endif  // TOSS_STORE_COLLECTION_H_
