// The naive reference evaluator the equivalence tests hold the executor to.
//
// It runs the TAX operators (tax::Select / Project / GroupBy, and a join as
// tax::Select over tax::Product) over every live document of a collection,
// decoded afresh from its XML without a tag index: no tag pruning, no
// positional labels, no symbol ids. Its semantics compare texts only: ids
// are dropped from literals too, and under TOSS ~ / isa / part_of call
// Seo::Similar and Seo::Leq, never SimilarSym / LeqSym. No pushdown plan,
// prepared cache, twig join or value filter takes part. Every engine,
// index and fast path must return its answers byte for byte (SameAnswer).

#ifndef TOSS_TESTS_REFERENCE_EVAL_H_
#define TOSS_TESTS_REFERENCE_EVAL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/seo_semantics.h"
#include "store/database.h"
#include "tax/operators.h"
#include "tax/tax_semantics.h"

namespace toss::reference {

/// A copy of `tree` without its tag index, hence without symbol ids and
/// positional labels. Node ids are unchanged.
tax::DataTree Unindexed(const tax::DataTree& tree);

/// `v` without its interned id.
inline tax::TermValue Text(tax::TermValue v) {
  v.symbol = kInvalidSymbol;
  return v;
}

/// Condition semantics on texts alone: TAX without an SEO, otherwise TOSS
/// over `seo` and `types`.
class Semantics final : public tax::ConditionSemantics {
 public:
  explicit Semantics(const core::Seo* seo = nullptr,
                     const core::TypeSystem* types = nullptr)
      : seo_(seo), types_(types), toss_(seo, types) {}

  Result<bool> Compare(const tax::TermValue& x, tax::CondOp op,
                       const tax::TermValue& y) const override {
    return base().Compare(Text(x), op, Text(y));
  }
  Result<bool> Similar(const tax::TermValue& x,
                       const tax::TermValue& y) const override {
    if (seo_ == nullptr) return tax_.Similar(Text(x), Text(y));
    return seo_->Similar(x.text, y.text);
  }
  Result<bool> Related(const std::string& relation, const tax::TermValue& x,
                       const tax::TermValue& y) const override;
  Result<bool> InstanceOf(const tax::TermValue& x,
                          const tax::TermValue& y) const override {
    return base().InstanceOf(Text(x), Text(y));
  }
  Result<bool> SubtypeOf(const tax::TermValue& x,
                         const tax::TermValue& y) const override {
    return base().SubtypeOf(Text(x), Text(y));
  }

 private:
  const tax::ConditionSemantics& base() const {
    if (seo_ == nullptr) return tax_;
    return toss_;
  }

  const core::Seo* seo_;
  const core::TypeSystem* types_;
  tax::TaxSemantics tax_;
  core::SeoSemantics toss_;
};

/// The evaluator over one database, TAX or TOSS as core::QueryExecutor's
/// constructor selects.
class Evaluator {
 public:
  explicit Evaluator(const store::Database* db, const core::Seo* seo = nullptr,
                     const core::TypeSystem* types = nullptr)
      : db_(db), semantics_(seo, types) {}

  /// The live documents of `collection` in DocId order, unindexed.
  Result<tax::TreeCollection> Documents(const std::string& collection) const;

  Result<tax::TreeCollection> Select(const std::string& collection,
                                     const tax::PatternTree& pattern,
                                     const std::vector<int>& sl) const {
    TOSS_ASSIGN_OR_RETURN(tax::TreeCollection docs, Documents(collection));
    return tax::Select(docs, pattern, sl, semantics_);
  }
  Result<tax::TreeCollection> Project(
      const std::string& collection, const tax::PatternTree& pattern,
      const std::vector<tax::ProjectItem>& pl) const {
    TOSS_ASSIGN_OR_RETURN(tax::TreeCollection docs, Documents(collection));
    return tax::Project(docs, pattern, pl, semantics_);
  }
  Result<tax::TreeCollection> GroupBy(const std::string& collection,
                                      const tax::PatternTree& pattern,
                                      int group_label,
                                      const std::vector<int>& sl) const {
    TOSS_ASSIGN_OR_RETURN(tax::TreeCollection docs, Documents(collection));
    return tax::GroupBy(docs, pattern, group_label, sl, semantics_);
  }
  Result<tax::TreeCollection> Join(const std::string& left,
                                   const std::string& right,
                                   const tax::PatternTree& pattern,
                                   const std::vector<int>& sl) const {
    TOSS_ASSIGN_OR_RETURN(tax::TreeCollection l, Documents(left));
    TOSS_ASSIGN_OR_RETURN(tax::TreeCollection r, Documents(right));
    return tax::Select(tax::Product(l, r), pattern, sl, semantics_);
  }

 private:
  const store::Database* db_;
  Semantics semantics_;
};

/// Each tree as XML, in order: the form answers are compared in.
std::vector<std::string> Render(const tax::TreeCollection& trees);

/// Success when both answers render identically, or both failed with the
/// same status code.
::testing::AssertionResult SameAnswer(const Result<tax::TreeCollection>& got,
                                      const Result<tax::TreeCollection>& want);

}  // namespace toss::reference

#endif  // TOSS_TESTS_REFERENCE_EVAL_H_
