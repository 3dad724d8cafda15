#include "reference_eval.h"

#include "xml/xml_writer.h"

namespace toss::reference {

tax::DataTree Unindexed(const tax::DataTree& tree) {
  tax::DataTree copy = tree;
  if (!copy.empty()) copy.node(copy.root());  // mutable access drops it
  return copy;
}

Result<bool> Semantics::Related(const std::string& relation,
                                const tax::TermValue& x,
                                const tax::TermValue& y) const {
  if (seo_ == nullptr) return tax_.Related(relation, Text(x), Text(y));
  if (seo_->Leq(relation, x.text, y.text)) return true;
  // isa also holds along the subtype order of declared, non-string types.
  return relation == ontology::kIsa && !x.is_type_name && !y.is_type_name &&
         !x.type.empty() && !y.type.empty() &&
         !(x.type == "string" && y.type == "string") &&
         types_->IsSubtype(x.type, y.type);
}

Result<tax::TreeCollection> Evaluator::Documents(
    const std::string& collection) const {
  TOSS_ASSIGN_OR_RETURN(const store::Collection* coll,
                        db_->GetCollection(collection));
  tax::TreeCollection out;
  for (store::DocId id : coll->AllDocs()) {
    const xml::XmlDocument& doc = coll->document(id);
    out.push_back(Unindexed(tax::DataTree::FromXml(doc, doc.root())));
  }
  return out;
}

std::vector<std::string> Render(const tax::TreeCollection& trees) {
  std::vector<std::string> out;
  for (const tax::DataTree& t : trees) out.push_back(xml::Write(t.ToXml()));
  return out;
}

::testing::AssertionResult SameAnswer(
    const Result<tax::TreeCollection>& got,
    const Result<tax::TreeCollection>& want) {
  if (!got.ok() || !want.ok()) {
    if (!got.ok() && !want.ok() && got.status().code() == want.status().code()) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << (got.ok() ? "ok" : got.status().ToString())
           << ", the reference: "
           << (want.ok() ? "ok" : want.status().ToString());
  }
  const std::vector<std::string> a = Render(*got);
  const std::vector<std::string> b = Render(*want);
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  if (i == a.size() && i == b.size()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a.size() << " trees, the reference has " << b.size()
         << "; first difference at " << i << ": "
         << (i < a.size() ? a[i] : "(none)") << " vs "
         << (i < b.size() ? b[i] : "(none)");
}

}  // namespace toss::reference
