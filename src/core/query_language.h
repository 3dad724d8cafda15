// TOSS-QL: a compact textual query language over the TOSS algebra, so
// queries can be written as strings instead of hand-built pattern trees.
//
// Grammar (keywords case-insensitive; $1 is always the pattern root):
//
//   statement := query
//              | '(' query ')' (setop '(' query ')')*
//   setop    := 'UNION' | 'INTERSECT' | 'EXCEPT'
//   query    := select | project | join
//   select   := 'SELECT' labels 'FROM' IDENT match 'WHERE' condition
//               ('GROUP' 'BY' '$'INT)?
//   project  := 'PROJECT' plist 'FROM' IDENT match 'WHERE' condition
//   join     := 'JOIN' IDENT ',' IDENT match 'WHERE' condition
//               'SELECT' labels
//   match    := 'MATCH' edge (',' edge)*
//   edge     := '$'INT '/' '$'INT        -- parent-child
//             | '$'INT '//' '$'INT       -- ancestor-descendant
//   labels   := '$'INT (',' '$'INT)*
//   plist    := '$'INT '*'? (',' '$'INT '*'?)*   -- '*' keeps the subtree
//   condition: see tax/condition_parser.h
//
// New labels must be introduced in increasing order ($2 before $3, ...),
// each as the child of an already-declared label. For JOIN, $1 is the
// product root (tag tax_prod_root); its first declared child subtree
// describes the left collection's side, the second the right's. The join
// selects over the product, so a node may map into either document of a
// pair (QueryExecutor::Join).
//
// Examples:
//
//   SELECT $1 FROM dblp MATCH $1/$2, $1/$3
//   WHERE $1.tag = "inproceedings" & $2.tag = "author" &
//         $3.tag = "booktitle" & $2.content ~ "Jeffrey Ullman" &
//         $3.content isa "database conference"
//
//   JOIN dblp, sigmod MATCH $1/$2, $2/$3, $1//$4, $4/$5
//   WHERE $1.tag = "tax_prod_root" & $2.tag = "inproceedings" &
//         $3.tag = "title" & $4.tag = "article" & $5.tag = "title" &
//         $3.content ~ $5.content
//   SELECT $2, $4

#ifndef TOSS_CORE_QUERY_LANGUAGE_H_
#define TOSS_CORE_QUERY_LANGUAGE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/query_executor.h"
#include "tax/operators.h"
#include "tax/pattern_tree.h"

namespace toss::core {

/// A parsed TOSS-QL statement.
struct ParsedQuery {
  enum class Kind { kSelect, kProject, kJoin, kGroupBy };
  Kind kind = Kind::kSelect;
  std::string collection;        ///< select/project source; join left
  std::string right_collection;  ///< join right
  tax::PatternTree pattern;
  std::vector<int> sl;                 ///< select/join/groupby
  std::vector<tax::ProjectItem> pl;    ///< project
  int group_label = 0;                 ///< groupby partition label
};

/// Parses a TOSS-QL statement.
Result<ParsedQuery> ParseQuery(std::string_view text);

/// A compound statement: one or more queries folded with the TAX set
/// operators (left-associative). A single query is the trivial compound.
struct CompoundQuery {
  enum class SetOp { kUnion, kIntersect, kExcept };
  std::vector<ParsedQuery> queries;
  std::vector<SetOp> ops;  ///< ops[i] combines result i and query i+1
};

/// Parses a statement that may chain parenthesized queries with
/// UNION / INTERSECT / EXCEPT.
Result<CompoundQuery> ParseCompoundQuery(std::string_view text);

/// Executes a compound statement (set operators use order-preserving tree
/// equality, paper Section 5.1.2).
Result<tax::TreeCollection> ExecuteCompoundQuery(
    const QueryExecutor& executor, const CompoundQuery& compound,
    const QueryOptions& options = {}, ExecStats* stats = nullptr);

/// Executes a parsed statement through `executor`.
Result<tax::TreeCollection> ExecuteQuery(const QueryExecutor& executor,
                                         const ParsedQuery& query,
                                         const QueryOptions& options = {},
                                         ExecStats* stats = nullptr);

/// Convenience: parse + execute.
Result<tax::TreeCollection> RunQuery(const QueryExecutor& executor,
                                     std::string_view text,
                                     const QueryOptions& options = {},
                                     ExecStats* stats = nullptr);

}  // namespace toss::core

#endif  // TOSS_CORE_QUERY_LANGUAGE_H_
