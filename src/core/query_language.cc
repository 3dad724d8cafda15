#include "core/query_language.h"

#include <cctype>

#include "common/string_util.h"
#include "tax/condition_parser.h"

namespace toss::core {

namespace {

class QueryParser {
 public:
  explicit QueryParser(std::string_view text) : text_(text) {}

  Result<ParsedQuery> Run() {
    ParsedQuery q;
    if (ConsumeKeyword("SELECT")) {
      q.kind = ParsedQuery::Kind::kSelect;
      TOSS_RETURN_NOT_OK(ParseLabelList(&q.sl));
      if (!ConsumeKeyword("FROM")) return Error("expected FROM");
      TOSS_ASSIGN_OR_RETURN(q.collection, ParseIdent());
      TOSS_RETURN_NOT_OK(ParseMatch(&q.pattern));
      TOSS_RETURN_NOT_OK(ParseWhere(&q.pattern));
      if (ConsumeKeyword("GROUP")) {
        if (!ConsumeKeyword("BY")) return Error("expected BY after GROUP");
        q.kind = ParsedQuery::Kind::kGroupBy;
        TOSS_ASSIGN_OR_RETURN(q.group_label, ParseLabel());
      }
    } else if (ConsumeKeyword("PROJECT")) {
      q.kind = ParsedQuery::Kind::kProject;
      TOSS_RETURN_NOT_OK(ParseProjectList(&q.pl));
      if (!ConsumeKeyword("FROM")) return Error("expected FROM");
      TOSS_ASSIGN_OR_RETURN(q.collection, ParseIdent());
      TOSS_RETURN_NOT_OK(ParseMatch(&q.pattern));
      TOSS_RETURN_NOT_OK(ParseWhere(&q.pattern));
    } else if (ConsumeKeyword("JOIN")) {
      q.kind = ParsedQuery::Kind::kJoin;
      TOSS_ASSIGN_OR_RETURN(q.collection, ParseIdent());
      if (!Consume(",")) return Error("expected ',' between collections");
      TOSS_ASSIGN_OR_RETURN(q.right_collection, ParseIdent());
      TOSS_RETURN_NOT_OK(ParseMatch(&q.pattern));
      TOSS_RETURN_NOT_OK(ParseWhere(&q.pattern));
      if (!ConsumeKeyword("SELECT")) {
        return Error("JOIN requires a trailing SELECT label list");
      }
      TOSS_RETURN_NOT_OK(ParseLabelList(&q.sl));
    } else {
      return Error("expected SELECT, PROJECT or JOIN");
    }
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing input");
    TOSS_RETURN_NOT_OK(q.pattern.Validate());
    TOSS_RETURN_NOT_OK(ValidateLabels(q));
    return q;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError("toss-ql: " + what + " at offset " +
                              std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(std::string_view token) {
    SkipSpace();
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  static bool IsIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-';
  }

  bool ConsumeKeyword(std::string_view keyword) {
    SkipSpace();
    if (pos_ + keyword.size() > text_.size()) return false;
    if (!EqualsIgnoreCase(text_.substr(pos_, keyword.size()), keyword)) {
      return false;
    }
    size_t after = pos_ + keyword.size();
    if (after < text_.size() && IsIdentChar(text_[after])) return false;
    pos_ = after;
    return true;
  }

  /// WHERE must stop the condition text before a trailing SELECT (join);
  /// find the matching keyword outside string literals.
  Result<std::string_view> TakeConditionText() {
    SkipSpace();
    size_t start = pos_;
    bool in_string = false;
    char quote = 0;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (in_string) {
        if (c == '\\') {
          ++pos_;
        } else if (c == quote) {
          in_string = false;
        }
      } else if (c == '"' || c == '\'') {
        in_string = true;
        quote = c;
      } else if ((c == 'S' || c == 's') &&
                 EqualsIgnoreCase(text_.substr(pos_, 6), "SELECT") &&
                 (pos_ + 6 >= text_.size() || !IsIdentChar(text_[pos_ + 6])) &&
                 (pos_ == 0 || !IsIdentChar(text_[pos_ - 1]))) {
        break;
      } else if ((c == 'G' || c == 'g') &&
                 EqualsIgnoreCase(text_.substr(pos_, 5), "GROUP") &&
                 (pos_ + 5 >= text_.size() || !IsIdentChar(text_[pos_ + 5])) &&
                 (pos_ == 0 || !IsIdentChar(text_[pos_ - 1]))) {
        break;
      }
      ++pos_;
    }
    if (in_string) return Error("unterminated string literal in WHERE");
    return text_.substr(start, pos_ - start);
  }

  Result<std::string> ParseIdent() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected identifier");
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<int> ParseLabel() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '$') {
      return Error("expected $label");
    }
    ++pos_;
    size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected label number after $");
    return std::stoi(std::string(text_.substr(start, pos_ - start)));
  }

  Status ParseLabelList(std::vector<int>* out) {
    do {
      TOSS_ASSIGN_OR_RETURN(int label, ParseLabel());
      out->push_back(label);
    } while (Consume(","));
    return Status::OK();
  }

  Status ParseProjectList(std::vector<tax::ProjectItem>* out) {
    do {
      TOSS_ASSIGN_OR_RETURN(int label, ParseLabel());
      tax::ProjectItem item;
      item.label = label;
      item.keep_subtree = Consume("*");
      out->push_back(item);
    } while (Consume(","));
    return Status::OK();
  }

  Status ParseMatch(tax::PatternTree* pattern) {
    if (!ConsumeKeyword("MATCH")) {
      return Error("expected MATCH");
    }
    int root = pattern->AddRoot();
    (void)root;
    int max_label = 1;
    do {
      TOSS_ASSIGN_OR_RETURN(int parent, ParseLabel());
      tax::EdgeKind kind;
      if (Consume("//")) {
        kind = tax::EdgeKind::kAd;
      } else if (Consume("/")) {
        kind = tax::EdgeKind::kPc;
      } else {
        return Error("expected '/' or '//' in MATCH edge");
      }
      TOSS_ASSIGN_OR_RETURN(int child, ParseLabel());
      if (child != max_label + 1) {
        return Error("labels must be introduced in order: expected $" +
                     std::to_string(max_label + 1) + ", got $" +
                     std::to_string(child));
      }
      if (parent < 1 || parent > max_label) {
        return Error("edge parent $" + std::to_string(parent) +
                     " is not a declared label");
      }
      int assigned = pattern->AddChild(parent, kind);
      if (assigned != child) {
        return Error("internal label mismatch");
      }
      max_label = child;
    } while (Consume(","));
    return Status::OK();
  }

  Status ParseWhere(tax::PatternTree* pattern) {
    if (!ConsumeKeyword("WHERE")) {
      return Error("expected WHERE");
    }
    TOSS_ASSIGN_OR_RETURN(std::string_view cond_text, TakeConditionText());
    TOSS_ASSIGN_OR_RETURN(tax::Condition cond,
                          tax::ParseCondition(cond_text));
    pattern->SetCondition(std::move(cond));
    return Status::OK();
  }

  Status ValidateLabels(const ParsedQuery& q) const {
    auto labels = q.pattern.Labels();
    auto known = [&](int l) {
      for (int x : labels) {
        if (x == l) return true;
      }
      return false;
    };
    for (int l : q.sl) {
      if (!known(l)) {
        return Status::ParseError("toss-ql: SELECT label $" +
                                  std::to_string(l) +
                                  " is not a pattern node");
      }
    }
    for (const auto& item : q.pl) {
      if (!known(item.label)) {
        return Status::ParseError("toss-ql: PROJECT label $" +
                                  std::to_string(item.label) +
                                  " is not a pattern node");
      }
    }
    if (q.kind == ParsedQuery::Kind::kJoin &&
        q.pattern.node(0).children.size() < 2) {
      return Status::ParseError(
          "toss-ql: JOIN pattern root needs two child subtrees");
    }
    if (q.kind == ParsedQuery::Kind::kGroupBy && !known(q.group_label)) {
      return Status::ParseError("toss-ql: GROUP BY label $" +
                                std::to_string(q.group_label) +
                                " is not a pattern node");
    }
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<ParsedQuery> ParseQuery(std::string_view text) {
  return QueryParser(text).Run();
}

Result<tax::TreeCollection> ExecuteQuery(const QueryExecutor& executor,
                                         const ParsedQuery& query,
                                         const QueryOptions& options,
                                         ExecStats* stats) {
  switch (query.kind) {
    case ParsedQuery::Kind::kSelect:
      return executor.Select(query.collection, query.pattern, query.sl,
                             options, stats);
    case ParsedQuery::Kind::kProject:
      return executor.Project(query.collection, query.pattern, query.pl,
                              options, stats);
    case ParsedQuery::Kind::kJoin:
      return executor.Join(query.collection, query.right_collection,
                           query.pattern, query.sl, options, stats);
    case ParsedQuery::Kind::kGroupBy:
      return executor.GroupBy(query.collection, query.pattern,
                              query.group_label, query.sl, options, stats);
  }
  return Status::Internal("unreachable query kind");
}

namespace {

/// Finds the index of the ')' matching the '(' at `open`, skipping string
/// literals; npos when unbalanced.
size_t MatchingParen(std::string_view text, size_t open) {
  int depth = 0;
  bool in_string = false;
  char quote = 0;
  for (size_t i = open; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == quote) {
        in_string = false;
      }
    } else if (c == '"' || c == '\'') {
      in_string = true;
      quote = c;
    } else if (c == '(') {
      ++depth;
    } else if (c == ')') {
      if (--depth == 0) return i;
    }
  }
  return std::string_view::npos;
}

}  // namespace

Result<CompoundQuery> ParseCompoundQuery(std::string_view text) {
  CompoundQuery compound;
  size_t pos = 0;
  auto skip_space = [&] {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  };
  skip_space();
  if (pos >= text.size() || text[pos] != '(') {
    // Single unparenthesized query.
    TOSS_ASSIGN_OR_RETURN(ParsedQuery q, ParseQuery(text));
    compound.queries.push_back(std::move(q));
    return compound;
  }
  for (;;) {
    skip_space();
    if (pos >= text.size() || text[pos] != '(') {
      return Status::ParseError("toss-ql: expected '(' at offset " +
                                std::to_string(pos));
    }
    size_t close = MatchingParen(text, pos);
    if (close == std::string_view::npos) {
      return Status::ParseError("toss-ql: unbalanced parentheses");
    }
    TOSS_ASSIGN_OR_RETURN(
        ParsedQuery q, ParseQuery(text.substr(pos + 1, close - pos - 1)));
    compound.queries.push_back(std::move(q));
    pos = close + 1;
    skip_space();
    if (pos >= text.size()) break;
    struct Keyword {
      const char* word;
      CompoundQuery::SetOp op;
    };
    static constexpr Keyword kOps[] = {
        {"UNION", CompoundQuery::SetOp::kUnion},
        {"INTERSECT", CompoundQuery::SetOp::kIntersect},
        {"EXCEPT", CompoundQuery::SetOp::kExcept},
    };
    bool matched = false;
    for (const auto& kw : kOps) {
      size_t len = std::string_view(kw.word).size();
      if (pos + len <= text.size() &&
          EqualsIgnoreCase(text.substr(pos, len), kw.word)) {
        compound.ops.push_back(kw.op);
        pos += len;
        matched = true;
        break;
      }
    }
    if (!matched) {
      return Status::ParseError(
          "toss-ql: expected UNION, INTERSECT or EXCEPT at offset " +
          std::to_string(pos));
    }
  }
  if (compound.ops.size() + 1 != compound.queries.size()) {
    return Status::ParseError("toss-ql: dangling set operator");
  }
  return compound;
}

Result<tax::TreeCollection> ExecuteCompoundQuery(
    const QueryExecutor& executor, const CompoundQuery& compound,
    const QueryOptions& options, ExecStats* stats) {
  if (compound.queries.empty()) {
    return Status::InvalidArgument("empty compound query");
  }
  TOSS_ASSIGN_OR_RETURN(
      tax::TreeCollection acc,
      ExecuteQuery(executor, compound.queries[0], options, stats));
  for (size_t i = 0; i < compound.ops.size(); ++i) {
    TOSS_ASSIGN_OR_RETURN(
        tax::TreeCollection next,
        ExecuteQuery(executor, compound.queries[i + 1], options, stats));
    switch (compound.ops[i]) {
      case CompoundQuery::SetOp::kUnion:
        acc = tax::Union(acc, next);
        break;
      case CompoundQuery::SetOp::kIntersect:
        acc = tax::Intersect(acc, next);
        break;
      case CompoundQuery::SetOp::kExcept:
        acc = tax::Difference(acc, next);
        break;
    }
  }
  return acc;
}

Result<tax::TreeCollection> RunQuery(const QueryExecutor& executor,
                                     std::string_view text,
                                     const QueryOptions& options,
                                     ExecStats* stats) {
  TOSS_ASSIGN_OR_RETURN(CompoundQuery compound, ParseCompoundQuery(text));
  return ExecuteCompoundQuery(executor, compound, options, stats);
}

}  // namespace toss::core
