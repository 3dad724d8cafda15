#include "service/wire.h"

#include <cmath>
#include <set>
#include <utility>

#include "core/query_language.h"
#include "obs/flight_recorder.h"
#include "tax/condition_parser.h"
#include "xml/xml_writer.h"

namespace toss::service::wire {

using common::JsonValue;

namespace {

// --- Strict-parse helpers ----------------------------------------------------

Status Bad(const std::string& what) { return Status::InvalidArgument(what); }

/// Rejects any member of `doc` outside `allowed` -- the strictness
/// guarantee: a misspelled or misplaced field fails loudly instead of
/// silently not applying.
Status CheckKeys(const JsonValue& doc, const std::set<std::string>& allowed,
                 const std::string& where) {
  for (const auto& [key, value] : doc.object()) {
    if (allowed.find(key) == allowed.end()) {
      return Bad("wire: unknown key \"" + key + "\" in " + where);
    }
  }
  return Status::OK();
}

Result<std::string> GetString(const JsonValue& doc, const std::string& key) {
  const JsonValue* v = doc.Get(key);
  if (v == nullptr) return Bad("wire: missing \"" + key + "\"");
  if (!v->is_string()) return Bad("wire: \"" + key + "\" must be a string");
  return v->AsString();
}

Result<int> AsInt(const JsonValue& v, const std::string& what) {
  if (!v.is_number()) return Bad("wire: " + what + " must be an integer");
  const double d = v.AsDouble();
  if (d != std::floor(d) || d < -2147483648.0 || d > 2147483647.0) {
    return Bad("wire: " + what + " must be an integer");
  }
  return static_cast<int>(d);
}

Result<std::vector<int>> GetLabelList(const JsonValue& doc,
                                      const std::string& key) {
  const JsonValue* v = doc.Get(key);
  if (v == nullptr) return Bad("wire: missing \"" + key + "\"");
  if (!v->is_array()) {
    return Bad("wire: \"" + key + "\" must be an array of labels");
  }
  std::vector<int> out;
  out.reserve(v->size());
  for (const JsonValue& e : v->array()) {
    TOSS_ASSIGN_OR_RETURN(int label, AsInt(e, "\"" + key + "\" entry"));
    out.push_back(label);
  }
  return out;
}

// --- Pattern tree ------------------------------------------------------------

const char* EdgeName(tax::EdgeKind e) {
  return e == tax::EdgeKind::kAd ? "ad" : "pc";
}

JsonValue PatternToJson(const tax::PatternTree& pattern) {
  JsonValue nodes = JsonValue::Array();
  // The root is implicit; each remaining node, in creation (= label) order,
  // names its parent by label.
  for (size_t i = 1; i < pattern.node_count(); ++i) {
    const tax::PatternNode& n = pattern.node(i);
    JsonValue entry = JsonValue::Object();
    entry.Set("parent",
              JsonValue::Number(pattern.node(
                  static_cast<size_t>(n.parent)).label));
    entry.Set("edge", JsonValue::String(EdgeName(n.edge_from_parent)));
    nodes.Append(std::move(entry));
  }
  JsonValue out = JsonValue::Object();
  out.Set("nodes", std::move(nodes));
  out.Set("condition", JsonValue::String(pattern.condition().ToString()));
  return out;
}

Result<tax::PatternTree> ParsePattern(const JsonValue& doc) {
  if (!doc.is_object()) return Bad("wire: \"pattern\" must be an object");
  TOSS_RETURN_NOT_OK(CheckKeys(doc, {"nodes", "condition"}, "\"pattern\""));
  const JsonValue* nodes = doc.Get("nodes");
  if (nodes == nullptr || !nodes->is_array()) {
    return Bad("wire: \"pattern\" requires a \"nodes\" array");
  }
  tax::PatternTree pattern;
  pattern.AddRoot();  // $1
  int next_label = 2;
  for (const JsonValue& e : nodes->array()) {
    if (!e.is_object()) return Bad("wire: pattern node must be an object");
    TOSS_RETURN_NOT_OK(CheckKeys(e, {"parent", "edge"}, "pattern node"));
    const JsonValue* parent = e.Get("parent");
    if (parent == nullptr) return Bad("wire: pattern node missing \"parent\"");
    TOSS_ASSIGN_OR_RETURN(int parent_label, AsInt(*parent, "\"parent\""));
    if (parent_label < 1 || parent_label >= next_label) {
      return Bad("wire: pattern node $" + std::to_string(next_label) +
                 " names parent $" + std::to_string(parent_label) +
                 ", which is not an earlier label");
    }
    tax::EdgeKind edge = tax::EdgeKind::kPc;
    if (const JsonValue* ev = e.Get("edge"); ev != nullptr) {
      if (!ev->is_string() ||
          (ev->AsString() != "pc" && ev->AsString() != "ad")) {
        return Bad("wire: pattern \"edge\" must be \"pc\" or \"ad\"");
      }
      if (ev->AsString() == "ad") edge = tax::EdgeKind::kAd;
    }
    pattern.AddChild(parent_label, edge);
    ++next_label;
  }
  if (const JsonValue* cond = doc.Get("condition"); cond != nullptr) {
    if (!cond->is_string()) {
      return Bad("wire: pattern \"condition\" must be a string");
    }
    TOSS_ASSIGN_OR_RETURN(tax::Condition condition,
                          tax::ParseCondition(cond->AsString()));
    pattern.SetCondition(std::move(condition));
  }
  TOSS_RETURN_NOT_OK(pattern.Validate());
  return pattern;
}

// --- Options -----------------------------------------------------------------

Status ParseOptionsInto(const JsonValue& doc, QueryRequest* request) {
  if (!doc.is_object()) return Bad("wire: \"options\" must be an object");
  TOSS_RETURN_NOT_OK(CheckKeys(
      doc, {"deadline_ms", "collect_trace", "parallelism"}, "\"options\""));
  if (const JsonValue* v = doc.Get("deadline_ms"); v != nullptr) {
    TOSS_ASSIGN_OR_RETURN(int ms, AsInt(*v, "\"deadline_ms\""));
    if (ms < 0) return Bad("wire: \"deadline_ms\" must be >= 0");
    request->deadline_ms = static_cast<uint64_t>(ms);
  }
  if (const JsonValue* v = doc.Get("collect_trace"); v != nullptr) {
    if (!v->is_bool()) return Bad("wire: \"collect_trace\" must be a bool");
    request->collect_trace = v->AsBool();
  }
  if (const JsonValue* v = doc.Get("parallelism"); v != nullptr) {
    TOSS_ASSIGN_OR_RETURN(int width, AsInt(*v, "\"parallelism\""));
    if (width < 0) return Bad("wire: \"parallelism\" must be >= 0");
    request->parallelism = static_cast<size_t>(width);
  }
  return Status::OK();
}

JsonValue OptionsToJson(const QueryRequest& request) {
  JsonValue out = JsonValue::Object();
  out.Set("deadline_ms",
          JsonValue::Number(static_cast<double>(request.deadline_ms)));
  out.Set("collect_trace", JsonValue::Bool(request.collect_trace));
  out.Set("parallelism",
          JsonValue::Number(static_cast<double>(request.parallelism)));
  return out;
}

// --- Text queries ------------------------------------------------------------

QueryRequest FromParsedQuery(core::ParsedQuery parsed) {
  switch (parsed.kind) {
    case core::ParsedQuery::Kind::kProject:
      return QueryRequest::Project(std::move(parsed.collection),
                                   std::move(parsed.pattern),
                                   std::move(parsed.pl));
    case core::ParsedQuery::Kind::kJoin:
      return QueryRequest::Join(std::move(parsed.collection),
                                std::move(parsed.right_collection),
                                std::move(parsed.pattern),
                                std::move(parsed.sl));
    case core::ParsedQuery::Kind::kGroupBy:
      return QueryRequest::GroupBy(std::move(parsed.collection),
                                   std::move(parsed.pattern),
                                   parsed.group_label, std::move(parsed.sl));
    case core::ParsedQuery::Kind::kSelect:
      break;
  }
  return QueryRequest::Select(std::move(parsed.collection),
                              std::move(parsed.pattern),
                              std::move(parsed.sl));
}

// --- Per-op serializers ------------------------------------------------------

JsonValue ProjectListToJson(const std::vector<tax::ProjectItem>& pl) {
  JsonValue out = JsonValue::Array();
  for (const tax::ProjectItem& item : pl) {
    JsonValue entry = JsonValue::Object();
    entry.Set("label", JsonValue::Number(item.label));
    entry.Set("keep_subtree", JsonValue::Bool(item.keep_subtree));
    out.Append(std::move(entry));
  }
  return out;
}

JsonValue LabelsToJson(const std::vector<int>& labels) {
  JsonValue out = JsonValue::Array();
  for (int label : labels) out.Append(JsonValue::Number(label));
  return out;
}

Result<std::vector<tax::ProjectItem>> GetProjectList(const JsonValue& doc) {
  const JsonValue* v = doc.Get("pl");
  if (v == nullptr || !v->is_array()) {
    return Bad("wire: \"project\" requires a \"pl\" array");
  }
  std::vector<tax::ProjectItem> out;
  out.reserve(v->size());
  for (const JsonValue& e : v->array()) {
    if (!e.is_object()) return Bad("wire: \"pl\" entry must be an object");
    TOSS_RETURN_NOT_OK(CheckKeys(e, {"label", "keep_subtree"}, "\"pl\" entry"));
    const JsonValue* label = e.Get("label");
    if (label == nullptr) return Bad("wire: \"pl\" entry missing \"label\"");
    tax::ProjectItem item;
    TOSS_ASSIGN_OR_RETURN(item.label, AsInt(*label, "\"pl\" label"));
    if (const JsonValue* keep = e.Get("keep_subtree"); keep != nullptr) {
      if (!keep->is_bool()) return Bad("wire: \"keep_subtree\" must be a bool");
      item.keep_subtree = keep->AsBool();
    }
    out.push_back(item);
  }
  return out;
}

Result<tax::PatternTree> GetPattern(const JsonValue& doc) {
  const JsonValue* v = doc.Get("pattern");
  if (v == nullptr) return Bad("wire: missing \"pattern\"");
  return ParsePattern(*v);
}

}  // namespace

JsonValue RequestToJson(const QueryRequest& request) {
  JsonValue out = JsonValue::Object();
  out.Set("version", JsonValue::Number(kWireVersion));
  out.Set("options", OptionsToJson(request));
  struct Visitor {
    JsonValue& out;
    void operator()(const SelectSpec& s) {
      out.Set("op", JsonValue::String("select"));
      out.Set("collection", JsonValue::String(s.collection));
      out.Set("pattern", PatternToJson(s.pattern));
      out.Set("sl", LabelsToJson(s.sl));
    }
    void operator()(const ProjectSpec& s) {
      out.Set("op", JsonValue::String("project"));
      out.Set("collection", JsonValue::String(s.collection));
      out.Set("pattern", PatternToJson(s.pattern));
      out.Set("pl", ProjectListToJson(s.pl));
    }
    void operator()(const GroupBySpec& s) {
      out.Set("op", JsonValue::String("groupby"));
      out.Set("collection", JsonValue::String(s.collection));
      out.Set("pattern", PatternToJson(s.pattern));
      out.Set("group_label", JsonValue::Number(s.group_label));
      out.Set("sl", LabelsToJson(s.sl));
    }
    void operator()(const JoinSpec& s) {
      out.Set("op", JsonValue::String("join"));
      out.Set("left", JsonValue::String(s.left));
      out.Set("right", JsonValue::String(s.right));
      out.Set("pattern", PatternToJson(s.pattern));
      out.Set("sl", LabelsToJson(s.sl));
    }
    void operator()(const InsertSpec& s) {
      out.Set("op", JsonValue::String("insert"));
      out.Set("collection", JsonValue::String(s.collection));
      out.Set("key", JsonValue::String(s.key));
      out.Set("xml", JsonValue::String(s.xml));
    }
    void operator()(const ReplaceSpec& s) {
      out.Set("op", JsonValue::String("replace"));
      out.Set("collection", JsonValue::String(s.collection));
      out.Set("key", JsonValue::String(s.key));
      out.Set("xml", JsonValue::String(s.xml));
    }
    void operator()(const RemoveSpec& s) {
      out.Set("op", JsonValue::String("remove"));
      out.Set("collection", JsonValue::String(s.collection));
      out.Set("key", JsonValue::String(s.key));
    }
  };
  std::visit(Visitor{out}, request.op);
  return out;
}

std::string RequestJson(const QueryRequest& request) {
  return RequestToJson(request).Dump();
}

Result<QueryRequest> ParseRequest(const JsonValue& doc) {
  if (!doc.is_object()) return Bad("wire: request must be a JSON object");
  if (const JsonValue* v = doc.Get("version"); v != nullptr) {
    TOSS_ASSIGN_OR_RETURN(int version, AsInt(*v, "\"version\""));
    if (version != kWireVersion) {
      return Bad("wire: unsupported version " + std::to_string(version) +
                 " (this build speaks " + std::to_string(kWireVersion) + ")");
    }
  }

  // Text form: the whole operator is one TOSS-QL statement.
  if (const JsonValue* text = doc.Get("text"); text != nullptr) {
    TOSS_RETURN_NOT_OK(
        CheckKeys(doc, {"version", "text", "options"}, "text request"));
    if (!text->is_string()) return Bad("wire: \"text\" must be a string");
    TOSS_ASSIGN_OR_RETURN(core::ParsedQuery parsed,
                          core::ParseQuery(text->AsString()));
    QueryRequest request = FromParsedQuery(std::move(parsed));
    if (const JsonValue* opts = doc.Get("options"); opts != nullptr) {
      TOSS_RETURN_NOT_OK(ParseOptionsInto(*opts, &request));
    }
    return request;
  }

  TOSS_ASSIGN_OR_RETURN(std::string op, GetString(doc, "op"));
  QueryRequest request;
  std::set<std::string> allowed = {"version", "op", "options"};
  if (op == "select") {
    allowed.insert({"collection", "pattern", "sl"});
    TOSS_RETURN_NOT_OK(CheckKeys(doc, allowed, "\"select\" request"));
    TOSS_ASSIGN_OR_RETURN(std::string collection,
                          GetString(doc, "collection"));
    TOSS_ASSIGN_OR_RETURN(tax::PatternTree pattern, GetPattern(doc));
    TOSS_ASSIGN_OR_RETURN(std::vector<int> sl, GetLabelList(doc, "sl"));
    request = QueryRequest::Select(std::move(collection), std::move(pattern),
                                   std::move(sl));
  } else if (op == "project") {
    allowed.insert({"collection", "pattern", "pl"});
    TOSS_RETURN_NOT_OK(CheckKeys(doc, allowed, "\"project\" request"));
    TOSS_ASSIGN_OR_RETURN(std::string collection,
                          GetString(doc, "collection"));
    TOSS_ASSIGN_OR_RETURN(tax::PatternTree pattern, GetPattern(doc));
    TOSS_ASSIGN_OR_RETURN(std::vector<tax::ProjectItem> pl,
                          GetProjectList(doc));
    request = QueryRequest::Project(std::move(collection), std::move(pattern),
                                    std::move(pl));
  } else if (op == "groupby") {
    allowed.insert({"collection", "pattern", "group_label", "sl"});
    TOSS_RETURN_NOT_OK(CheckKeys(doc, allowed, "\"groupby\" request"));
    TOSS_ASSIGN_OR_RETURN(std::string collection,
                          GetString(doc, "collection"));
    TOSS_ASSIGN_OR_RETURN(tax::PatternTree pattern, GetPattern(doc));
    const JsonValue* label = doc.Get("group_label");
    if (label == nullptr) return Bad("wire: missing \"group_label\"");
    TOSS_ASSIGN_OR_RETURN(int group_label, AsInt(*label, "\"group_label\""));
    TOSS_ASSIGN_OR_RETURN(std::vector<int> sl, GetLabelList(doc, "sl"));
    request = QueryRequest::GroupBy(std::move(collection), std::move(pattern),
                                    group_label, std::move(sl));
  } else if (op == "join") {
    allowed.insert({"left", "right", "pattern", "sl"});
    TOSS_RETURN_NOT_OK(CheckKeys(doc, allowed, "\"join\" request"));
    TOSS_ASSIGN_OR_RETURN(std::string left, GetString(doc, "left"));
    TOSS_ASSIGN_OR_RETURN(std::string right, GetString(doc, "right"));
    TOSS_ASSIGN_OR_RETURN(tax::PatternTree pattern, GetPattern(doc));
    TOSS_ASSIGN_OR_RETURN(std::vector<int> sl, GetLabelList(doc, "sl"));
    request = QueryRequest::Join(std::move(left), std::move(right),
                                 std::move(pattern), std::move(sl));
  } else if (op == "insert" || op == "replace") {
    allowed.insert({"collection", "key", "xml"});
    TOSS_RETURN_NOT_OK(CheckKeys(doc, allowed, "\"" + op + "\" request"));
    TOSS_ASSIGN_OR_RETURN(std::string collection,
                          GetString(doc, "collection"));
    TOSS_ASSIGN_OR_RETURN(std::string key, GetString(doc, "key"));
    TOSS_ASSIGN_OR_RETURN(std::string xml, GetString(doc, "xml"));
    request = op == "insert"
                  ? QueryRequest::Insert(std::move(collection), std::move(key),
                                         std::move(xml))
                  : QueryRequest::Replace(std::move(collection),
                                          std::move(key), std::move(xml));
  } else if (op == "remove") {
    allowed.insert({"collection", "key"});
    TOSS_RETURN_NOT_OK(CheckKeys(doc, allowed, "\"remove\" request"));
    TOSS_ASSIGN_OR_RETURN(std::string collection,
                          GetString(doc, "collection"));
    TOSS_ASSIGN_OR_RETURN(std::string key, GetString(doc, "key"));
    request = QueryRequest::Remove(std::move(collection), std::move(key));
  } else {
    return Bad("wire: unknown op \"" + op + "\"");
  }
  if (const JsonValue* opts = doc.Get("options"); opts != nullptr) {
    TOSS_RETURN_NOT_OK(ParseOptionsInto(*opts, &request));
  }
  return request;
}

Result<QueryRequest> ParseRequestText(std::string_view text) {
  TOSS_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(text));
  return ParseRequest(doc);
}

JsonValue ResponseToJson(const QueryResponse& response) {
  JsonValue out = JsonValue::Object();
  out.Set("version", JsonValue::Number(kWireVersion));

  JsonValue status = JsonValue::Object();
  status.Set("code", JsonValue::String(StatusCodeName(response.status.code())));
  status.Set("message", JsonValue::String(response.status.message()));
  out.Set("status", std::move(status));

  JsonValue trees = JsonValue::Array();
  for (const tax::DataTree& tree : response.trees) {
    trees.Append(JsonValue::String(xml::Write(tree.ToXml())));
  }
  out.Set("trees", std::move(trees));

  const core::ExecStats& s = response.stats;
  JsonValue stats = JsonValue::Object();
  stats.Set("rewrite_ms", JsonValue::Number(s.rewrite_ms));
  stats.Set("store_ms", JsonValue::Number(s.store_ms));
  stats.Set("eval_ms", JsonValue::Number(s.eval_ms));
  stats.Set("xpath_queries",
            JsonValue::Number(static_cast<double>(s.xpath_queries)));
  stats.Set("expanded_terms",
            JsonValue::Number(static_cast<double>(s.expanded_terms)));
  stats.Set("candidate_docs",
            JsonValue::Number(static_cast<double>(s.candidate_docs)));
  stats.Set("result_trees",
            JsonValue::Number(static_cast<double>(s.result_trees)));
  stats.Set("prepared_cache_hits",
            JsonValue::Number(static_cast<double>(s.prepared_cache_hits)));
  stats.Set("join_engine",
            JsonValue::String(obs::JoinEngineName(
                static_cast<obs::JoinEngine>(s.join_engine))));
  out.Set("stats", std::move(stats));

  out.Set("queue_wait_ms", JsonValue::Number(response.queue_wait_ms));
  out.Set("prepared_cache_hit", JsonValue::Bool(response.prepared_cache_hit));

  out.Set("trace", response.trace != nullptr ? response.trace->Json()
                                              : JsonValue::Null());
  return out;
}

std::string ResponseJson(const QueryResponse& response) {
  return ResponseToJson(response).Dump();
}

}  // namespace toss::service::wire
