// The versioned JSON wire protocol: the canonical external form of
// QueryRequest / QueryResponse (DESIGN.md §16 "Network edge & wire
// protocol").
//
// Everything that crosses a process boundary -- the HTTP server in
// src/net/, the load generator in perfbench/, external clients -- speaks
// these documents; in-process callers keep using the
// structs directly. One wire version covers one shape of the protocol:
// /v1 documents carry `"version": 1` (optional on requests, always present
// on responses), and incompatible shape changes bump kWireVersion and the
// URL prefix together.
//
// A /v1 request names either a TOSS-QL text query or one structured
// operator:
//
//   {"text": "SELECT $1 FROM dblp MATCH $1/$2 WHERE ...",
//    "options": {"deadline_ms": 250}}
//
//   {"op": "select", "collection": "dblp",
//    "pattern": {"nodes": [{"parent": 1, "edge": "pc"},
//                          {"parent": 1, "edge": "ad"}],
//                "condition": "$1.tag = \"inproceedings\" & ..."},
//    "sl": [1],
//    "options": {"deadline_ms": 250, "collect_trace": false,
//                "parallelism": 0}}
//
// The pattern's root ($1) is implicit; `nodes` lists the remaining nodes
// in label order, so entry i declares label i+2 as a child of the named
// earlier label. Conditions travel in their parseable text form (the same
// grammar tax::ParseCondition accepts and Condition::ToString emits).
// Mutations use {"op": "insert"|"replace"|"remove", "collection", "key",
// "xml"}. Parsing is strict by default: unknown keys, wrong types,
// out-of-range labels, and fields that do not belong to the named op are
// InvalidArgument, never ignored -- a request that parses is exactly the
// request that executes.
//
// A response always carries the version, a status object, and the answer:
//
//   {"version": 1, "status": {"code": "Ok", "message": ""},
//    "trees": ["<inproceedings>...</inproceedings>"],
//    "stats": {"rewrite_ms": ..., "eval_ms": ..., ...},
//    "queue_wait_ms": 0.0, "prepared_cache_hit": false, "trace": null}
//
// Trees are canonical XML strings (xml::Write), byte-identical to what the
// in-process TossService::Run produces for the same request.

#ifndef TOSS_SERVICE_WIRE_H_
#define TOSS_SERVICE_WIRE_H_

#include <string>
#include <string_view>

#include "common/json.h"
#include "common/result.h"
#include "service/toss_service.h"

namespace toss::service::wire {

/// The protocol generation this build speaks (the "1" in /v1).
inline constexpr int kWireVersion = 1;

/// Serializes a request into its wire document. The cancel token is a
/// process-local pointer and does not travel; everything else round-trips
/// (ParseRequest(RequestToJson(r)) is `r` field for field).
common::JsonValue RequestToJson(const QueryRequest& request);

/// RequestToJson rendered as one compact JSON document.
std::string RequestJson(const QueryRequest& request);

/// Parses a wire document into a QueryRequest. Strict: structural problems
/// are InvalidArgument; an unparseable TOSS-QL `text` or condition string
/// is ParseError.
Result<QueryRequest> ParseRequest(const common::JsonValue& doc);

/// ParseRequest over raw bytes (JSON parse errors become ParseError).
Result<QueryRequest> ParseRequestText(std::string_view text);

/// Serializes a response. Trees are rendered to canonical XML strings; the
/// trace (when collected) is embedded as a JSON object, else null.
common::JsonValue ResponseToJson(const QueryResponse& response);

/// ResponseToJson rendered as one compact JSON document.
std::string ResponseJson(const QueryResponse& response);

}  // namespace toss::service::wire

#endif  // TOSS_SERVICE_WIRE_H_
