#ifndef DFS_SERVE_LINE_PROTOCOL_H_
#define DFS_SERVE_LINE_PROTOCOL_H_

#include <map>
#include <optional>
#include <string>

#include "serve/job.h"
#include "util/statusor.h"

namespace dfs::serve {

/// The wire format of the DFS job service: one request per line, one
/// response per line, each a *flat* JSON object (string / number / boolean
/// values only — no nesting, no arrays). Examples:
///
///   -> {"op":"submit","dataset":"COMPAS","model":"LR","strategy":"auto",
///       "min_f1":0.7,"min_eo":0.9,"budget":1.5,"priority":2}
///   <- {"ok":true,"id":7,"state":"QUEUED"}
///   -> {"op":"status","id":7}
///   <- {"ok":true,"id":7,"state":"RUNNING","queue_seconds":0.01,...}
///   -> {"op":"result","id":7}
///   <- {"ok":true,"state":"DONE","success":true,"features":"0 3 9",...}
///   -> {"op":"cancel","id":7}        -> {"op":"stats"}
///   -> {"op":"ping"}                 -> {"op":"shutdown"}
///   -> {"op":"metrics"}   // dfs::obs registry snapshot, flattened
///   -> {"op":"cache"}     // shared eval-cache counters + occupancy
///
/// Errors: {"ok":false,"error":"<machine tag>","message":"<detail>"}.
/// The "queue_full" error tag is the backpressure signal; clients should
/// back off and retry instead of reconnecting.
///
/// The complete wire contract (field tables per verb, error codes, the
/// 1 MiB line cap, polling semantics, transcripts) is docs/PROTOCOL.md.

/// One scalar value of the flat JSON object.
struct JsonValue {
  enum class Kind { kString, kNumber, kBool };
  Kind kind = Kind::kString;
  std::string string_value;
  double number_value = 0.0;
  bool bool_value = false;

  static JsonValue String(std::string value);
  static JsonValue Number(double value);
  static JsonValue Bool(bool value);
};

/// Flat JSON object; std::map keeps serialized key order deterministic.
using JsonObject = std::map<std::string, JsonValue>;

/// Parses one line holding a flat JSON object. Strings support the
/// \" \\ \/ \n \t \r escapes; numbers are doubles; values must be scalars.
StatusOr<JsonObject> ParseJsonLine(const std::string& line);

/// Serializes `object` as a single-line JSON object (no trailing newline).
std::string WriteJsonLine(const JsonObject& object);

// Typed field accessors (InvalidArgument on missing key / wrong type).
StatusOr<std::string> GetString(const JsonObject& object,
                                const std::string& key);
StatusOr<double> GetNumber(const JsonObject& object, const std::string& key);
StatusOr<bool> GetBool(const JsonObject& object, const std::string& key);
std::optional<double> GetOptionalNumber(const JsonObject& object,
                                        const std::string& key);

/// A parsed client request.
struct Request {
  enum class Op { kSubmit, kStatus, kResult, kCancel, kStats, kMetrics,
                  kCache, kPing, kShutdown };
  Op op = Op::kPing;
  /// Valid when op == kSubmit.
  JobRequest submit;
  /// Valid for status/result/cancel.
  JobId id = 0;
};

/// Parses a request line (op dispatch + submit-field validation via
/// ConstraintSetBuilder, so malformed constraints fail at the protocol
/// edge, not inside a worker).
StatusOr<Request> ParseRequestLine(const std::string& line);

/// Client-side encoder for a submit request (inverse of ParseRequestLine).
std::string FormatSubmitLine(const JobRequest& request);

/// "LR" / "NB" / "DT" / "SVM" (case-insensitive) to ModelKind.
StatusOr<ml::ModelKind> ParseModelKind(const std::string& name);

}  // namespace dfs::serve

#endif  // DFS_SERVE_LINE_PROTOCOL_H_
