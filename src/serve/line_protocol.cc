#include "serve/line_protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace dfs::serve {
namespace {

// ---- Flat JSON scanner ----------------------------------------------

struct Scanner {
  const std::string& text;
  size_t pos = 0;

  void SkipSpace() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\r')) {
      ++pos;
    }
  }
  bool AtEnd() {
    SkipSpace();
    return pos >= text.size();
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  char Peek() {
    SkipSpace();
    return pos < text.size() ? text[pos] : '\0';
  }
};

StatusOr<std::string> ParseString(Scanner& scanner) {
  if (!scanner.Consume('"')) return InvalidArgumentError("expected '\"'");
  std::string out;
  while (scanner.pos < scanner.text.size()) {
    const char c = scanner.text[scanner.pos++];
    if (c == '"') return out;
    if (c == '\\') {
      if (scanner.pos >= scanner.text.size()) break;
      const char escaped = scanner.text[scanner.pos++];
      switch (escaped) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        default:
          return InvalidArgumentError(std::string("bad escape \\") + escaped);
      }
      continue;
    }
    out.push_back(c);
  }
  return InvalidArgumentError("unterminated string");
}

StatusOr<JsonValue> ParseValue(Scanner& scanner) {
  const char c = scanner.Peek();
  if (c == '"') {
    auto text = ParseString(scanner);
    if (!text.ok()) return text.status();
    return JsonValue::String(*std::move(text));
  }
  if (c == 't' || c == 'f') {
    const bool value = c == 't';
    const std::string word = value ? "true" : "false";
    if (scanner.text.compare(scanner.pos, word.size(), word) != 0) {
      return InvalidArgumentError("bad literal");
    }
    scanner.pos += word.size();
    return JsonValue::Bool(value);
  }
  if (c == '{' || c == '[') {
    return InvalidArgumentError("nested values are not part of the protocol");
  }
  // Number.
  const size_t start = scanner.pos;
  size_t end = start;
  while (end < scanner.text.size() &&
         (std::isdigit(static_cast<unsigned char>(scanner.text[end])) ||
          scanner.text[end] == '-' || scanner.text[end] == '+' ||
          scanner.text[end] == '.' || scanner.text[end] == 'e' ||
          scanner.text[end] == 'E')) {
    ++end;
  }
  if (end == start) return InvalidArgumentError("expected a value");
  try {
    size_t used = 0;
    const double value =
        std::stod(scanner.text.substr(start, end - start), &used);
    if (used != end - start) return InvalidArgumentError("bad number");
    scanner.pos = end;
    return JsonValue::Number(value);
  } catch (const std::exception&) {
    return InvalidArgumentError("bad number");
  }
}

std::string EscapeString(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string FormatNumber(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

bool GetOptionalBool(const JsonObject& object, const std::string& key) {
  auto it = object.find(key);
  return it != object.end() && it->second.kind == JsonValue::Kind::kBool &&
         it->second.bool_value;
}

}  // namespace

JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.kind = Kind::kString;
  v.string_value = std::move(value);
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind = Kind::kNumber;
  v.number_value = value;
  return v;
}

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.kind = Kind::kBool;
  v.bool_value = value;
  return v;
}

StatusOr<JsonObject> ParseJsonLine(const std::string& line) {
  Scanner scanner{line};
  if (!scanner.Consume('{')) {
    return InvalidArgumentError("a request line must be a JSON object");
  }
  JsonObject object;
  if (scanner.Consume('}')) {
    if (!scanner.AtEnd()) return InvalidArgumentError("trailing characters");
    return object;
  }
  while (true) {
    auto key = ParseString(scanner);
    if (!key.ok()) return key.status();
    if (!scanner.Consume(':')) return InvalidArgumentError("expected ':'");
    auto value = ParseValue(scanner);
    if (!value.ok()) return value.status();
    object[*key] = *std::move(value);
    if (scanner.Consume(',')) continue;
    if (scanner.Consume('}')) break;
    return InvalidArgumentError("expected ',' or '}'");
  }
  if (!scanner.AtEnd()) return InvalidArgumentError("trailing characters");
  return object;
}

std::string WriteJsonLine(const JsonObject& object) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : object) {
    if (!first) out += ",";
    first = false;
    out += "\"" + EscapeString(key) + "\":";
    switch (value.kind) {
      case JsonValue::Kind::kString:
        out += "\"" + EscapeString(value.string_value) + "\"";
        break;
      case JsonValue::Kind::kNumber:
        out += FormatNumber(value.number_value);
        break;
      case JsonValue::Kind::kBool:
        out += value.bool_value ? "true" : "false";
        break;
    }
  }
  out += "}";
  return out;
}

StatusOr<std::string> GetString(const JsonObject& object,
                                const std::string& key) {
  auto it = object.find(key);
  if (it == object.end()) return InvalidArgumentError("missing key: " + key);
  if (it->second.kind != JsonValue::Kind::kString) {
    return InvalidArgumentError("key is not a string: " + key);
  }
  return it->second.string_value;
}

StatusOr<double> GetNumber(const JsonObject& object, const std::string& key) {
  auto it = object.find(key);
  if (it == object.end()) return InvalidArgumentError("missing key: " + key);
  if (it->second.kind != JsonValue::Kind::kNumber) {
    return InvalidArgumentError("key is not a number: " + key);
  }
  return it->second.number_value;
}

StatusOr<bool> GetBool(const JsonObject& object, const std::string& key) {
  auto it = object.find(key);
  if (it == object.end()) return InvalidArgumentError("missing key: " + key);
  if (it->second.kind != JsonValue::Kind::kBool) {
    return InvalidArgumentError("key is not a boolean: " + key);
  }
  return it->second.bool_value;
}

std::optional<double> GetOptionalNumber(const JsonObject& object,
                                        const std::string& key) {
  auto it = object.find(key);
  if (it == object.end() || it->second.kind != JsonValue::Kind::kNumber) {
    return std::nullopt;
  }
  return it->second.number_value;
}

StatusOr<ml::ModelKind> ParseModelKind(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "lr") return ml::ModelKind::kLogisticRegression;
  if (lower == "nb") return ml::ModelKind::kNaiveBayes;
  if (lower == "dt") return ml::ModelKind::kDecisionTree;
  if (lower == "svm") return ml::ModelKind::kLinearSvm;
  return InvalidArgumentError("unknown model: " + name +
                              " (expected LR, NB, DT or SVM)");
}

StatusOr<Request> ParseRequestLine(const std::string& line) {
  auto object = ParseJsonLine(line);
  if (!object.ok()) return object.status();
  auto op_name = GetString(*object, "op");
  if (!op_name.ok()) return op_name.status();
  const std::string op = ToLower(*op_name);

  Request request;
  if (op == "ping") {
    request.op = Request::Op::kPing;
    return request;
  }
  if (op == "stats") {
    request.op = Request::Op::kStats;
    return request;
  }
  if (op == "metrics") {
    request.op = Request::Op::kMetrics;
    return request;
  }
  if (op == "cache") {
    request.op = Request::Op::kCache;
    return request;
  }
  if (op == "shutdown") {
    request.op = Request::Op::kShutdown;
    return request;
  }
  if (op == "status" || op == "result" || op == "cancel") {
    request.op = op == "status"   ? Request::Op::kStatus
                 : op == "result" ? Request::Op::kResult
                                  : Request::Op::kCancel;
    auto id = GetNumber(*object, "id");
    if (!id.ok()) return id.status();
    if (*id < 1 || *id != std::floor(*id)) {
      return InvalidArgumentError("id must be a positive integer");
    }
    request.id = static_cast<JobId>(*id);
    return request;
  }
  if (op != "submit") return InvalidArgumentError("unknown op: " + op);

  request.op = Request::Op::kSubmit;
  JobRequest& job = request.submit;
  auto dataset = GetString(*object, "dataset");
  if (!dataset.ok()) return dataset.status();
  job.dataset = *dataset;
  if (object->count("model") > 0) {
    auto model_name = GetString(*object, "model");
    if (!model_name.ok()) return model_name.status();
    auto model = ParseModelKind(*model_name);
    if (!model.ok()) return model.status();
    job.model = *model;
  }
  if (object->count("strategy") > 0) {
    auto strategy = GetString(*object, "strategy");
    if (!strategy.ok()) return strategy.status();
    job.strategy = *strategy;
  }

  // Constraints go through the builder so malformed thresholds are caught
  // at the protocol edge. Service default budget is 60 s, not the library
  // default of one hour — a job service wants bounded work items.
  constraints::ConstraintSetBuilder builder;
  builder.MinF1(GetOptionalNumber(*object, "min_f1").value_or(0.7));
  builder.MaxSearchSeconds(
      GetOptionalNumber(*object, "budget").value_or(60.0));
  if (auto v = GetOptionalNumber(*object, "max_features")) {
    builder.MaxFeatureFraction(*v);
  }
  if (auto v = GetOptionalNumber(*object, "min_eo")) {
    builder.MinEqualOpportunity(*v);
  }
  if (auto v = GetOptionalNumber(*object, "min_safety")) {
    builder.MinSafety(*v);
  }
  if (auto v = GetOptionalNumber(*object, "epsilon")) {
    builder.PrivacyEpsilon(*v);
  }
  auto constraint_set = builder.Build();
  if (!constraint_set.ok()) return constraint_set.status();
  job.constraint_set = *constraint_set;

  job.use_hpo = GetOptionalBool(*object, "hpo");
  job.maximize_utility = GetOptionalBool(*object, "utility");
  job.priority =
      static_cast<int>(GetOptionalNumber(*object, "priority").value_or(0.0));
  job.seed = static_cast<uint64_t>(
      GetOptionalNumber(*object, "seed").value_or(42.0));
  return request;
}

std::string FormatSubmitLine(const JobRequest& request) {
  JsonObject object;
  object["op"] = JsonValue::String("submit");
  object["dataset"] = JsonValue::String(request.dataset);
  object["model"] = JsonValue::String(ml::ModelKindToString(request.model));
  object["strategy"] = JsonValue::String(request.strategy);
  const constraints::ConstraintSet& set = request.constraint_set;
  object["min_f1"] = JsonValue::Number(set.min_f1);
  object["budget"] = JsonValue::Number(set.max_search_seconds);
  if (set.max_feature_fraction) {
    object["max_features"] = JsonValue::Number(*set.max_feature_fraction);
  }
  if (set.min_equal_opportunity) {
    object["min_eo"] = JsonValue::Number(*set.min_equal_opportunity);
  }
  if (set.min_safety) {
    object["min_safety"] = JsonValue::Number(*set.min_safety);
  }
  if (set.privacy_epsilon) {
    object["epsilon"] = JsonValue::Number(*set.privacy_epsilon);
  }
  if (request.use_hpo) object["hpo"] = JsonValue::Bool(true);
  if (request.maximize_utility) object["utility"] = JsonValue::Bool(true);
  if (request.priority != 0) {
    object["priority"] = JsonValue::Number(request.priority);
  }
  object["seed"] = JsonValue::Number(static_cast<double>(request.seed));
  return WriteJsonLine(object);
}

}  // namespace dfs::serve
