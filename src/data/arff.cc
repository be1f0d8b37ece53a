#include "data/arff.h"

#include <cstdlib>
#include <sstream>

#include "util/file.h"
#include "util/string_util.h"

namespace dfs::data {
namespace {

struct ArffAttribute {
  std::string name;
  bool numeric = false;
  std::vector<std::string> nominal_values;  // empty for numeric/string
};

// Strips optional single or double quotes.
std::string Unquote(const std::string& text) {
  if (text.size() >= 2 &&
      ((text.front() == '\'' && text.back() == '\'') ||
       (text.front() == '"' && text.back() == '"'))) {
    return text.substr(1, text.size() - 2);
  }
  return text;
}

// Splits a data row on commas, honoring quotes.
std::vector<std::string> SplitDataRow(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  char quote = '\0';
  for (char c : line) {
    if (quote != '\0') {
      field += c;
      if (c == quote) quote = '\0';
    } else if (c == '\'' || c == '"') {
      field += c;
      quote = c;
    } else if (c == ',') {
      fields.push_back(Strip(field));
      field.clear();
    } else {
      field += c;
    }
  }
  fields.push_back(Strip(field));
  return fields;
}

// Parses "@attribute name type"; type is NUMERIC/REAL/INTEGER/STRING/DATE
// or a {v1,v2,...} nominal list.
StatusOr<ArffAttribute> ParseAttribute(const std::string& line) {
  // Skip the keyword.
  size_t pos = line.find_first_of(" \t");
  if (pos == std::string::npos) {
    return InvalidArgumentError("malformed @attribute line: " + line);
  }
  std::string rest = Strip(line.substr(pos));
  // Name: quoted or whitespace-delimited.
  ArffAttribute attribute;
  if (!rest.empty() && (rest[0] == '\'' || rest[0] == '"')) {
    const char quote = rest[0];
    const size_t end = rest.find(quote, 1);
    if (end == std::string::npos) {
      return InvalidArgumentError("unterminated attribute name: " + line);
    }
    attribute.name = rest.substr(1, end - 1);
    rest = Strip(rest.substr(end + 1));
  } else {
    const size_t end = rest.find_first_of(" \t");
    if (end == std::string::npos) {
      return InvalidArgumentError("attribute without type: " + line);
    }
    attribute.name = rest.substr(0, end);
    rest = Strip(rest.substr(end));
  }
  if (rest.empty()) {
    return InvalidArgumentError("attribute without type: " + line);
  }
  if (rest[0] == '{') {
    const size_t close = rest.rfind('}');
    if (close == std::string::npos) {
      return InvalidArgumentError("unterminated nominal list: " + line);
    }
    for (const std::string& value :
         Split(rest.substr(1, close - 1), ',')) {
      attribute.nominal_values.push_back(Unquote(Strip(value)));
    }
    if (attribute.nominal_values.empty()) {
      return InvalidArgumentError("empty nominal list: " + line);
    }
    return attribute;
  }
  const std::string type = ToLower(Strip(rest));
  if (type == "numeric" || type == "real" || type == "integer") {
    attribute.numeric = true;
    return attribute;
  }
  if (type == "string" || StartsWith(type, "date")) {
    return attribute;  // treated as categorical with open vocabulary
  }
  return InvalidArgumentError("unsupported attribute type: " + rest);
}

}  // namespace

StatusOr<RawDataset> ParseArff(const std::string& text,
                               const std::string& target_attribute,
                               const std::string& sensitive_attribute) {
  std::vector<ArffAttribute> attributes;
  std::string relation = "arff";
  bool in_data = false;
  std::vector<std::vector<std::string>> rows;

  std::istringstream stream(text);
  std::string raw_line;
  while (std::getline(stream, raw_line)) {
    const std::string line = Strip(raw_line);
    if (line.empty() || line[0] == '%') continue;
    if (!in_data) {
      const std::string lower = ToLower(line);
      if (StartsWith(lower, "@relation")) {
        const size_t pos = line.find_first_of(" \t");
        if (pos != std::string::npos) {
          relation = Unquote(Strip(line.substr(pos)));
        }
      } else if (StartsWith(lower, "@attribute")) {
        DFS_ASSIGN_OR_RETURN(ArffAttribute attribute, ParseAttribute(line));
        attributes.push_back(std::move(attribute));
      } else if (StartsWith(lower, "@data")) {
        in_data = true;
      } else {
        return InvalidArgumentError("unexpected header line: " + line);
      }
      continue;
    }
    if (line[0] == '{') {
      return UnimplementedError("sparse ARFF data is not supported");
    }
    std::vector<std::string> fields = SplitDataRow(line);
    if (fields.size() != attributes.size()) {
      return InvalidArgumentError(
          "data row has " + std::to_string(fields.size()) +
          " fields, expected " + std::to_string(attributes.size()));
    }
    rows.push_back(std::move(fields));
  }
  if (!in_data) return InvalidArgumentError("missing @data section");
  if (attributes.empty()) return InvalidArgumentError("no attributes");
  if (rows.empty()) return InvalidArgumentError("no data rows");

  // Locate target and sensitive attributes; both must be binary nominal.
  auto find_binary = [&](const std::string& name) -> StatusOr<int> {
    for (size_t i = 0; i < attributes.size(); ++i) {
      if (attributes[i].name != name) continue;
      if (attributes[i].nominal_values.size() != 2) {
        return InvalidArgumentError("attribute '" + name +
                                    "' must be nominal with two values");
      }
      return static_cast<int>(i);
    }
    return NotFoundError("attribute not found: " + name);
  };
  DFS_ASSIGN_OR_RETURN(const int target_index, find_binary(target_attribute));
  DFS_ASSIGN_OR_RETURN(const int sensitive_index,
                       find_binary(sensitive_attribute));

  auto binary_value = [&](const std::string& cell,
                          int attribute_index) -> StatusOr<int> {
    const std::string value = Unquote(cell);
    const auto& nominal = attributes[attribute_index].nominal_values;
    if (value == nominal[0]) return 0;
    if (value == nominal[1]) return 1;
    return InvalidArgumentError("value '" + value +
                                "' not in the declared nominal domain of " +
                                attributes[attribute_index].name);
  };

  RawDataset dataset;
  dataset.name = relation;
  dataset.sensitive_attribute_name = sensitive_attribute;
  for (const auto& row : rows) {
    DFS_ASSIGN_OR_RETURN(const int target, binary_value(row[target_index],
                                                        target_index));
    DFS_ASSIGN_OR_RETURN(const int sensitive,
                         binary_value(row[sensitive_index],
                                      sensitive_index));
    dataset.target.push_back(target);
    dataset.sensitive.push_back(sensitive);
  }

  for (size_t a = 0; a < attributes.size(); ++a) {
    if (static_cast<int>(a) == target_index ||
        static_cast<int>(a) == sensitive_index) {
      continue;
    }
    RawColumn column;
    column.name = attributes[a].name;
    column.type = attributes[a].numeric ? ColumnType::kNumeric
                                        : ColumnType::kCategorical;
    for (const auto& row : rows) {
      const std::string cell = Unquote(row[a]);
      if (attributes[a].numeric) {
        if (cell == "?") {
          column.numeric_values.push_back(std::nan(""));
        } else {
          char* end = nullptr;
          const double value = std::strtod(cell.c_str(), &end);
          if (end == nullptr || *end != '\0') {
            return InvalidArgumentError("non-numeric value '" + cell +
                                        "' in numeric attribute " +
                                        column.name);
          }
          column.numeric_values.push_back(value);
        }
      } else {
        column.categorical_values.push_back(cell == "?" ? "" : cell);
      }
    }
    dataset.columns.push_back(std::move(column));
  }
  return dataset;
}

StatusOr<RawDataset> ReadArffFile(const std::string& path,
                                  const std::string& target_attribute,
                                  const std::string& sensitive_attribute) {
  DFS_ASSIGN_OR_RETURN(const std::string text, util::ReadFile(path));
  return ParseArff(text, target_attribute, sensitive_attribute);
}

}  // namespace dfs::data
