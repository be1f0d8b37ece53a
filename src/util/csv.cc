#include "util/csv.h"

#include <sstream>

#include "util/file.h"

namespace dfs {
namespace {

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteField(const std::string& field) {
  if (!NeedsQuoting(field)) return field;
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += "\"\"";
    else quoted += c;
  }
  quoted += '"';
  return quoted;
}

// Parses all records (including the header) from raw CSV text.
StatusOr<std::vector<std::vector<std::string>>> ParseRecords(
    const std::string& text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> current;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  size_t i = 0;
  auto end_field = [&] {
    current.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_record = [&] {
    end_field();
    records.push_back(std::move(current));
    current.clear();
  };
  while (i < text.size()) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else {
      if (c == '"' && !field_started) {
        in_quotes = true;
        field_started = true;
      } else if (c == ',') {
        end_field();
      } else if (c == '\n') {
        end_record();
      } else if (c == '\r') {
        // Swallow; handles CRLF.
      } else {
        field += c;
        field_started = true;
      }
    }
    ++i;
  }
  if (in_quotes) return InvalidArgumentError("unterminated quoted CSV field");
  if (field_started || !field.empty() || !current.empty()) end_record();
  return records;
}

}  // namespace

int CsvTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

StatusOr<CsvTable> ParseCsv(const std::string& text) {
  DFS_ASSIGN_OR_RETURN(auto records, ParseRecords(text));
  if (records.empty()) return InvalidArgumentError("empty CSV input");
  CsvTable table;
  table.header = std::move(records.front());
  for (size_t r = 1; r < records.size(); ++r) {
    if (records[r].size() != table.header.size()) {
      return InvalidArgumentError(
          "CSV row " + std::to_string(r) + " has " +
          std::to_string(records[r].size()) + " fields, expected " +
          std::to_string(table.header.size()));
    }
    table.rows.push_back(std::move(records[r]));
  }
  return table;
}

StatusOr<CsvTable> ReadCsvFile(const std::string& path) {
  DFS_ASSIGN_OR_RETURN(const std::string text, util::ReadFile(path));
  return ParseCsv(text);
}

std::string WriteCsv(const CsvTable& table) {
  std::ostringstream out;
  for (size_t i = 0; i < table.header.size(); ++i) {
    if (i > 0) out << ',';
    out << QuoteField(table.header[i]);
  }
  out << '\n';
  for (const auto& row : table.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ',';
      out << QuoteField(row[i]);
    }
    out << '\n';
  }
  return out.str();
}

Status WriteCsvFile(const CsvTable& table, const std::string& path) {
  return util::WriteFile(path, WriteCsv(table));
}

}  // namespace dfs
