#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"

namespace dfs {

FlagParser::FlagParser(std::string program_description)
    : program_description_(std::move(program_description)) {}

void FlagParser::AddString(const std::string& name, const std::string& help,
                           std::string* value) {
  DFS_CHECK(Find(name) == nullptr) << "duplicate flag --" << name;
  flags_.push_back({name, help, Kind::kString, value});
}
void FlagParser::AddDouble(const std::string& name, const std::string& help,
                           double* value) {
  DFS_CHECK(Find(name) == nullptr) << "duplicate flag --" << name;
  flags_.push_back({name, help, Kind::kDouble, value});
}
void FlagParser::AddInt(const std::string& name, const std::string& help,
                        int* value) {
  DFS_CHECK(Find(name) == nullptr) << "duplicate flag --" << name;
  flags_.push_back({name, help, Kind::kInt, value});
}
void FlagParser::AddBool(const std::string& name, const std::string& help,
                         bool* value) {
  DFS_CHECK(Find(name) == nullptr) << "duplicate flag --" << name;
  flags_.push_back({name, help, Kind::kBool, value});
}

const FlagParser::Flag* FlagParser::Find(const std::string& name) const {
  for (const auto& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

Status FlagParser::Assign(const Flag& flag, const std::string& text) {
  switch (flag.kind) {
    case Kind::kString:
      *static_cast<std::string*>(flag.target) = text;
      return OkStatus();
    case Kind::kDouble: {
      char* end = nullptr;
      errno = 0;
      const double value = std::strtod(text.c_str(), &end);
      if (end == nullptr || *end != '\0' || text.empty()) {
        return InvalidArgumentError("--" + flag.name +
                                    " expects a number, got '" + text + "'");
      }
      if (errno == ERANGE || !std::isfinite(value)) {
        return InvalidArgumentError("--" + flag.name +
                                    " expects a finite number in double "
                                    "range, got '" + text + "'");
      }
      *static_cast<double*>(flag.target) = value;
      return OkStatus();
    }
    case Kind::kInt: {
      char* end = nullptr;
      errno = 0;
      const long value = std::strtol(text.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || text.empty()) {
        return InvalidArgumentError("--" + flag.name +
                                    " expects an integer, got '" + text +
                                    "'");
      }
      if (errno == ERANGE || value < std::numeric_limits<int>::min() ||
          value > std::numeric_limits<int>::max()) {
        return InvalidArgumentError("--" + flag.name +
                                    " is out of range for an int: '" + text +
                                    "'");
      }
      *static_cast<int*>(flag.target) = static_cast<int>(value);
      return OkStatus();
    }
    case Kind::kBool: {
      const std::string lower = ToLower(text);
      if (lower == "true" || lower == "1" || lower.empty()) {
        *static_cast<bool*>(flag.target) = true;
      } else if (lower == "false" || lower == "0") {
        *static_cast<bool*>(flag.target) = false;
      } else {
        return InvalidArgumentError("--" + flag.name +
                                    " expects true/false, got '" + text +
                                    "'");
      }
      return OkStatus();
    }
  }
  return InternalError("unreachable");
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  positional_.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string argument = argv[i];
    if (!StartsWith(argument, "--")) {
      positional_.push_back(argument);
      continue;
    }
    std::string name = argument.substr(2);
    std::string value;
    bool has_value = false;
    const size_t equals = name.find('=');
    if (equals != std::string::npos) {
      value = name.substr(equals + 1);
      name = name.substr(0, equals);
      has_value = true;
    }
    const Flag* flag = Find(name);
    if (flag == nullptr) {
      return InvalidArgumentError("unknown flag --" + name);
    }
    if (!has_value && flag->kind != Kind::kBool) {
      if (i + 1 >= argc) {
        return InvalidArgumentError("--" + name + " requires a value");
      }
      value = argv[++i];
      has_value = true;
    }
    DFS_RETURN_IF_ERROR(Assign(*flag, has_value ? value : ""));
  }
  return OkStatus();
}

std::string FlagParser::Help() const {
  std::ostringstream out;
  out << program_description_ << "\n\nFlags:\n";
  for (const auto& flag : flags_) {
    out << "  --" << flag.name;
    switch (flag.kind) {
      case Kind::kString:
        out << " <string>";
        break;
      case Kind::kDouble:
        out << " <number>";
        break;
      case Kind::kInt:
        out << " <int>";
        break;
      case Kind::kBool:
        break;
    }
    out << "\n      " << flag.help << "\n";
  }
  return out.str();
}

}  // namespace dfs
