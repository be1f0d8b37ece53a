#include "util/file.h"

#include <fstream>
#include <sstream>

namespace dfs::util {

Status WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return InternalError("cannot write file: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) return InternalError("write failed: " + path);
  return OkStatus();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return InternalError("read failed: " + path);
  return buffer.str();
}

}  // namespace dfs::util
