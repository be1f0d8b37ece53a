#ifndef DFS_UTIL_FILE_H_
#define DFS_UTIL_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"
#include "util/statusor.h"

namespace dfs::util {

/// Replaces the file at `path` with `bytes`. The stream is closed and
/// checked before returning, so an error that surfaces only when buffered
/// bytes are flushed (ENOSPC, EIO) is reported instead of swallowed. The
/// write truncates in place; it is not atomic.
Status WriteFile(const std::string& path, std::string_view bytes);

/// The whole file at `path`; NotFound when it cannot be opened.
StatusOr<std::string> ReadFile(const std::string& path);

}  // namespace dfs::util

#endif  // DFS_UTIL_FILE_H_
