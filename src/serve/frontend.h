#ifndef DFS_SERVE_FRONTEND_H_
#define DFS_SERVE_FRONTEND_H_

#include <string>

#include "serve/server.h"

namespace dfs::serve {

/// Outcome of handling one protocol line.
struct DispatchResult {
  /// Response line (always a flat JSON object, no trailing newline).
  std::string response;
  /// The client asked the daemon to shut down.
  bool shutdown_requested = false;
};

/// Maps one request line onto DfsServer calls and renders the response.
/// Never throws and never returns an empty response: protocol errors come
/// back as {"ok":false,"error":...} lines.
DispatchResult Dispatch(DfsServer& server, const std::string& line);

}  // namespace dfs::serve

#endif  // DFS_SERVE_FRONTEND_H_
