#ifndef DFS_SERVE_EVENT_LOOP_H_
#define DFS_SERVE_EVENT_LOOP_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "serve/tcp.h"
#include "util/statusor.h"

namespace dfs::serve {

/// The epoll event-loop front-end (DESIGN.md §2j): one blocking acceptor
/// thread plus a small pool of I/O threads, each multiplexing thousands of
/// non-blocking connections on its own epoll instance. Connection state
/// machines own their per-channel read/write buffers (1 MiB line cap,
/// same as LineChannel); complete request lines dispatch on the I/O thread
/// through the same Dispatch() as the thread-per-connection path, so the
/// wire protocol is byte-identical. The worker fleet behind DfsServer is
/// untouched — the event loop only replaces how bytes reach Dispatch.
///
/// Admission control / load shedding:
///   * Request shed: when `shed_watermark > 0` and the server's bounded
///     job-queue depth has reached the watermark, canonically-encoded
///     submit lines are answered with ShedResponse() immediately — the
///     front-end never pays constraint parsing or job set-up for work
///     the queue would reject anyway. Non-submit verbs (status
///     polls, result fetches, cancels) are never shed.
///   * Accept shed: past `max_connections` open channels, a newly accepted
///     connection gets one best-effort AcceptShedResponse() line and is
///     closed — fd pressure degrades gracefully instead of exhausting the
///     process fd table.
/// Both responses carry the existing "queue_full" error tag, so clients
/// already treating it as backpressure need no changes.
struct EventLoopOptions {
  /// TCP port; 0 picks an ephemeral port (see port()).
  int port = 0;
  bool loopback_only = true;
  /// Epoll I/O threads multiplexing the connections (clamped to [1, 64]).
  int io_threads = 2;
  /// Accept-time shed threshold: open channels beyond this are answered
  /// with AcceptShedResponse() and closed.
  size_t max_connections = 4096;
  /// Submit-request shed threshold over DfsServer::QueueDepth();
  /// 0 disables request shedding (the bounded queue still rejects).
  size_t shed_watermark = 0;
  /// A peer that stops reading while responses accumulate past this many
  /// buffered bytes is disconnected (slow-reader protection).
  size_t max_write_buffer_bytes = 4u << 20;
};

/// The exact bytes of the admission-control shed line (no trailing '\n').
/// Wire-stable: tests byte-compare against it, clients match the
/// "queue_full" tag.
std::string ShedResponse();

/// The exact bytes of the accept-time fd-pressure shed line.
std::string AcceptShedResponse();

class EventLoopFrontEnd {
 public:
  /// `server` must outlive the front-end.
  EventLoopFrontEnd(DfsServer& server, EventLoopOptions options = {});
  ~EventLoopFrontEnd();

  EventLoopFrontEnd(const EventLoopFrontEnd&) = delete;
  EventLoopFrontEnd& operator=(const EventLoopFrontEnd&) = delete;

  /// Binds, listens, and starts the acceptor + I/O threads.
  Status Start();

  /// The bound port (after Start).
  int port() const { return listener_.port(); }

  /// Initiates shutdown: stops accepting, wakes every I/O thread, flushes
  /// pending responses best-effort, closes all channels. Async-signal-safe
  /// (atomic store, shutdown(2), write(2) to an eventfd) so dfs_serverd's
  /// SIGTERM/SIGINT handlers may call it directly. Idempotent.
  void RequestStop();

  /// Blocks until the front-end has stopped (RequestStop from any thread,
  /// a signal handler, or a client "shutdown" verb), then joins the
  /// acceptor and I/O threads. Returns true if a client requested the
  /// shutdown over the wire.
  bool Wait();

  /// Instantaneous open-channel count across all I/O threads.
  size_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }

  const EventLoopOptions& options() const { return options_; }

 private:
  class IoLoop;
  friend class IoLoop;

  void AcceptLoop();

  DfsServer& server_;
  EventLoopOptions options_;
  TcpListener listener_;
  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::thread acceptor_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> client_shutdown_{false};
  std::atomic<size_t> open_connections_{0};
  size_t next_loop_ = 0;  ///< acceptor-thread only (round-robin assignment)
};

}  // namespace dfs::serve

#endif  // DFS_SERVE_EVENT_LOOP_H_
