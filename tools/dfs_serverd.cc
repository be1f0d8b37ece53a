// dfs_serverd — the DFS job-service daemon.
//
//   dfs_serverd --port 7070 --workers 4 --queue-capacity 64 --io-threads 2
//
// Accepts newline-delimited JSON requests (see src/serve/line_protocol.h)
// over TCP and runs declarative feature-selection jobs on a worker fleet.
// The network front-end is an epoll event loop (src/serve/event_loop.h):
// one acceptor plus --io-threads epoll threads multiplexing every
// connection, with admission control past --shed-watermark queued jobs and
// accept-time shedding past --max-connections channels. Datasets are
// addressed by benchmark-suite name and generated on first use;
// --optimizer loads a serialized meta-optimizer so "auto" jobs use the
// Algorithm-1 deployment phase. A client-issued {"op":"shutdown"} stops
// the daemon; running jobs are cancelled cooperatively.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "obs/trace.h"
#include "serve/event_loop.h"
#include "serve/server.h"
#include "util/flags.h"

namespace dfs {
namespace {

struct DaemonOptions {
  int port = 7070;
  int workers = 4;
  int queue_capacity = 64;
  int io_threads = 2;
  int max_connections = 4096;
  int shed_watermark = 0;  // 0 = request shedding off (queue still rejects)
  double ttl = 300.0;
  double row_scale = 1.0;
  std::string optimizer;  // path to a serialized DfsOptimizer
  std::string trace_out;  // JSONL trace-span output (empty = disabled)
  std::string eval_cache_state;  // eval-cache spill path (warm restart)
  bool expose = false;    // bind all interfaces instead of loopback
  bool help = false;
};

/// The front-end, published for the signal handlers once Start() succeeds.
/// EventLoopFrontEnd::RequestStop is async-signal-safe (an atomic store,
/// shutdown(2) on the listener, one eventfd write(2) per I/O thread), so
/// SIGTERM/SIGINT wake the whole front-end and let the normal exit path
/// run (state spill, stats line) instead of dying with the eval cache
/// unsaved.
std::atomic<serve::EventLoopFrontEnd*> g_frontend{nullptr};

extern "C" void HandleTerminationSignal(int) {
  if (serve::EventLoopFrontEnd* frontend = g_frontend.load()) {
    frontend->RequestStop();
  }
}

int RealMain(int argc, char** argv) {
  // A client that disconnects while we write its response must surface as
  // EPIPE (the event loop sends with MSG_NOSIGNAL; this covers any other
  // socket write), not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  DaemonOptions options;
  FlagParser parser("dfs_serverd — DFS job-service daemon (line protocol "
                    "over TCP; see DESIGN.md §serve)");
  parser.AddInt("port", "TCP port to listen on", &options.port);
  parser.AddInt("workers", "job worker threads", &options.workers);
  parser.AddInt("queue-capacity",
                "bounded job-queue capacity (full queue rejects submits)",
                &options.queue_capacity);
  parser.AddInt("io-threads",
                "epoll I/O threads multiplexing the connections",
                &options.io_threads);
  parser.AddInt("max-connections",
                "open-channel limit; accepts past it are answered with a "
                "queue_full shed line and closed",
                &options.max_connections);
  parser.AddInt("shed-watermark",
                "admission-control high-water mark: submits are shed with "
                "queue_full once this many jobs are queued (0 disables; "
                "the bounded queue still rejects at capacity)",
                &options.shed_watermark);
  parser.AddDouble("ttl", "seconds to retain terminal job results",
                   &options.ttl);
  parser.AddDouble("row-scale",
                   "row scale for benchmark-suite datasets generated on "
                   "demand",
                   &options.row_scale);
  parser.AddString("optimizer",
                   "path to a serialized DfsOptimizer for \"auto\" jobs",
                   &options.optimizer);
  parser.AddString("trace-out",
                   "write JSONL trace spans (serve.job, engine.run, fs.*) to "
                   "this file",
                   &options.trace_out);
  parser.AddString("eval-cache-state",
                   "shared eval-cache spill path (docs/CACHE.md): restored "
                   "at boot if present, saved at shutdown so evaluations "
                   "survive restarts. Stale or corrupt spills are rejected "
                   "loudly (the daemon refuses to start). Defaults to the "
                   "DFS_EVAL_CACHE_STATE env var",
                   &options.eval_cache_state);
  parser.AddBool("expose", "bind all interfaces instead of loopback only",
                 &options.expose);
  parser.AddBool("help", "print usage", &options.help);
  if (Status status = parser.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n\n%s", status.ToString().c_str(),
                 parser.Help().c_str());
    return 1;
  }
  if (options.help) {
    std::fputs(parser.Help().c_str(), stdout);
    return 0;
  }
  if (options.eval_cache_state.empty()) {
    if (const char* env = std::getenv("DFS_EVAL_CACHE_STATE")) {
      options.eval_cache_state = env;
    }
  }

  if (!options.trace_out.empty()) {
    if (Status status = obs::TraceWriter::Open(options.trace_out);
        !status.ok()) {
      std::fprintf(stderr, "trace-out: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("tracing spans to %s\n", options.trace_out.c_str());
  }

  serve::ServerOptions server_options;
  server_options.num_workers = options.workers;
  server_options.queue_capacity =
      static_cast<size_t>(std::max(1, options.queue_capacity));
  server_options.result_ttl_seconds = options.ttl;
  server_options.dataset_row_scale = options.row_scale;
  serve::DfsServer server(server_options);

  if (!options.eval_cache_state.empty()) {
    auto restored = server.eval_caches().LoadFromFile(options.eval_cache_state);
    if (restored.ok()) {
      std::printf("eval cache restored from %s (%zu entries)\n",
                  options.eval_cache_state.c_str(), *restored);
    } else if (restored.status().code() == StatusCode::kNotFound) {
      std::printf("eval cache %s not found; starting cold\n",
                  options.eval_cache_state.c_str());
    } else {
      // Stale (suite bump) or corrupt spills are rejected loudly: silently
      // starting cold would hide that the warm-restart contract broke.
      std::fprintf(stderr, "eval-cache-state: %s\n",
                   restored.status().ToString().c_str());
      return 1;
    }
  }

  if (!options.optimizer.empty()) {
    auto optimizer = core::DfsOptimizer::LoadFromFile(options.optimizer);
    if (!optimizer.ok()) {
      std::fprintf(stderr, "optimizer: %s\n",
                   optimizer.status().ToString().c_str());
      return 1;
    }
    server.SetOptimizer(std::move(optimizer).value());
    std::printf("meta-optimizer loaded from %s\n", options.optimizer.c_str());
  }

  serve::EventLoopOptions frontend_options;
  frontend_options.port = options.port;
  frontend_options.loopback_only = !options.expose;
  frontend_options.io_threads = options.io_threads;
  frontend_options.max_connections =
      static_cast<size_t>(std::max(1, options.max_connections));
  frontend_options.shed_watermark =
      static_cast<size_t>(std::max(0, options.shed_watermark));
  serve::EventLoopFrontEnd frontend(server, frontend_options);
  if (Status status = frontend.Start(); !status.ok()) {
    std::fprintf(stderr, "listen: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf(
      "dfs_serverd listening on port %d (%d workers, queue %zu, "
      "%d io-threads, max %zu connections)\n",
      frontend.port(), server_options.num_workers,
      server_options.queue_capacity, frontend.options().io_threads,
      frontend.options().max_connections);
  std::fflush(stdout);

  // From here, SIGTERM/SIGINT stop the front-end for a graceful exit:
  // the eval-cache spill still runs.
  g_frontend.store(&frontend);
  std::signal(SIGTERM, HandleTerminationSignal);
  std::signal(SIGINT, HandleTerminationSignal);

  // Blocks until a client "shutdown" verb or a termination signal. The
  // event loop owns every channel, so there is no handler-thread reaper
  // and no per-connection bookkeeping to prune here.
  frontend.Wait();
  g_frontend.store(nullptr);

  server.Shutdown(/*cancel_pending=*/true);
  if (!options.eval_cache_state.empty()) {
    // Workers are joined, so the registry is quiescent: the spill is a
    // consistent cut (docs/CACHE.md).
    if (Status status =
            server.eval_caches().SaveToFile(options.eval_cache_state);
        status.ok()) {
      std::printf("eval cache saved to %s\n",
                  options.eval_cache_state.c_str());
    } else {
      std::fprintf(stderr, "eval-cache-state save: %s\n",
                   status.ToString().c_str());
    }
  }
  obs::TraceWriter::Close();

  const serve::ServerStats stats = server.Stats();
  std::printf(
      "dfs_serverd exiting: accepted=%llu completed=%llu failed=%llu "
      "cancelled=%llu timed_out=%llu rejected=%llu\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.timed_out),
      static_cast<unsigned long long>(stats.rejected));
  return 0;
}

}  // namespace
}  // namespace dfs

int main(int argc, char** argv) { return dfs::RealMain(argc, argv); }
