// dfs_loadgen — open-loop load generator for the serve front-end.
//
//   dfs_loadgen --workload ping --connections 1024 --rate 2000
//               --requests 20000
//
// Boots an in-process DfsServer behind the epoll event-loop front-end
// (the one dfs_serverd runs), then drives it over real TCP with a named
// workload (`ping` or `submit`). Requests fire on a fixed arrival schedule
// (--rate per second, spread round-robin over --connections keep-alive
// channels). Latency is measured from the *intended* arrival time, so
// queueing delay that a slow server inflicts on the schedule is charged
// to the server (no coordinated omission: a closed loop would politely
// stop sending while the server struggles and hide the collapse).
//
// Output: completed/shed/error counts, throughput, and p50/p95/p99/p999
// latency. Shed responses count as completions (a fast queue_full line IS
// the backpressure contract working); served vs shed counts are reported
// separately. Exit 1 if nothing completed, 2 on any transport failure.

#include <csignal>
#include <cstdio>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "serve/event_loop.h"
#include "serve/line_protocol.h"
#include "serve/server.h"
#include "serve/tcp.h"
#include "util/flags.h"
#include "util/statusor.h"
#include "util/stopwatch.h"

namespace dfs {
namespace {

constexpr char kDataset[] = "loadgen-tiny";

data::Dataset TinyDataset() {
  data::SyntheticSpec spec;
  spec.name = kDataset;
  spec.sensitive_attribute = "Group";
  spec.rows = 120;
  spec.informative_numeric = 3;
  spec.redundant_numeric = 1;
  spec.noise_numeric = 2;
  spec.proxy_features = 1;
  spec.categorical_attributes = 0;
  auto dataset = data::GenerateDataset(spec, /*seed=*/11);
  DFS_CHECK(dataset.ok());
  return std::move(dataset).value();
}

/// A named workload: one request line per sequence number.
struct Workload {
  const char* name;
  std::string (*line)(uint64_t seq);
};

std::string PingLine(uint64_t) {
  serve::JsonObject object;
  object["op"] = serve::JsonValue::String("ping");
  return serve::WriteJsonLine(object);
}

/// One-evaluation submit (cheapest strategy, always-satisfiable
/// constraint) so the measurement is front-end + queue/dispatch overhead,
/// not model training. Past saturation these are exactly the requests the
/// admission watermark sheds.
std::string SubmitLine(uint64_t seq) {
  serve::JobRequest request;
  request.dataset = kDataset;
  request.strategy = "Original Feature Set";
  constraints::ConstraintSet set;
  set.min_f1 = 0.0;
  set.max_search_seconds = 10.0;
  request.constraint_set = set;
  request.seed = seq + 1;
  return serve::FormatSubmitLine(request);
}

constexpr Workload kWorkloads[] = {
    {"ping", PingLine},
    {"submit", SubmitLine},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

struct LoadOptions {
  std::string workload = "ping";
  int connections = 64;
  double rate = 1000.0;  // aggregate target arrival rate
  int requests = 5000;   // total requests across all channels
  int workers = 2;
  int queue_capacity = 64;
  int io_threads = 2;
  int shed_watermark = 0;
  int max_connections = 4096;
  bool help = false;
};

/// Per-channel results, merged after the run.
struct ChannelResult {
  std::vector<double> latencies;  // seconds, completed responses only
  uint64_t completed = 0;
  uint64_t shed = 0;    // completed with a queue_full error line
  uint64_t errors = 0;  // transport failures (dead channel, bad line)
  uint64_t unsent = 0;  // schedule slots abandoned after a dead channel
};

bool IsShedLine(const std::string& line) {
  return line.find("\"error\":\"queue_full\"") != std::string::npos;
}

/// One channel's schedule: sequence numbers `index, index+C, index+2C...`
/// below `total`. Each request waits for its intended arrival time
/// (base + seq/rate) and latency runs from that intended time.
void RunChannel(const LoadOptions& options, const Workload& workload,
                int port, int index, const Stopwatch& base,
                ChannelResult& result) {
  auto fd = serve::TcpConnect("127.0.0.1", port);
  if (!fd.ok()) {
    result.errors += 1;
    return;
  }
  serve::LineChannel channel(*fd);
  const uint64_t total = static_cast<uint64_t>(options.requests);
  const uint64_t stride = static_cast<uint64_t>(options.connections);
  for (uint64_t seq = static_cast<uint64_t>(index); seq < total;
       seq += stride) {
    const double intended = static_cast<double>(seq) / options.rate;
    const double ahead = intended - base.ElapsedSeconds();
    if (ahead > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
    }
    if (Status status = channel.WriteLine(workload.line(seq));
        !status.ok()) {
      result.errors += 1;
      result.unsent += (total - seq + stride - 1) / stride - 1;
      return;
    }
    auto response = channel.ReadLine();
    if (!response.ok()) {
      result.errors += 1;
      result.unsent += (total - seq + stride - 1) / stride - 1;
      return;
    }
    result.latencies.push_back(base.ElapsedSeconds() - intended);
    result.completed += 1;
    if (IsShedLine(*response)) result.shed += 1;
  }
}

double Percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t n = sorted.size();
  size_t index = static_cast<size_t>(q * static_cast<double>(n));
  if (index >= n) index = n - 1;
  return sorted[index];
}

struct Summary {
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t unsent = 0;
  double wall_seconds = 0;
  double throughput = 0;  // completed responses per second
  double mean = 0, p50 = 0, p95 = 0, p99 = 0, p999 = 0;  // seconds
};

Summary Summarize(std::vector<ChannelResult>& results,
                  double wall_seconds) {
  Summary summary;
  summary.wall_seconds = wall_seconds;
  std::vector<double> latencies;
  for (ChannelResult& result : results) {
    summary.completed += result.completed;
    summary.shed += result.shed;
    summary.errors += result.errors;
    summary.unsent += result.unsent;
    latencies.insert(latencies.end(), result.latencies.begin(),
                     result.latencies.end());
  }
  std::sort(latencies.begin(), latencies.end());
  double sum = 0;
  for (const double latency : latencies) sum += latency;
  if (!latencies.empty()) {
    summary.mean = sum / static_cast<double>(latencies.size());
  }
  summary.p50 = Percentile(latencies, 0.50);
  summary.p95 = Percentile(latencies, 0.95);
  summary.p99 = Percentile(latencies, 0.99);
  summary.p999 = Percentile(latencies, 0.999);
  if (wall_seconds > 0) {
    summary.throughput =
        static_cast<double>(summary.completed) / wall_seconds;
  }
  return summary;
}

int RealMain(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);

  LoadOptions options;
  FlagParser parser(
      "dfs_loadgen — open-loop load generator for the serve front-end "
      "(in-process server over real TCP)");
  parser.AddString("workload",
                   "ping (front-end round trip) or submit (one-evaluation "
                   "job through dispatch and the queue)",
                   &options.workload);
  parser.AddInt("connections", "concurrent keep-alive channels",
                &options.connections);
  parser.AddDouble("rate", "aggregate target arrival rate, requests/second",
                   &options.rate);
  parser.AddInt("requests", "total requests across all channels",
                &options.requests);
  parser.AddInt("workers", "server worker threads", &options.workers);
  parser.AddInt("queue-capacity", "server job-queue capacity",
                &options.queue_capacity);
  parser.AddInt("io-threads", "event-loop I/O threads",
                &options.io_threads);
  parser.AddInt("shed-watermark",
                "admission-control watermark passed to the event loop "
                "(0 = request shedding off)",
                &options.shed_watermark);
  parser.AddInt("max-connections",
                "accept-shed limit passed to the event loop",
                &options.max_connections);
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
  const Workload* workload = FindWorkload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload \"%s\" (ping or submit)\n",
                 options.workload.c_str());
    return 1;
  }
  if (options.connections < 1 || options.requests < 1 ||
      options.rate <= 0) {
    std::fprintf(stderr,
                 "--connections/--requests must be >= 1, --rate > 0\n");
    return 1;
  }

  serve::ServerOptions server_options;
  server_options.num_workers = std::max(1, options.workers);
  server_options.queue_capacity =
      static_cast<size_t>(std::max(1, options.queue_capacity));
  serve::DfsServer server(server_options);
  server.RegisterDataset(kDataset, TinyDataset());

  serve::EventLoopOptions frontend_options;
  frontend_options.io_threads = options.io_threads;
  frontend_options.max_connections =
      static_cast<size_t>(std::max(1, options.max_connections));
  frontend_options.shed_watermark =
      static_cast<size_t>(std::max(0, options.shed_watermark));
  serve::EventLoopFrontEnd frontend(server, frontend_options);
  if (Status status = frontend.Start(); !status.ok()) {
    std::fprintf(stderr, "frontend: %s\n", status.ToString().c_str());
    return 1;
  }
  const int port = frontend.port();

  std::printf(
      "dfs_loadgen: epoll front-end on port %d · workload=%s "
      "connections=%d requests=%d rate=%.0f\n",
      port, workload->name, options.connections, options.requests,
      options.rate);
  std::fflush(stdout);

  std::vector<ChannelResult> results(
      static_cast<size_t>(options.connections));
  {
    // Connect-then-fire: all channels are open before the schedule
    // starts, so `--connections` is the true concurrent-channel count
    // for the whole run.
    std::vector<std::thread> clients;
    clients.reserve(results.size());
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    Stopwatch base;
    for (int i = 0; i < options.connections; ++i) {
      clients.emplace_back([&, i] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        RunChannel(options, *workload, port, i, base,
                   results[static_cast<size_t>(i)]);
      });
    }
    while (ready.load() < options.connections) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    base.Restart();
    go.store(true, std::memory_order_release);
    for (std::thread& client : clients) client.join();
    const double wall = base.ElapsedSeconds();
    Summary summary = Summarize(results, wall);

    frontend.RequestStop();
    frontend.Wait();
    server.Shutdown(/*cancel_pending=*/true);

    std::printf(
        "completed=%llu shed=%llu errors=%llu unsent=%llu wall=%.2fs "
        "throughput=%.1f req/s\n",
        static_cast<unsigned long long>(summary.completed),
        static_cast<unsigned long long>(summary.shed),
        static_cast<unsigned long long>(summary.errors),
        static_cast<unsigned long long>(summary.unsent),
        summary.wall_seconds, summary.throughput);
    std::printf(
        "latency  mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms "
        "p999=%.3fms\n",
        summary.mean * 1e3, summary.p50 * 1e3, summary.p95 * 1e3,
        summary.p99 * 1e3, summary.p999 * 1e3);
    if (summary.completed == 0) {
      std::fprintf(stderr, "no requests completed\n");
      return 1;
    }
    // Transport failures (dead channels, unexpected EOF) are a soak
    // failure; request sheds are not — a shed line is the backpressure
    // contract working.
    if (summary.errors > 0) return 2;
  }
  return 0;
}

}  // namespace
}  // namespace dfs

int main(int argc, char** argv) { return dfs::RealMain(argc, argv); }
