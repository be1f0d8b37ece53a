// dfs_submit — client for the dfs_serverd job service.
//
//   dfs_submit --dataset COMPAS --model LR --strategy auto \
//              --min-f1 0.7 --min-eo 0.9 --budget 2 --wait
//   dfs_submit --status 7        dfs_submit --result 7
//   dfs_submit --cancel 7        dfs_submit --stats
//   dfs_submit --metrics         dfs_submit --ping
//   dfs_submit --cache           dfs_submit --shutdown
//   dfs_submit --ping --connections 4 --repeat 8 --pipeline
//
// Speaks the newline-delimited JSON line protocol (one request, one
// response per line). Responses are printed verbatim; --wait polls a
// submitted job until it reaches a terminal state and then fetches its
// result. A "queue_full" error means backpressure: retry later.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "serve/line_protocol.h"
#include "serve/tcp.h"
#include "util/flags.h"

namespace dfs {
namespace {

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 7070;

  // Submit fields.
  std::string dataset;
  std::string model = "LR";
  std::string strategy = "auto";
  double min_f1 = 0.7;
  double min_eo = -1.0;
  double min_safety = -1.0;
  double max_features = -1.0;
  double epsilon = -1.0;
  double budget = 60.0;
  bool hpo = false;
  bool utility = false;
  int priority = 0;
  int seed = 42;
  bool wait = false;

  // Multi-channel / pipelining (exercises the event-loop front-end's
  // multiplexed path; see docs/PROTOCOL.md "Keep-alive and pipelining").
  int connections = 1;
  int repeat = 1;
  bool pipeline = false;

  // Other ops.
  int status_id = 0;
  int result_id = 0;
  int cancel_id = 0;
  bool stats = false;
  bool metrics = false;
  bool cache = false;
  bool ping = false;
  bool shutdown = false;
  bool help = false;
};

void RegisterFlags(FlagParser& parser, ClientOptions& options) {
  parser.AddString("host", "server host", &options.host);
  parser.AddInt("port", "server port", &options.port);
  parser.AddString("dataset", "dataset name (submit)", &options.dataset);
  parser.AddString("model", "model: LR, NB, DT, SVM", &options.model);
  parser.AddString("strategy", "strategy name or \"auto\"",
                   &options.strategy);
  parser.AddDouble("min-f1", "minimum F1 score", &options.min_f1);
  parser.AddDouble("min-eo", "minimum equal opportunity (omit to disable)",
                   &options.min_eo);
  parser.AddDouble("min-safety",
                   "minimum adversarial safety (omit to disable)",
                   &options.min_safety);
  parser.AddDouble("max-features",
                   "maximum feature fraction in (0, 1] (omit to disable)",
                   &options.max_features);
  parser.AddDouble("epsilon",
                   "differential-privacy epsilon (omit to disable)",
                   &options.epsilon);
  parser.AddDouble("budget", "maximum search seconds", &options.budget);
  parser.AddBool("hpo", "grid-search hyperparameters per evaluation",
                 &options.hpo);
  parser.AddBool("utility", "maximize F1 subject to the constraints",
                 &options.utility);
  parser.AddInt("priority", "queue priority (higher runs first)",
                &options.priority);
  parser.AddInt("seed", "random seed", &options.seed);
  parser.AddBool("wait", "poll the submitted job until terminal",
                 &options.wait);
  parser.AddInt("connections",
                "open this many keep-alive channels and send the request "
                "on each (disables --wait)",
                &options.connections);
  parser.AddInt("repeat", "send the request this many times per channel",
                &options.repeat);
  parser.AddBool("pipeline",
                 "write every --repeat request before reading any "
                 "response (responses still arrive in request order)",
                 &options.pipeline);
  parser.AddInt("status", "fetch the status of a job id", &options.status_id);
  parser.AddInt("result", "fetch the result of a job id", &options.result_id);
  parser.AddInt("cancel", "cancel a job id", &options.cancel_id);
  parser.AddBool("stats", "fetch service counters", &options.stats);
  parser.AddBool("metrics",
                 "fetch the flattened dfs::obs metrics snapshot",
                 &options.metrics);
  parser.AddBool("cache",
                 "fetch the shared eval-cache counters (hits, misses, "
                 "inserts, spills/restores, shard occupancy)",
                 &options.cache);
  parser.AddBool("ping", "health-check the service", &options.ping);
  parser.AddBool("shutdown", "ask the daemon to shut down",
                 &options.shutdown);
  parser.AddBool("help", "print usage", &options.help);
}

StatusOr<std::string> RoundTrip(serve::LineChannel& channel,
                                const std::string& request) {
  DFS_RETURN_IF_ERROR(channel.WriteLine(request));
  return channel.ReadLine();
}

std::string IdRequest(const char* op, int id) {
  serve::JsonObject object;
  object["op"] = serve::JsonValue::String(op);
  object["id"] = serve::JsonValue::Number(id);
  return serve::WriteJsonLine(object);
}

std::string OpRequest(const char* op) {
  serve::JsonObject object;
  object["op"] = serve::JsonValue::String(op);
  return serve::WriteJsonLine(object);
}

/// Polls `id` until terminal, then prints its result line. Returns the
/// process exit code (0 = job DONE and successful).
int WaitAndFetch(serve::LineChannel& channel, double id) {
  while (true) {
    auto response =
        RoundTrip(channel, IdRequest("status", static_cast<int>(id)));
    if (!response.ok()) {
      std::fprintf(stderr, "poll: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    auto object = serve::ParseJsonLine(*response);
    if (!object.ok()) {
      std::fprintf(stderr, "bad response: %s\n", response->c_str());
      return 1;
    }
    auto state = serve::GetString(*object, "state");
    if (!state.ok()) {  // error response, e.g. evicted
      std::printf("%s\n", response->c_str());
      return 1;
    }
    if (*state != "QUEUED" && *state != "RUNNING") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  auto result =
      RoundTrip(channel, IdRequest("result", static_cast<int>(id)));
  if (!result.ok()) {
    std::fprintf(stderr, "result: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", result->c_str());
  auto object = serve::ParseJsonLine(*result);
  if (object.ok()) {
    auto success = serve::GetBool(*object, "success");
    if (success.ok()) return *success ? 0 : 2;
  }
  return 1;
}

/// Sends `request` --repeat times over each of --connections keep-alive
/// channels. With --pipeline, all repeats on a channel are written before
/// any response is read (the front-end answers pipelined lines in request
/// order); without it, each repeat is a serial round-trip on the same
/// channel. Every response line is printed; exit 0 iff all carried
/// "ok":true.
int MultiChannel(const ClientOptions& options, const std::string& request) {
  const int repeats = std::max(1, options.repeat);
  bool all_ok = true;
  for (int c = 0; c < std::max(1, options.connections); ++c) {
    auto fd = serve::TcpConnect(options.host, options.port);
    if (!fd.ok()) {
      std::fprintf(stderr, "connect: %s\n", fd.status().ToString().c_str());
      return 1;
    }
    serve::LineChannel channel(*fd);
    if (options.pipeline) {
      for (int r = 0; r < repeats; ++r) {
        if (Status status = channel.WriteLine(request); !status.ok()) {
          std::fprintf(stderr, "request: %s\n", status.ToString().c_str());
          return 1;
        }
      }
    }
    for (int r = 0; r < repeats; ++r) {
      auto response = options.pipeline ? channel.ReadLine()
                                       : RoundTrip(channel, request);
      if (!response.ok()) {
        std::fprintf(stderr, "request: %s\n",
                     response.status().ToString().c_str());
        return 1;
      }
      std::printf("%s\n", response->c_str());
      auto object = serve::ParseJsonLine(*response);
      if (!object.ok() || !serve::GetBool(*object, "ok").value_or(false)) {
        all_ok = false;
      }
    }
  }
  return all_ok ? 0 : 1;
}

int RealMain(int argc, char** argv) {
  ClientOptions options;
  FlagParser parser("dfs_submit — client for the dfs_serverd job service");
  RegisterFlags(parser, options);
  if (Status status = parser.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n\n%s", status.ToString().c_str(),
                 parser.Help().c_str());
    return 1;
  }
  if (options.help) {
    std::fputs(parser.Help().c_str(), stdout);
    return 0;
  }

  std::string request;
  if (options.status_id > 0) {
    request = IdRequest("status", options.status_id);
  } else if (options.result_id > 0) {
    request = IdRequest("result", options.result_id);
  } else if (options.cancel_id > 0) {
    request = IdRequest("cancel", options.cancel_id);
  } else if (options.stats) {
    request = OpRequest("stats");
  } else if (options.metrics) {
    request = OpRequest("metrics");
  } else if (options.cache) {
    request = OpRequest("cache");
  } else if (options.ping) {
    request = OpRequest("ping");
  } else if (options.shutdown) {
    request = OpRequest("shutdown");
  } else if (!options.dataset.empty()) {
    serve::JobRequest job;
    job.dataset = options.dataset;
    auto model = serve::ParseModelKind(options.model);
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
      return 1;
    }
    job.model = *model;
    job.strategy = options.strategy;
    constraints::ConstraintSetBuilder builder;
    builder.MinF1(options.min_f1).MaxSearchSeconds(options.budget);
    if (options.min_eo >= 0) builder.MinEqualOpportunity(options.min_eo);
    if (options.min_safety >= 0) builder.MinSafety(options.min_safety);
    if (options.max_features > 0) {
      builder.MaxFeatureFraction(options.max_features);
    }
    if (options.epsilon > 0) builder.PrivacyEpsilon(options.epsilon);
    auto constraint_set = builder.Build();
    if (!constraint_set.ok()) {
      std::fprintf(stderr, "constraints: %s\n",
                   constraint_set.status().ToString().c_str());
      return 1;
    }
    job.constraint_set = *constraint_set;
    job.use_hpo = options.hpo;
    job.maximize_utility = options.utility;
    job.priority = options.priority;
    job.seed = static_cast<uint64_t>(options.seed);
    request = serve::FormatSubmitLine(job);
  } else {
    std::fprintf(stderr,
                 "nothing to do: pass --dataset (submit) or one of "
                 "--status/--result/--cancel/--stats/--metrics/--cache/"
                 "--ping/--shutdown\n\n%s",
                 parser.Help().c_str());
    return 1;
  }

  if (options.connections > 1 || options.repeat > 1 || options.pipeline) {
    return MultiChannel(options, request);
  }

  auto fd = serve::TcpConnect(options.host, options.port);
  if (!fd.ok()) {
    std::fprintf(stderr, "connect: %s\n", fd.status().ToString().c_str());
    return 1;
  }
  serve::LineChannel channel(*fd);
  auto response = RoundTrip(channel, request);
  if (!response.ok()) {
    std::fprintf(stderr, "request: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", response->c_str());

  auto object = serve::ParseJsonLine(*response);
  if (!object.ok()) return 1;
  const bool accepted = serve::GetBool(*object, "ok").value_or(false);
  if (options.wait && !options.dataset.empty()) {
    if (!accepted) return 1;
    auto id = serve::GetNumber(*object, "id");
    if (!id.ok()) return 1;
    return WaitAndFetch(channel, *id);
  }
  // An error response (e.g. queue_full backpressure) is a non-zero exit even
  // without --wait, so shell callers can retry on it.
  return accepted ? 0 : 1;
}

}  // namespace
}  // namespace dfs

int main(int argc, char** argv) { return dfs::RealMain(argc, argv); }
