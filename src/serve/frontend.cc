#include "serve/frontend.h"

#include <cstdio>
#include <string>
#include <vector>

#include "core/eval_cache.h"
#include "obs/metrics.h"
#include "serve/line_protocol.h"
#include "util/string_util.h"

namespace dfs::serve {
namespace {

/// Machine-readable error tag per status code ("queue_full" is the one
/// clients must special-case: it is backpressure, not failure).
const char* ErrorTag(StatusCode code) {
  switch (code) {
    case StatusCode::kResourceExhausted:
      return "queue_full";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kInvalidArgument:
      return "bad_request";
    case StatusCode::kFailedPrecondition:
      return "precondition";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kDeadlineExceeded:
      return "timeout";
    default:
      return "internal";
  }
}

std::string ErrorResponse(const Status& status) {
  JsonObject object;
  object["ok"] = JsonValue::Bool(false);
  object["error"] = JsonValue::String(ErrorTag(status.code()));
  object["message"] = JsonValue::String(status.message());
  return WriteJsonLine(object);
}

std::string HandleSubmit(DfsServer& server, const JobRequest& request) {
  auto id = server.Submit(request);
  if (!id.ok()) return ErrorResponse(id.status());
  JsonObject object;
  object["ok"] = JsonValue::Bool(true);
  object["id"] = JsonValue::Number(static_cast<double>(*id));
  object["state"] = JsonValue::String(JobStateName(JobState::kQueued));
  return WriteJsonLine(object);
}

std::string HandleStatus(DfsServer& server, JobId id) {
  auto view = server.GetStatus(id);
  if (!view.ok()) return ErrorResponse(view.status());
  JsonObject object;
  object["ok"] = JsonValue::Bool(true);
  object["id"] = JsonValue::Number(static_cast<double>(view->id));
  object["state"] = JsonValue::String(JobStateName(view->state));
  object["priority"] = JsonValue::Number(view->priority);
  object["strategy"] = JsonValue::String(view->strategy);
  object["queue_seconds"] = JsonValue::Number(view->queue_seconds);
  object["run_seconds"] = JsonValue::Number(view->run_seconds);
  if (!view->error.empty()) {
    object["message"] = JsonValue::String(view->error);
  }
  return WriteJsonLine(object);
}

std::string HandleResult(DfsServer& server, JobId id) {
  auto result = server.GetResult(id);
  if (!result.ok()) return ErrorResponse(result.status());
  auto view = server.GetStatus(id);

  JsonObject object;
  object["ok"] = JsonValue::Bool(true);
  object["id"] = JsonValue::Number(static_cast<double>(id));
  object["state"] = JsonValue::String(
      JobStateName(view.ok() ? view->state : JobState::kDone));
  object["success"] = JsonValue::Bool(result->success);
  object["strategy"] = JsonValue::String(result->strategy);
  std::vector<std::string> features;
  features.reserve(result->features.size());
  for (const int feature : result->features) {
    features.push_back(std::to_string(feature));
  }
  object["features"] = JsonValue::String(Join(features, " "));
  object["num_features"] =
      JsonValue::Number(static_cast<double>(result->features.size()));
  object["validation_f1"] = JsonValue::Number(result->validation_values.f1);
  object["test_f1"] = JsonValue::Number(result->test_values.f1);
  object["validation_eo"] =
      JsonValue::Number(result->validation_values.equal_opportunity);
  object["test_eo"] =
      JsonValue::Number(result->test_values.equal_opportunity);
  object["seconds"] = JsonValue::Number(result->search_seconds);
  object["evaluations"] = JsonValue::Number(result->evaluations);
  return WriteJsonLine(object);
}

std::string HandleCancel(DfsServer& server, JobId id) {
  const Status status = server.Cancel(id);
  if (!status.ok()) return ErrorResponse(status);
  JsonObject object;
  object["ok"] = JsonValue::Bool(true);
  object["id"] = JsonValue::Number(static_cast<double>(id));
  return WriteJsonLine(object);
}

std::string HandleStats(DfsServer& server) {
  const ServerStats stats = server.Stats();
  JsonObject object;
  object["ok"] = JsonValue::Bool(true);
  object["accepted"] = JsonValue::Number(static_cast<double>(stats.accepted));
  object["rejected"] = JsonValue::Number(static_cast<double>(stats.rejected));
  object["completed"] =
      JsonValue::Number(static_cast<double>(stats.completed));
  object["failed"] = JsonValue::Number(static_cast<double>(stats.failed));
  object["cancelled"] =
      JsonValue::Number(static_cast<double>(stats.cancelled));
  object["timed_out"] =
      JsonValue::Number(static_cast<double>(stats.timed_out));
  object["evaluations"] =
      JsonValue::Number(static_cast<double>(stats.evaluations));
  object["queue_depth"] =
      JsonValue::Number(static_cast<double>(stats.queue_depth));
  object["running"] = JsonValue::Number(stats.running);
  object["retained_jobs"] =
      JsonValue::Number(static_cast<double>(stats.retained_jobs));
  object["queue_seconds_total"] =
      JsonValue::Number(stats.queue_seconds_total);
  object["run_seconds_total"] = JsonValue::Number(stats.run_seconds_total);
  object["run_seconds_max"] = JsonValue::Number(stats.run_seconds_max);
  return WriteJsonLine(object);
}

/// The "cache" verb: the shared eval-cache registry's aggregated counters
/// and occupancy (docs/PROTOCOL.md "cache"). Counters cover the shared
/// surface only — Lookup/InsertPublished and spill/restore; the engine's
/// private in-flight dedup keeps its accounting in "engine.cache_hits".
std::string HandleCache(DfsServer& server) {
  const core::EvalCacheStats stats = server.eval_caches().Stats();
  obs::MetricsRegistry::Global().gauge("cache.entries").Set(
      static_cast<int64_t>(stats.entries));
  JsonObject object;
  object["ok"] = JsonValue::Bool(true);
  object["caches"] = JsonValue::Number(static_cast<double>(stats.caches));
  object["entries"] = JsonValue::Number(static_cast<double>(stats.entries));
  object["hits"] = JsonValue::Number(static_cast<double>(stats.hits));
  object["misses"] = JsonValue::Number(static_cast<double>(stats.misses));
  object["inserts"] = JsonValue::Number(static_cast<double>(stats.inserts));
  object["spills"] = JsonValue::Number(static_cast<double>(stats.spills));
  object["restores"] =
      JsonValue::Number(static_cast<double>(stats.restores));
  std::vector<std::string> occupancy;
  occupancy.reserve(stats.shard_entries.size());
  for (const size_t entries : stats.shard_entries) {
    occupancy.push_back(std::to_string(entries));
  }
  object["shard_entries"] = JsonValue::String(Join(occupancy, " "));
  return WriteJsonLine(object);
}

/// The "metrics" verb: the dfs::obs registry snapshot flattened onto the
/// wire's flat-JSON shape. Counters and gauges keep their registry names;
/// a histogram <h> becomes "<h>.count", "<h>.sum", "<h>.mean", "<h>.max",
/// "<h>.p50/.p90/.p99" plus "<h>.buckets", a "bound:count ..." string of
/// its non-empty buckets ("+inf" for the overflow bucket). The serve
/// gauges are refreshed from live server state first, so queue depth and
/// running count are current even while jobs are moving.
std::string HandleMetrics(DfsServer& server) {
  auto& registry = obs::MetricsRegistry::Global();
  const ServerStats stats = server.Stats();
  registry.gauge("serve.queue_depth")
      .Set(static_cast<int64_t>(stats.queue_depth));
  registry.gauge("serve.running").Set(stats.running);
  registry.gauge("serve.retained_jobs")
      .Set(static_cast<int64_t>(stats.retained_jobs));

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  JsonObject object;
  object["ok"] = JsonValue::Bool(true);
  for (const auto& [name, value] : snapshot.counters) {
    object[name] = JsonValue::Number(static_cast<double>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    object[name] = JsonValue::Number(static_cast<double>(value));
  }
  for (const auto& [name, h] : snapshot.histograms) {
    object[name + ".count"] =
        JsonValue::Number(static_cast<double>(h.count));
    object[name + ".sum"] = JsonValue::Number(h.sum);
    object[name + ".mean"] = JsonValue::Number(h.mean());
    object[name + ".max"] = JsonValue::Number(h.max);
    object[name + ".p50"] = JsonValue::Number(h.Quantile(0.5));
    object[name + ".p90"] = JsonValue::Number(h.Quantile(0.9));
    object[name + ".p99"] = JsonValue::Number(h.Quantile(0.99));
    std::vector<std::string> buckets;
    for (size_t i = 0; i < h.counts.size(); ++i) {
      if (h.counts[i] == 0) continue;
      char bound[40];
      if (i < h.bounds.size()) {
        std::snprintf(bound, sizeof(bound), "%.3g", h.bounds[i]);
      } else {
        std::snprintf(bound, sizeof(bound), "+inf");
      }
      buckets.push_back(std::string(bound) + ":" +
                        std::to_string(h.counts[i]));
    }
    object[name + ".buckets"] = JsonValue::String(Join(buckets, " "));
  }
  return WriteJsonLine(object);
}

}  // namespace

DispatchResult Dispatch(DfsServer& server, const std::string& line) {
  auto request = ParseRequestLine(line);
  if (!request.ok()) return {ErrorResponse(request.status()), false};
  switch (request->op) {
    case Request::Op::kSubmit:
      return {HandleSubmit(server, request->submit), false};
    case Request::Op::kStatus:
      return {HandleStatus(server, request->id), false};
    case Request::Op::kResult:
      return {HandleResult(server, request->id), false};
    case Request::Op::kCancel:
      return {HandleCancel(server, request->id), false};
    case Request::Op::kStats:
      return {HandleStats(server), false};
    case Request::Op::kMetrics:
      return {HandleMetrics(server), false};
    case Request::Op::kCache:
      return {HandleCache(server), false};
    case Request::Op::kPing: {
      JsonObject object;
      object["ok"] = JsonValue::Bool(true);
      object["service"] = JsonValue::String("dfs-serve");
      object["protocol"] = JsonValue::Number(1);
      return {WriteJsonLine(object), false};
    }
    case Request::Op::kShutdown: {
      JsonObject object;
      object["ok"] = JsonValue::Bool(true);
      object["shutting_down"] = JsonValue::Bool(true);
      return {WriteJsonLine(object), true};
    }
  }
  return {ErrorResponse(InternalError("unhandled op")), false};
}

}  // namespace dfs::serve
