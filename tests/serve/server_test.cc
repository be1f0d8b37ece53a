#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/event_loop.h"
#include "serve/frontend.h"
#include "serve/line_protocol.h"
#include "serve/tcp.h"
#include "testing/test_util.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace dfs::serve {
namespace {

constexpr char kDataset[] = "serve-lin";

/// Server over a small registered dataset (6 encoded features) so each
/// wrapper evaluation costs milliseconds.
ServerOptions FastOptions(int workers, size_t capacity) {
  ServerOptions options;
  options.num_workers = workers;
  options.queue_capacity = capacity;
  return options;
}

std::unique_ptr<DfsServer> MakeServer(int workers, size_t capacity) {
  auto server = std::make_unique<DfsServer>(FastOptions(workers, capacity));
  server->RegisterDataset(kDataset,
                          testing::MakeLinearDataset(200, 4, 1234));
  return server;
}

JobRequest EasyJob(uint64_t seed = 42) {
  JobRequest request;
  request.dataset = kDataset;
  request.strategy = "SFS(NR)";
  constraints::ConstraintSet set;
  set.min_f1 = 0.5;
  set.max_search_seconds = 10.0;
  request.constraint_set = set;
  request.seed = seed;
  return request;
}

/// A job that cannot satisfy its constraints and never exhausts its search
/// space, so it runs for its whole budget unless cancelled.
JobRequest EndlessJob(double budget_seconds, uint64_t seed = 42) {
  JobRequest request;
  request.dataset = kDataset;
  request.strategy = "SA(NR)";
  constraints::ConstraintSet set;
  set.min_f1 = 0.999;
  set.max_search_seconds = budget_seconds;
  request.constraint_set = set;
  request.seed = seed;
  return request;
}

Status WaitForState(const DfsServer& server, JobId id, JobState state,
                    double timeout_seconds) {
  Stopwatch stopwatch;
  while (stopwatch.ElapsedSeconds() < timeout_seconds) {
    auto view = server.GetStatus(id);
    if (!view.ok()) return view.status();
    if (view->state == state) return OkStatus();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return DeadlineExceededError("state not reached");
}

// ---- The ISSUE acceptance demo --------------------------------------

TEST(DfsServerTest, ThirtyTwoConcurrentJobsOnFourWorkers) {
  auto server = MakeServer(/*workers=*/4, /*capacity=*/64);
  std::vector<JobId> ids;
  for (int i = 0; i < 32; ++i) {
    auto id = server->Submit(EasyJob(/*seed=*/100 + i));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  for (const JobId id : ids) {
    ASSERT_TRUE(server->WaitForTerminal(id, 120.0).ok()) << "job " << id;
  }
  int successes = 0;
  for (const JobId id : ids) {
    auto view = server->GetStatus(id);
    ASSERT_TRUE(view.ok());
    EXPECT_TRUE(IsTerminalState(view->state));
    auto result = server->GetResult(id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->strategy.empty());
    EXPECT_GT(result->evaluations, 0);
    if (result->success) {
      ++successes;
      EXPECT_FALSE(result->features.empty());
      EXPECT_EQ(result->features.size(), result->feature_names.size());
      EXPECT_GE(result->validation_values.f1, 0.5);
    }
  }
  EXPECT_GT(successes, 0);  // the scenario is easy; most jobs satisfy it

  // Counters reconcile: every accepted job reached exactly one terminal
  // counter; rejected is separate and zero here.
  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.accepted, 32u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.terminal(),
            stats.completed + stats.failed + stats.cancelled +
                stats.timed_out);
  EXPECT_EQ(stats.accepted, stats.terminal());
  EXPECT_EQ(stats.completed, 32u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.running, 0);
  EXPECT_GT(stats.evaluations, 0u);
  EXPECT_GT(stats.run_seconds_total, 0.0);
  EXPECT_GE(stats.run_seconds_total, stats.run_seconds_max);
}

TEST(DfsServerTest, FullQueueRejectsInsteadOfBlocking) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/2);
  auto running = server->Submit(EndlessJob(30.0));
  ASSERT_TRUE(running.ok());
  // Deterministic backpressure: wait until the single worker owns job 1,
  // then exactly two submissions fit in the queue.
  ASSERT_TRUE(
      WaitForState(*server, *running, JobState::kRunning, 10.0).ok());
  auto queued1 = server->Submit(EndlessJob(30.0));
  ASSERT_TRUE(queued1.ok());
  auto queued2 = server->Submit(EndlessJob(30.0));
  ASSERT_TRUE(queued2.ok());

  Stopwatch stopwatch;
  auto rejected = server->Submit(EndlessJob(30.0));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(stopwatch.ElapsedSeconds(), 1.0);  // backpressure, not blocking

  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.queue_depth, 2u);

  // Cancelling a queued job frees a slot for a new submission.
  ASSERT_TRUE(server->Cancel(*queued1).ok());
  EXPECT_TRUE(server->Submit(EasyJob()).ok());
  server->Shutdown(/*cancel_pending=*/true);
}

TEST(DfsServerTest, CancellingARunningJobStopsItPromptly) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  // Budget 30 s; the test only passes if cancellation cuts that short.
  auto id = server->Submit(EndlessJob(30.0));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(WaitForState(*server, *id, JobState::kRunning, 10.0).ok());

  Stopwatch stopwatch;
  ASSERT_TRUE(server->Cancel(*id).ok());
  ASSERT_TRUE(server->WaitForTerminal(*id, 10.0).ok());
  // "Within one evaluation": evaluations on the 6-feature dataset cost
  // milliseconds, so seconds of slack is already generous.
  EXPECT_LT(stopwatch.ElapsedSeconds(), 5.0);

  auto view = server->GetStatus(*id);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->state, JobState::kCancelled);
  EXPECT_EQ(server->GetResult(*id).status().code(), StatusCode::kCancelled);
  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.accepted, stats.terminal());
}

TEST(DfsServerTest, CancellingAQueuedJobNeverRuns) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  auto running = server->Submit(EndlessJob(30.0));
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(
      WaitForState(*server, *running, JobState::kRunning, 10.0).ok());
  auto queued = server->Submit(EasyJob());
  ASSERT_TRUE(queued.ok());
  ASSERT_TRUE(server->Cancel(*queued).ok());
  auto view = server->GetStatus(*queued);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->state, JobState::kCancelled);
  EXPECT_EQ(view->run_seconds, 0.0);
  // Cancel is idempotent; cancelling a terminal non-cancelled job is not.
  EXPECT_TRUE(server->Cancel(*queued).ok());
  server->Shutdown(/*cancel_pending=*/true);
}

TEST(DfsServerTest, TimedOutJobReportsBestEffortResult) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  auto id = server->Submit(EndlessJob(/*budget_seconds=*/0.3));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(server->WaitForTerminal(*id, 30.0).ok());
  auto view = server->GetStatus(*id);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->state, JobState::kTimedOut);
  auto result = server->GetResult(*id);  // best subset found, not success
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->success);
  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.timed_out, 1u);
}

TEST(DfsServerTest, UnknownDatasetFailsTheJob) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  JobRequest request = EasyJob();
  request.dataset = "no-such-dataset";
  auto id = server->Submit(request);
  ASSERT_TRUE(id.ok());  // submit accepts; resolution happens in the worker
  ASSERT_TRUE(server->WaitForTerminal(*id, 30.0).ok());
  auto view = server->GetStatus(*id);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->state, JobState::kFailed);
  EXPECT_NE(view->error.find("no-such-dataset"), std::string::npos);
  EXPECT_EQ(server->GetResult(*id).status().code(), StatusCode::kInternal);
  EXPECT_EQ(server->Stats().failed, 1u);
}

TEST(DfsServerTest, UnknownStrategyRejectedAtSubmit) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  JobRequest request = EasyJob();
  request.strategy = "GradientDescent(NR)";
  auto id = server->Submit(request);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kNotFound);
  // Client errors are neither accepted nor backpressure rejections.
  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(DfsServerTest, AutoStrategyFallsBackWithoutOptimizer) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  JobRequest request = EasyJob();
  request.strategy = "auto";
  auto id = server->Submit(request);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(server->WaitForTerminal(*id, 60.0).ok());
  auto result = server->GetResult(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy, "SFFS(NR)");  // documented default
}

// An "auto" submit is accepted like any other (ok, id, QUEUED); the
// strategy it resolved to arrives on the result line.
TEST(DfsServerTest, RoutedSubmitResponseCarriesRouteFields) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  JsonObject response =
      ParseJsonLine(Dispatch(*server,
                             std::string(R"({"op":"submit","dataset":")") +
                                 kDataset +
                                 R"js(","strategy":"auto","min_f1":0.5,)js"
                                 R"js("budget":10})js")
                        .response)
          .value_or(JsonObject{});
  ASSERT_TRUE(GetBool(response, "ok").value_or(false));
  EXPECT_EQ(GetString(response, "state").value_or(""), "QUEUED");
  EXPECT_EQ(response.size(), 3u);
  EXPECT_FALSE(GetString(response, "strategy").ok());
  const int id = static_cast<int>(GetNumber(response, "id").value_or(0));
  ASSERT_TRUE(server->WaitForTerminal(id, 60.0).ok());

  JsonObject result =
      ParseJsonLine(Dispatch(*server, R"({"op":"result","id":)" +
                                          std::to_string(id) + "}")
                        .response)
          .value_or(JsonObject{});
  ASSERT_TRUE(GetBool(result, "ok").value_or(false));
  EXPECT_EQ(GetString(result, "strategy").value_or(""), "SFFS(NR)");
}

// The "router" verb is gone: it answers bad_request like any unknown op.
TEST(DfsServerTest, RouterVerbReportsRoutingState) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/4);
  JsonObject response =
      ParseJsonLine(Dispatch(*server, R"({"op":"router"})").response)
          .value_or(JsonObject{});
  EXPECT_FALSE(GetBool(response, "ok").value_or(true));
  EXPECT_EQ(GetString(response, "error").value_or(""), "bad_request");
}

TEST(DfsServerTest, PriorityJobsOvertakeTheQueue) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/8);
  auto head = server->Submit(EndlessJob(30.0));
  ASSERT_TRUE(head.ok());
  ASSERT_TRUE(WaitForState(*server, *head, JobState::kRunning, 10.0).ok());
  JobRequest low = EasyJob(1);
  JobRequest high = EasyJob(2);
  high.priority = 5;
  auto low_id = server->Submit(low);
  auto high_id = server->Submit(high);
  ASSERT_TRUE(low_id.ok());
  ASSERT_TRUE(high_id.ok());
  ASSERT_TRUE(server->Cancel(*head).ok());  // free the worker
  ASSERT_TRUE(server->WaitForTerminal(*high_id, 60.0).ok());
  // The high-priority job must not still be sitting behind the low one.
  auto low_view = server->GetStatus(*low_id);
  ASSERT_TRUE(low_view.ok());
  auto high_view = server->GetStatus(*high_id);
  ASSERT_TRUE(high_view.ok());
  EXPECT_TRUE(IsTerminalState(high_view->state));
  server->Shutdown(/*cancel_pending=*/true);
}

TEST(DfsServerTest, ResultStoreEvictsByTtl) {
  ServerOptions options = FastOptions(/*workers=*/1, /*capacity=*/8);
  options.result_ttl_seconds = 0.05;
  DfsServer server(options);
  server.RegisterDataset(kDataset, testing::MakeLinearDataset(200, 4, 1234));
  auto id = server.Submit(EasyJob());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(server.WaitForTerminal(*id, 60.0).ok());
  ASSERT_TRUE(server.GetStatus(*id).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The sweep runs on submission.
  ASSERT_TRUE(server.Submit(EasyJob()).ok());
  EXPECT_EQ(server.GetStatus(*id).status().code(), StatusCode::kNotFound);
}

TEST(DfsServerTest, ShutdownCancelsPendingWork) {
  auto server = MakeServer(/*workers=*/1, /*capacity=*/8);
  auto running = server->Submit(EndlessJob(30.0));
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(
      WaitForState(*server, *running, JobState::kRunning, 10.0).ok());
  auto queued = server->Submit(EndlessJob(30.0));
  ASSERT_TRUE(queued.ok());

  Stopwatch stopwatch;
  server->Shutdown(/*cancel_pending=*/true);
  EXPECT_LT(stopwatch.ElapsedSeconds(), 10.0);  // not the 30 s budgets
  EXPECT_EQ(server->GetStatus(*running)->state, JobState::kCancelled);
  EXPECT_EQ(server->GetStatus(*queued)->state, JobState::kCancelled);
  EXPECT_EQ(server->Submit(EasyJob()).status().code(),
            StatusCode::kFailedPrecondition);
  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.accepted, stats.terminal());
}

// ---- TCP front-end end-to-end ---------------------------------------

TEST(ServeFrontendTest, TcpLineProtocolEndToEnd) {
  auto server = MakeServer(/*workers=*/2, /*capacity=*/8);
  EventLoopFrontEnd frontend(*server);
  ASSERT_TRUE(frontend.Start().ok());

  auto fd = TcpConnect("127.0.0.1", frontend.port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  LineChannel client(*fd);
  const auto round_trip = [&client](const std::string& line) {
    EXPECT_TRUE(client.WriteLine(line).ok());
    auto response = client.ReadLine();
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    auto object = ParseJsonLine(response.value_or("{}"));
    EXPECT_TRUE(object.ok()) << *response;
    return object.value_or(JsonObject{});
  };

  JsonObject pong = round_trip(R"({"op":"ping"})");
  EXPECT_TRUE(GetBool(pong, "ok").value_or(false));
  EXPECT_EQ(GetString(pong, "service").value_or(""), "dfs-serve");

  JsonObject submitted = round_trip(
      std::string(R"({"op":"submit","dataset":")") + kDataset +
      R"js(","strategy":"SFS(NR)","min_f1":0.5,"budget":10})js");
  ASSERT_TRUE(GetBool(submitted, "ok").value_or(false));
  const int id = static_cast<int>(GetNumber(submitted, "id").value_or(0));
  ASSERT_GT(id, 0);

  // Poll over the wire until terminal.
  std::string state = "QUEUED";
  Stopwatch stopwatch;
  while ((state == "QUEUED" || state == "RUNNING") &&
         stopwatch.ElapsedSeconds() < 60.0) {
    JsonObject status = round_trip(
        R"({"op":"status","id":)" + std::to_string(id) + "}");
    ASSERT_TRUE(GetBool(status, "ok").value_or(false));
    state = GetString(status, "state").value_or("");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(state, "DONE");

  JsonObject result = round_trip(
      R"({"op":"result","id":)" + std::to_string(id) + "}");
  EXPECT_TRUE(GetBool(result, "ok").value_or(false));
  EXPECT_TRUE(GetBool(result, "success").value_or(false));
  EXPECT_EQ(GetString(result, "strategy").value_or(""), "SFS(NR)");
  EXPECT_GT(GetNumber(result, "num_features").value_or(0), 0);

  // Unknown job over the wire.
  JsonObject missing = round_trip(R"({"op":"status","id":999})");
  EXPECT_FALSE(GetBool(missing, "ok").value_or(true));
  EXPECT_EQ(GetString(missing, "error").value_or(""), "not_found");

  // Malformed line gets a structured error, and the connection survives.
  EXPECT_TRUE(client.WriteLine("this is not json").ok());
  auto error_line = client.ReadLine();
  ASSERT_TRUE(error_line.ok());
  auto error = ParseJsonLine(*error_line);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(GetString(*error, "error").value_or(""), "bad_request");

  JsonObject stats = round_trip(R"({"op":"stats"})");
  EXPECT_TRUE(GetBool(stats, "ok").value_or(false));
  EXPECT_GE(GetNumber(stats, "accepted").value_or(0), 1.0);
  EXPECT_EQ(GetNumber(stats, "rejected").value_or(-1), 0.0);

  JsonObject bye = round_trip(R"({"op":"shutdown"})");
  EXPECT_TRUE(GetBool(bye, "shutting_down").value_or(false));
  EXPECT_TRUE(frontend.Wait());  // the wire shutdown stopped the front-end
}

TEST(ServeFrontendTest, MetricsVerbRoundTripsOverTcp) {
  auto server = MakeServer(/*workers=*/2, /*capacity=*/8);
  EventLoopFrontEnd frontend(*server);
  ASSERT_TRUE(frontend.Start().ok());

  auto fd = TcpConnect("127.0.0.1", frontend.port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  LineChannel client(*fd);
  const auto round_trip = [&client](const std::string& line) {
    EXPECT_TRUE(client.WriteLine(line).ok());
    auto response = client.ReadLine();
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    auto object = ParseJsonLine(response.value_or("{}"));
    EXPECT_TRUE(object.ok()) << *response;
    return object.value_or(JsonObject{});
  };

  // Run a job to completion so the serve counters and the job-latency
  // histogram have observations.
  JsonObject submitted = round_trip(
      std::string(R"({"op":"submit","dataset":")") + kDataset +
      R"js(","strategy":"SFS(NR)","min_f1":0.5,"budget":10})js");
  ASSERT_TRUE(GetBool(submitted, "ok").value_or(false));
  const int id = static_cast<int>(GetNumber(submitted, "id").value_or(0));
  std::string state = "QUEUED";
  Stopwatch stopwatch;
  while ((state == "QUEUED" || state == "RUNNING") &&
         stopwatch.ElapsedSeconds() < 60.0) {
    JsonObject status = round_trip(
        R"({"op":"status","id":)" + std::to_string(id) + "}");
    state = GetString(status, "state").value_or("");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(state, "DONE");

  JsonObject metrics = round_trip(R"({"op":"metrics"})");
  EXPECT_TRUE(GetBool(metrics, "ok").value_or(false));
  // Cumulative job-state counters (the obs mirror of ServerStats).
  EXPECT_GE(GetNumber(metrics, "serve.jobs.completed").value_or(-1), 1.0);
  // Live gauges refreshed from server state at request time.
  EXPECT_EQ(GetNumber(metrics, "serve.queue_depth").value_or(-1), 0.0);
  EXPECT_EQ(GetNumber(metrics, "serve.running").value_or(-1), 0.0);
  // The flattened end-to-end latency histogram has the finished job.
  EXPECT_GE(GetNumber(metrics, "serve.job_seconds.count").value_or(-1),
            1.0);
  EXPECT_GT(GetNumber(metrics, "serve.job_seconds.sum").value_or(-1), 0.0);
  EXPECT_GE(GetNumber(metrics, "serve.job_seconds.p50").value_or(-1), 0.0);
  ASSERT_TRUE(GetString(metrics, "serve.job_seconds.buckets").ok());
  EXPECT_FALSE(
      GetString(metrics, "serve.job_seconds.buckets").value_or("").empty());
  // Engine instrumentation flows through the same snapshot.
  EXPECT_GE(GetNumber(metrics, "engine.evaluations").value_or(-1), 1.0);

  JsonObject bye = round_trip(R"({"op":"shutdown"})");
  EXPECT_TRUE(GetBool(bye, "shutting_down").value_or(false));
  EXPECT_TRUE(frontend.Wait());  // the wire shutdown stopped the front-end
}

}  // namespace
}  // namespace dfs::serve
