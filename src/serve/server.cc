#include "serve/server.h"

#include <algorithm>
#include <chrono>

#include "core/engine.h"
#include "core/scenario.h"
#include "data/benchmark_suite.h"
#include "data/synthetic.h"
#include "fs/feature_subset.h"
#include "fs/registry.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dfs::serve {
namespace {

/// dfs::obs instruments of the serve fleet. Counters mirror ServerStats
/// (same reconcile-at-quiescence contract); the gauges and the job-latency
/// histograms are what ServerStats cannot answer: instantaneous depth and
/// the shape of the end-to-end distribution, queryable over the wire via
/// the "metrics" verb.
struct ServeMetrics {
  obs::Counter& accepted;
  obs::Counter& rejected;
  obs::Counter& completed;
  obs::Counter& failed;
  obs::Counter& cancelled;
  obs::Counter& timed_out;
  obs::Gauge& queue_depth;
  obs::Gauge& running;
  obs::Histogram& queue_seconds;
  obs::Histogram& run_seconds;
  obs::Histogram& job_seconds;  ///< end-to-end: submit -> terminal

  static ServeMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Global();
    static ServeMetrics* metrics = new ServeMetrics{
        registry.counter("serve.jobs.accepted"),
        registry.counter("serve.jobs.rejected"),
        registry.counter("serve.jobs.completed"),
        registry.counter("serve.jobs.failed"),
        registry.counter("serve.jobs.cancelled"),
        registry.counter("serve.jobs.timed_out"),
        registry.gauge("serve.queue_depth"),
        registry.gauge("serve.running"),
        registry.histogram("serve.queue_seconds"),
        registry.histogram("serve.run_seconds"),
        registry.histogram("serve.job_seconds"),
    };
    return *metrics;
  }
};

/// Fingerprint of everything that determines a wrapper evaluation's
/// outcome for a job: the scenario identity (dataset name/shape, model,
/// constraint set) plus the engine options ExecuteJob derives from the
/// request (seed drives both the split and evaluation-side randomness).
/// Jobs with equal fingerprints compute byte-identical outcomes per mask
/// (DESIGN.md §2d), which is what makes sharing an L2 cache across them
/// sound. kSuiteVersion is deliberately NOT mixed in — the spill header
/// carries it separately so stale spills are rejected with the right
/// message (docs/CACHE.md).
uint64_t JobContextFingerprint(const JobRequest& request,
                               const data::Dataset& dataset) {
  uint64_t fp = core::ScenarioFingerprint(
      request.dataset, dataset.num_rows(), dataset.num_features(),
      request.model, request.constraint_set);
  const auto mix = [&fp](uint64_t value) {
    fp ^= value + 0x9E3779B97F4A7C15ULL + (fp << 6) + (fp >> 2);
  };
  mix(request.seed);
  mix(request.use_hpo ? 1 : 0);
  mix(request.maximize_utility ? 1 : 0);
  return fp;
}

}  // namespace

DfsServer::DfsServer(ServerOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity) {
  options_.num_workers = std::max(1, options_.num_workers);
  workers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

DfsServer::~DfsServer() { Shutdown(/*cancel_pending=*/true); }

void DfsServer::RegisterDataset(const std::string& name,
                                data::Dataset dataset) {
  util::MutexLock lock(datasets_mu_);
  datasets_[name] = std::make_shared<const data::Dataset>(std::move(dataset));
}

void DfsServer::SetOptimizer(core::DfsOptimizer optimizer) {
  auto installed =
      std::make_shared<const core::DfsOptimizer>(std::move(optimizer));
  util::MutexLock lock(optimizer_mu_);
  optimizer_ = std::move(installed);
}

StatusOr<JobId> DfsServer::Submit(const JobRequest& request) {
  if (!accepting_.load()) {
    return FailedPreconditionError("server is shutting down");
  }
  if (request.dataset.empty()) {
    return InvalidArgumentError("job request needs a dataset name");
  }
  // Reject unknown strategy names at the door (cheap client-error feedback;
  // these are not backpressure rejections and count toward neither
  // `accepted` nor `rejected`).
  if (request.strategy != "auto") {
    DFS_RETURN_IF_ERROR(
        fs::StrategyIdFromString(request.strategy).status());
  }

  const JobId id = next_id_.fetch_add(1);
  auto job = std::make_shared<Job>(id, request);
  {
    util::MutexLock lock(jobs_mu_);
    SweepLocked();
    jobs_.emplace(id, job);
  }
  switch (queue_.TrySubmit(job)) {
    case SubmitOutcome::kAccepted: {
      ServeMetrics::Get().accepted.Increment();
      ServeMetrics::Get().queue_depth.Set(
          static_cast<int64_t>(queue_.size()));
      util::MutexLock lock(stats_mu_);
      ++stats_.accepted;
      return id;
    }
    case SubmitOutcome::kQueueFull: {
      {
        util::MutexLock lock(jobs_mu_);
        jobs_.erase(id);
      }
      ServeMetrics::Get().rejected.Increment();
      util::MutexLock lock(stats_mu_);
      ++stats_.rejected;
      return ResourceExhaustedError(
          "queue full (capacity " + std::to_string(queue_.capacity()) +
          "): backpressure, retry later");
    }
    case SubmitOutcome::kClosed:
      break;
  }
  util::MutexLock lock(jobs_mu_);
  jobs_.erase(id);
  return FailedPreconditionError("server is shutting down");
}

StatusOr<JobStatusView> DfsServer::GetStatus(JobId id) const {
  std::shared_ptr<Job> job;
  {
    util::MutexLock lock(jobs_mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return NotFoundError("unknown or evicted job " + std::to_string(id));
    }
    job = it->second;
  }
  JobStatusView view;
  view.id = job->id();
  view.state = job->state();
  view.priority = job->request().priority;
  view.strategy = job->request().strategy;
  view.error = job->error();
  view.queue_seconds = job->queue_seconds();
  view.run_seconds = job->run_seconds();
  return view;
}

StatusOr<JobResult> DfsServer::GetResult(JobId id) const {
  std::shared_ptr<Job> job;
  {
    util::MutexLock lock(jobs_mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return NotFoundError("unknown or evicted job " + std::to_string(id));
    }
    job = it->second;
  }
  switch (job->state()) {
    case JobState::kDone:
    case JobState::kTimedOut:
      return job->result();
    case JobState::kFailed:
      return InternalError("job failed: " + job->error());
    case JobState::kCancelled:
      return CancelledError("job was cancelled");
    default:
      return FailedPreconditionError("job is not terminal yet");
  }
}

Status DfsServer::Cancel(JobId id) {
  std::shared_ptr<Job> job;
  {
    util::MutexLock lock(jobs_mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return NotFoundError("unknown or evicted job " + std::to_string(id));
    }
    job = it->second;
  }
  return CancelJob(job);
}

Status DfsServer::CancelJob(const std::shared_ptr<Job>& job) {
  const JobState state = job->state();
  if (IsTerminalState(state)) {
    if (state == JobState::kCancelled) return OkStatus();  // idempotent
    return FailedPreconditionError(std::string("job already terminal: ") +
                                   JobStateName(state));
  }
  job->RequestCancel();
  // Still queued: take it out of the queue and finish it here. If a worker
  // popped it in the meantime, Remove fails and the worker observes the
  // stop token instead — exactly one side records the terminal state.
  if (queue_.Remove(job->id())) {
    ServeMetrics::Get().queue_depth.Set(static_cast<int64_t>(queue_.size()));
    if (job->TryTransition(JobState::kCancelled)) {
      RecordTerminal(*job, /*evaluations=*/0);
    }
  }
  return OkStatus();
}

Status DfsServer::WaitForTerminal(JobId id, double timeout_seconds) const {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  util::MutexLock lock(jobs_mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return NotFoundError("unknown or evicted job " + std::to_string(id));
  }
  const std::shared_ptr<Job> job = it->second;
  while (!IsTerminalState(job->state())) {
    if (!terminal_cv_.WaitUntil(lock, deadline)) {
      if (IsTerminalState(job->state())) break;  // terminal at the wire
      return DeadlineExceededError("job " + std::to_string(id) +
                                   " not terminal after " +
                                   std::to_string(timeout_seconds) + "s");
    }
  }
  return OkStatus();
}

ServerStats DfsServer::Stats() const {
  ServerStats snapshot;
  {
    util::MutexLock lock(stats_mu_);
    snapshot = stats_;
  }
  snapshot.queue_depth = queue_.size();
  snapshot.running = running_.load();
  {
    util::MutexLock lock(jobs_mu_);
    snapshot.retained_jobs = jobs_.size();
  }
  return snapshot;
}

size_t DfsServer::QueueDepth() const { return queue_.size(); }

void DfsServer::Shutdown(bool cancel_pending) {
  util::MutexLock shutdown_lock(shutdown_mu_);
  if (shutdown_done_) return;
  accepting_.store(false);
  if (cancel_pending) {
    std::vector<std::shared_ptr<Job>> live;
    {
      util::MutexLock lock(jobs_mu_);
      // DFS_UNORDERED_OK: cancellation order is not results-affecting.
      for (const auto& [id, job] : jobs_) {
        if (!IsTerminalState(job->state())) live.push_back(job);
      }
    }
    for (const auto& job : live) (void)CancelJob(job);
  }
  queue_.Close();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  shutdown_done_ = true;
}

void DfsServer::WorkerLoop() {
  ServeMetrics& metrics = ServeMetrics::Get();
  while (std::shared_ptr<Job> job = queue_.PopBlocking()) {
    metrics.queue_depth.Set(static_cast<int64_t>(queue_.size()));
    if (job->cancel_requested()) {
      if (job->TryTransition(JobState::kCancelled)) {
        RecordTerminal(*job, /*evaluations=*/0);
      }
      continue;
    }
    if (!job->TryTransition(JobState::kRunning)) continue;
    running_.fetch_add(1);
    metrics.running.Add(1);
    const JobOutcome outcome = ExecuteJob(*job);
    // Drop the gauge before the terminal transition: anyone woken by
    // WaitForTerminal must not observe the finished job as still running.
    running_.fetch_sub(1);
    metrics.running.Add(-1);
    if (job->TryTransition(outcome.state)) {
      RecordTerminal(*job, outcome.evaluations);
    }
  }
}

DfsServer::JobOutcome DfsServer::ExecuteJob(Job& job) {
  obs::TraceSpan span("serve.job",
                      "id=" + std::to_string(job.id()) + " strategy=" +
                          job.request().strategy);
  const JobRequest& request = job.request();
  const auto fail = [&](const std::string& message) {
    job.set_error(message);
    return JobOutcome{JobState::kFailed, 0};
  };

  auto dataset = ResolveDataset(request.dataset);
  if (!dataset.ok()) return fail(dataset.status().ToString());

  const StatusOr<fs::StrategyId> strategy_id =
      request.strategy == "auto"
          ? StatusOr<fs::StrategyId>(ResolveAuto(**dataset, request))
          : fs::StrategyIdFromString(request.strategy);
  if (!strategy_id.ok()) return fail(strategy_id.status().ToString());
  const std::unique_ptr<fs::FeatureSelectionStrategy> strategy =
      fs::CreateStrategy(*strategy_id, request.seed);

  Rng rng(request.seed);
  auto scenario = core::MakeScenario(**dataset, request.model,
                                     request.constraint_set, rng);
  if (!scenario.ok()) return fail(scenario.status().ToString());

  core::EngineOptions engine_options;
  engine_options.use_hpo = request.use_hpo;
  engine_options.maximize_f1_utility = request.maximize_utility;
  engine_options.seed = request.seed;
  engine_options.stop_token = job.stop_token();
  // Split the process-wide thread budget across the worker fleet so
  // num_workers concurrently-running jobs do not oversubscribe the host.
  engine_options.num_threads =
      std::max(1, HardwareThreadBudget() / std::max(1, options_.num_workers));
  if (options_.share_eval_cache) {
    engine_options.shared_cache = eval_caches_.GetOrCreate(
        JobContextFingerprint(request, **dataset));
  }
  core::DfsEngine engine(*std::move(scenario), engine_options);
  const core::RunResult run = engine.Run(*strategy);

  JobResult result;
  result.success = run.success;
  result.strategy = strategy->name();
  result.features = fs::MaskToIndices(run.selected);
  const auto& names = (*dataset)->feature_names();
  for (int feature : result.features) {
    result.feature_names.push_back(names[feature]);
  }
  result.validation_values = run.validation_values;
  result.test_values = run.test_values;
  result.search_seconds = run.search_seconds;
  result.evaluations = run.evaluations;
  job.set_result(std::move(result));

  const JobState final_state = run.cancelled  ? JobState::kCancelled
                               : run.timed_out ? JobState::kTimedOut
                                               : JobState::kDone;
  return JobOutcome{final_state, run.evaluations};
}

fs::StrategyId DfsServer::ResolveAuto(const data::Dataset& dataset,
                                      const JobRequest& request) const {
  std::shared_ptr<const core::DfsOptimizer> optimizer;
  {
    util::MutexLock lock(optimizer_mu_);
    optimizer = optimizer_;
  }
  if (optimizer == nullptr) return kAutoFallback;
  // The two calls of DeclarativeFeatureSelection::SelectWithOptimizer.
  auto features =
      core::FeaturizeScenario(dataset, request.model, request.constraint_set,
                              core::OptimizerOptions{});
  if (!features.ok()) {
    DFS_LOG(WARNING) << "auto: featurization failed: "
                     << features.status().ToString();
    return kAutoFallback;
  }
  auto chosen = optimizer->Choose(*features);
  if (!chosen.ok()) {
    DFS_LOG(WARNING) << "auto: prediction failed: "
                     << chosen.status().ToString();
    return kAutoFallback;
  }
  return *chosen;
}

void DfsServer::RecordTerminal(const Job& job, int evaluations) {
  ServeMetrics& metrics = ServeMetrics::Get();
  {
    util::MutexLock lock(stats_mu_);
    switch (job.state()) {
      case JobState::kDone:
        ++stats_.completed;
        metrics.completed.Increment();
        break;
      case JobState::kFailed:
        ++stats_.failed;
        metrics.failed.Increment();
        break;
      case JobState::kCancelled:
        ++stats_.cancelled;
        metrics.cancelled.Increment();
        break;
      case JobState::kTimedOut:
        ++stats_.timed_out;
        metrics.timed_out.Increment();
        break;
      default:
        DFS_LOG(WARNING) << "RecordTerminal on non-terminal job";
        return;
    }
    stats_.evaluations += static_cast<uint64_t>(evaluations);
    stats_.queue_seconds_total += job.queue_seconds();
    const double run_seconds = job.run_seconds();
    stats_.run_seconds_total += run_seconds;
    stats_.run_seconds_max = std::max(stats_.run_seconds_max, run_seconds);
  }
  metrics.queue_seconds.Record(job.queue_seconds());
  metrics.run_seconds.Record(job.run_seconds());
  metrics.job_seconds.Record(job.queue_seconds() + job.run_seconds());
  // Pairing the notify with the waiters' mutex closes the missed-wakeup
  // window (the state transition itself happens under the job's own lock).
  { util::MutexLock lock(jobs_mu_); }
  terminal_cv_.NotifyAll();
}

StatusOr<std::shared_ptr<const data::Dataset>> DfsServer::ResolveDataset(
    const std::string& name) {
  util::MutexLock lock(datasets_mu_);
  auto it = datasets_.find(name);
  if (it != datasets_.end()) return it->second;
  // Fall back to the benchmark suite, generating (and caching) on first
  // use. Generation holds the lock — concurrent first requests for
  // different suite datasets serialize, which is fine at service scale.
  auto spec = data::BenchmarkSpecByName(name);
  if (!spec.ok()) {
    return NotFoundError("unknown dataset '" + name +
                         "' (not registered, not in the benchmark suite)");
  }
  auto generated =
      data::GenerateDataset(*spec, options_.seed, options_.dataset_row_scale);
  if (!generated.ok()) return generated.status();
  auto shared =
      std::make_shared<const data::Dataset>(*std::move(generated));
  datasets_[name] = shared;
  return shared;
}

void DfsServer::SweepLocked() {
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    const Job& job = *it->second;
    if (IsTerminalState(job.state()) &&
        job.seconds_since_terminal() > options_.result_ttl_seconds) {
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
  if (jobs_.size() <= options_.max_retained_jobs) return;
  std::vector<std::pair<double, JobId>> terminal;  // (age, id)
  // DFS_UNORDERED_OK: the (age desc, id) sort below imposes a total order.
  for (const auto& [id, job] : jobs_) {
    if (IsTerminalState(job->state())) {
      terminal.emplace_back(job->seconds_since_terminal(), id);
    }
  }
  // Tie-break on id: with age alone, equal-aged jobs would be evicted in
  // unordered_map iteration order (std::sort is unstable).
  std::sort(terminal.begin(), terminal.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (const auto& [age, id] : terminal) {
    if (jobs_.size() <= options_.max_retained_jobs) break;
    jobs_.erase(id);
  }
}

}  // namespace dfs::serve
