#ifndef DFS_SERVE_SERVER_H_
#define DFS_SERVE_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/eval_cache.h"
#include "core/optimizer.h"
#include "data/dataset.h"
#include "fs/registry.h"
#include "serve/job.h"
#include "serve/job_queue.h"
#include "util/mutex.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace dfs::serve {

/// What an "auto" job runs when no meta-optimizer is installed: SFFS(NR),
/// the paper's best all-round single strategy.
inline constexpr fs::StrategyId kAutoFallback = fs::StrategyId::kSffs;

/// Static configuration of a DfsServer.
struct ServerOptions {
  /// Worker threads executing jobs (minimum 1).
  int num_workers = 4;
  /// Bounded queue capacity; a full queue rejects submissions
  /// (backpressure) instead of blocking.
  size_t queue_capacity = 64;
  /// Terminal jobs (and their results) are retained for this long so
  /// clients can poll; older ones are evicted.
  double result_ttl_seconds = 300.0;
  /// Hard cap on retained jobs regardless of TTL (oldest-terminal-first
  /// eviction). Non-terminal jobs are never evicted.
  size_t max_retained_jobs = 4096;
  /// Row scale for benchmark-suite datasets generated on demand.
  double dataset_row_scale = 1.0;
  /// Seed for dataset generation and scenario splitting.
  uint64_t seed = 7;
  /// Share wrapper evaluations across jobs: each job's engine gets the
  /// eval-cache registry's shared L2 cache for its evaluation-context
  /// fingerprint (dataset + model + constraint set + seed + engine
  /// options), so a resubmitted or similar job reuses prior trainings.
  /// The registry is also what dfs_serverd spills to --eval-cache-state
  /// across restarts (docs/CACHE.md).
  bool share_eval_cache = true;
};

/// Monotonic service counters plus instantaneous gauges. Once the system
/// is quiescent (no queued or running jobs), the counters reconcile:
/// accepted == completed + failed + cancelled + timed_out. A concurrent
/// snapshot reads the counters and gauges under separate locks, so it can
/// transiently miss a job in flight between them (popped but not yet
/// running, or finished but not yet counted terminal) — treat
/// accepted == terminal() + queue_depth + running as approximate while
/// jobs are moving. Rejected submissions are never part of accepted.
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;   ///< kQueueFull backpressure rejections
  uint64_t completed = 0;  ///< reached DONE
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  uint64_t timed_out = 0;
  uint64_t evaluations = 0;  ///< wrapper evaluations across all jobs

  size_t queue_depth = 0;
  int running = 0;
  size_t retained_jobs = 0;

  double queue_seconds_total = 0.0;  ///< terminal jobs' time spent queued
  double run_seconds_total = 0.0;    ///< terminal jobs' time spent running
  double run_seconds_max = 0.0;

  uint64_t terminal() const {
    return completed + failed + cancelled + timed_out;
  }
};

/// Client-facing snapshot of one job.
struct JobStatusView {
  JobId id = 0;
  JobState state = JobState::kQueued;
  int priority = 0;
  std::string strategy;  ///< as requested ("auto" until resolved)
  std::string error;     ///< FAILED details
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
};

/// The DFS job service: a bounded job queue feeding a fixed worker fleet,
/// each worker running one DfsEngine search per job with cooperative
/// cancellation, plus a TTL-bounded result store and service counters.
///
///   DfsServer server({.num_workers = 4});
///   server.RegisterDataset("loans", dataset);
///   auto id = server.Submit({.dataset = "loans", .strategy = "auto",
///                            .constraint_set = constraints});
///   server.WaitForTerminal(*id, /*timeout_seconds=*/60);
///   auto result = server.GetResult(*id);
///
/// All public methods are thread-safe; the TCP front-end calls them from
/// one thread per connection.
class DfsServer {
 public:
  explicit DfsServer(ServerOptions options = {});
  ~DfsServer();

  DfsServer(const DfsServer&) = delete;
  DfsServer& operator=(const DfsServer&) = delete;

  /// Makes `dataset` addressable by JobRequest::dataset. Replaces any
  /// previous dataset of the same name (future jobs only).
  void RegisterDataset(const std::string& name, data::Dataset dataset);

  /// Installs a trained meta-optimizer. "auto" jobs that start after this
  /// call run its argmax (Algorithm 1's deployment phase); without one
  /// they run kAutoFallback.
  void SetOptimizer(core::DfsOptimizer optimizer);

  /// The shared eval-cache registry (one cache per evaluation-context
  /// fingerprint; see ServerOptions::share_eval_cache). The daemon spills
  /// and restores it through --eval-cache-state; the `cache` verb reports
  /// its Stats().
  core::EvalCacheRegistry& eval_caches() { return eval_caches_; }
  const core::EvalCacheRegistry& eval_caches() const { return eval_caches_; }

  /// Submits a job. Errors: ResourceExhausted (queue full — retry later),
  /// FailedPrecondition (server shutting down).
  StatusOr<JobId> Submit(const JobRequest& request);

  /// NotFound once a job has been evicted from the result store.
  StatusOr<JobStatusView> GetStatus(JobId id) const;

  /// Result of a DONE (or best-effort TIMED_OUT) job. Errors: NotFound,
  /// FailedPrecondition (not terminal yet), Cancelled, Internal (FAILED).
  StatusOr<JobResult> GetResult(JobId id) const;

  /// Requests cancellation. A queued job is cancelled immediately; a
  /// running job stops within one wrapper evaluation (the engine's stop
  /// token is checked at every evaluation boundary). Errors: NotFound,
  /// FailedPrecondition (already in a non-cancelled terminal state).
  Status Cancel(JobId id);

  /// Blocks until the job is terminal or `timeout_seconds` elapse; returns
  /// DeadlineExceeded on timeout, NotFound if unknown/evicted.
  Status WaitForTerminal(JobId id, double timeout_seconds) const;

  ServerStats Stats() const;

  /// Instantaneous bounded-queue depth (one lock acquisition). The event
  /// loop's admission control polls this per submit line (DESIGN.md §2j).
  size_t QueueDepth() const;

  /// Stops the fleet. With `cancel_pending` (default) queued jobs are
  /// cancelled and running jobs get their stop token flipped, so shutdown
  /// completes within about one wrapper evaluation; otherwise the fleet
  /// drains the queue first. Idempotent; also called by the destructor.
  void Shutdown(bool cancel_pending = true);

  const ServerOptions& options() const { return options_; }

 private:
  /// Terminal state a finished execution should transition to, plus the
  /// evaluation count to charge to the stats.
  struct JobOutcome {
    JobState state;
    int evaluations = 0;
  };

  void WorkerLoop();
  /// Runs the search for `job` (already RUNNING) and fills its result or
  /// error, but does NOT transition the state — the worker loop does that
  /// after dropping the running gauge.
  JobOutcome ExecuteJob(Job& job);
  Status CancelJob(const std::shared_ptr<Job>& job);
  void RecordTerminal(const Job& job, int evaluations);
  /// Resolves "auto" for one job on its worker: the installed optimizer's
  /// argmax over the job's scenario features, or kAutoFallback when no
  /// optimizer is installed or featurization / prediction fails.
  fs::StrategyId ResolveAuto(const data::Dataset& dataset,
                             const JobRequest& request) const;
  StatusOr<std::shared_ptr<const data::Dataset>> ResolveDataset(
      const std::string& name);
  /// Evicts expired / over-cap terminal jobs.
  void SweepLocked() DFS_REQUIRES(jobs_mu_);

  ServerOptions options_;
  JobQueue queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> accepting_{true};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<int> running_{0};

  mutable util::Mutex jobs_mu_;
  mutable util::CondVar terminal_cv_;
  std::unordered_map<JobId, std::shared_ptr<Job>> jobs_
      DFS_GUARDED_BY(jobs_mu_);

  mutable util::Mutex datasets_mu_;
  std::map<std::string, std::shared_ptr<const data::Dataset>> datasets_
      DFS_GUARDED_BY(datasets_mu_);

  /// Set by SetOptimizer. The lock is held only to copy the pointer, so a
  /// worker featurizes and predicts outside it.
  mutable util::Mutex optimizer_mu_;
  std::shared_ptr<const core::DfsOptimizer> optimizer_
      DFS_GUARDED_BY(optimizer_mu_);

  /// Shared L2 eval caches keyed by evaluation-context fingerprint
  /// (internally synchronized; workers attach per-job caches from it).
  core::EvalCacheRegistry eval_caches_;

  mutable util::Mutex stats_mu_;
  ServerStats stats_ DFS_GUARDED_BY(stats_mu_);

  /// Serializes Shutdown and makes it idempotent (a second caller blocks
  /// until the first finishes, then sees shutdown_done_). Replaces the
  /// previous std::once_flag with the annotated idiom.
  util::Mutex shutdown_mu_;
  bool shutdown_done_ DFS_GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace dfs::serve

#endif  // DFS_SERVE_SERVER_H_
