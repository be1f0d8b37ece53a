#ifndef DFS_SERVE_JOB_H_
#define DFS_SERVE_JOB_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "constraints/constraint_set.h"
#include "ml/classifier.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dfs::serve {

using JobId = uint64_t;

/// Lifecycle of a job inside the DFS job service:
///
///   QUEUED ──> RUNNING ──> DONE | FAILED | CANCELLED | TIMED_OUT
///      └────────────────────────────────────> CANCELLED
///
/// DONE means the search finished under its own rules (a satisfying subset
/// was found, or the strategy exhausted its space — JobResult::success says
/// which); FAILED means the job could not run (unknown dataset/strategy,
/// scenario construction error); TIMED_OUT means the constraint-set search
/// budget expired; CANCELLED means a client cancelled it while queued or
/// running.
enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  kTimedOut,
};

/// Wire/display name, e.g. "QUEUED", "TIMED_OUT".
const char* JobStateName(JobState state);

/// True for DONE, FAILED, CANCELLED and TIMED_OUT.
bool IsTerminalState(JobState state);

/// True iff `from -> to` is an edge of the lifecycle diagram above.
bool IsValidTransition(JobState from, JobState to);

/// A declarative feature-selection request as submitted to the service: the
/// ML scenario spec (dataset by name, model, constraint set) plus how to
/// search (a strategy name from the registry, or "auto" to let the server's
/// meta-optimizer choose) and queueing metadata.
struct JobRequest {
  /// Name of a dataset registered on the server or of a benchmark-suite
  /// dataset (generated on first use).
  std::string dataset;
  ml::ModelKind model = ml::ModelKind::kLogisticRegression;
  /// Registry name (e.g. "SFFS(NR)", "TPE(FCBF)") or "auto".
  std::string strategy = "auto";
  constraints::ConstraintSet constraint_set;
  bool use_hpo = false;
  bool maximize_utility = false;
  /// Higher-priority jobs run first; equal priorities run FIFO.
  int priority = 0;
  uint64_t seed = 42;
};

/// Final outcome of a DONE (or best-effort TIMED_OUT) job.
struct JobResult {
  bool success = false;
  /// Strategy that actually ran (resolved from "auto" if requested).
  std::string strategy;
  std::vector<int> features;
  std::vector<std::string> feature_names;
  constraints::MetricValues validation_values;
  constraints::MetricValues test_values;
  double search_seconds = 0.0;
  int evaluations = 0;
};

/// One job owned by the DfsServer: request, state machine, result slot and
/// the cooperative stop token shared with the engine. State transitions and
/// reads are internally synchronized; workers and protocol threads share
/// Job instances through shared_ptr.
class Job {
 public:
  Job(JobId id, JobRequest request);

  JobId id() const { return id_; }
  const JobRequest& request() const { return request_; }

  JobState state() const;

  /// Atomically applies `to` if the edge is valid from the current state;
  /// returns false (and leaves the state alone) otherwise. Terminal
  /// transitions stamp the terminal time used for TTL-bounded retention.
  [[nodiscard]] bool TryTransition(JobState to);

  /// Flips the engine stop token. The state transition to CANCELLED is
  /// performed by the server (immediately when queued, by the worker when
  /// the engine returns for running jobs).
  void RequestCancel();
  bool cancel_requested() const;

  const std::shared_ptr<std::atomic<bool>>& stop_token() const {
    return stop_token_;
  }

  // Result slot -------------------------------------------------------
  void set_result(JobResult result);
  JobResult result() const;
  void set_error(std::string error);
  std::string error() const;

  // Timing ------------------------------------------------------------
  /// Seconds spent QUEUED (until run start, or until now while queued).
  double queue_seconds() const;
  /// Seconds spent RUNNING (until terminal, or until now while running).
  double run_seconds() const;
  /// Seconds since the job reached a terminal state (0 if not terminal).
  double seconds_since_terminal() const;

 private:
  using Clock = std::chrono::steady_clock;

  JobId id_;
  JobRequest request_;
  std::shared_ptr<std::atomic<bool>> stop_token_;

  mutable util::Mutex mu_;
  JobState state_ DFS_GUARDED_BY(mu_) = JobState::kQueued;
  JobResult result_ DFS_GUARDED_BY(mu_);
  std::string error_ DFS_GUARDED_BY(mu_);
  /// Stamped once in the constructor, read-only afterwards — not guarded.
  Clock::time_point submitted_at_;
  Clock::time_point started_at_ DFS_GUARDED_BY(mu_){};
  Clock::time_point terminal_at_ DFS_GUARDED_BY(mu_){};
};

}  // namespace dfs::serve

#endif  // DFS_SERVE_JOB_H_
