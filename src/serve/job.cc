#include "serve/job.h"

namespace dfs::serve {

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "QUEUED";
    case JobState::kRunning:
      return "RUNNING";
    case JobState::kDone:
      return "DONE";
    case JobState::kFailed:
      return "FAILED";
    case JobState::kCancelled:
      return "CANCELLED";
    case JobState::kTimedOut:
      return "TIMED_OUT";
  }
  return "UNKNOWN";
}

bool IsTerminalState(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

bool IsValidTransition(JobState from, JobState to) {
  switch (from) {
    case JobState::kQueued:
      return to == JobState::kRunning || to == JobState::kCancelled;
    case JobState::kRunning:
      return IsTerminalState(to);
    default:
      return false;  // terminal states are final
  }
}

Job::Job(JobId id, JobRequest request)
    : id_(id),
      request_(std::move(request)),
      stop_token_(std::make_shared<std::atomic<bool>>(false)),
      submitted_at_(Clock::now()) {}

JobState Job::state() const {
  util::MutexLock lock(mu_);
  return state_;
}

bool Job::TryTransition(JobState to) {
  util::MutexLock lock(mu_);
  if (!IsValidTransition(state_, to)) return false;
  state_ = to;
  const Clock::time_point now = Clock::now();
  if (to == JobState::kRunning) started_at_ = now;
  if (IsTerminalState(to)) {
    // A queued job cancelled before running never started.
    if (started_at_ == Clock::time_point{}) started_at_ = now;
    terminal_at_ = now;
  }
  return true;
}

void Job::RequestCancel() {
  stop_token_->store(true, std::memory_order_relaxed);
}

bool Job::cancel_requested() const {
  return stop_token_->load(std::memory_order_relaxed);
}

void Job::set_result(JobResult result) {
  util::MutexLock lock(mu_);
  result_ = std::move(result);
}

JobResult Job::result() const {
  util::MutexLock lock(mu_);
  return result_;
}

void Job::set_error(std::string error) {
  util::MutexLock lock(mu_);
  error_ = std::move(error);
}

std::string Job::error() const {
  util::MutexLock lock(mu_);
  return error_;
}

double Job::queue_seconds() const {
  util::MutexLock lock(mu_);
  const Clock::time_point end =
      started_at_ == Clock::time_point{} ? Clock::now() : started_at_;
  return std::chrono::duration<double>(end - submitted_at_).count();
}

double Job::run_seconds() const {
  util::MutexLock lock(mu_);
  if (started_at_ == Clock::time_point{}) return 0.0;
  const Clock::time_point end =
      terminal_at_ == Clock::time_point{} ? Clock::now() : terminal_at_;
  return std::chrono::duration<double>(end - started_at_).count();
}

double Job::seconds_since_terminal() const {
  util::MutexLock lock(mu_);
  if (terminal_at_ == Clock::time_point{}) return 0.0;
  return std::chrono::duration<double>(Clock::now() - terminal_at_).count();
}

}  // namespace dfs::serve
