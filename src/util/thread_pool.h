#ifndef DFS_UTIL_THREAD_POOL_H_
#define DFS_UTIL_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dfs {

/// A set of tasks on one ThreadPool that a caller waits for as a unit
/// (ThreadPool::Schedule(group, task) / ThreadPool::Wait(group)). All of a
/// group's tasks must go to the same pool, and the group must outlive its
/// Wait. Its counters are guarded by that pool's mutex.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

 private:
  friend class ThreadPool;
  int queued_ = 0;   ///< scheduled, not yet started
  int pending_ = 0;  ///< scheduled, not yet finished (queued + running)
  /// Signalled when pending_ drops to zero, under the pool's mutex.
  util::CondVar done_;
};

/// Fixed-size worker pool shared by the study's scenario loop and the
/// engines' batch evaluations (DESIGN.md §2d). Tasks are void() closures
/// run in FIFO order by the workers. Waiting on a group helps: the waiter
/// runs the group's queued tasks on its thread before it blocks, so a task
/// may itself schedule a group and wait for it, even on a one-worker pool.
///
/// Exception behavior: tasks must not throw. A task runs on a worker or on
/// a waiting caller, where an escaping exception would skip the group's
/// bookkeeping; catch inside the task and report through captured state.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (minimum 1).
  explicit ThreadPool(int num_threads);
  /// Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task in the pool's own group. Calling this (or the grouped
  /// overload) once the destructor has started shutdown is a checked
  /// failure (DFS_CHECK), not undefined behavior: the task could never
  /// run, so silently accepting it would deadlock its Wait.
  void Schedule(std::function<void()> task);
  /// Enqueues a task in `group`.
  void Schedule(TaskGroup& group, std::function<void()> task);

  /// Blocks until every task scheduled without a group has finished. Runs
  /// none of them on the caller.
  void Wait();
  /// Runs `group`'s queued tasks on the calling thread in submission
  /// order, then blocks until those already running on workers finish.
  /// Never runs a task of another group, so a waiter inside a task never
  /// picks up unrelated (and possibly long or blocking) work.
  void Wait(TaskGroup& group);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  struct Task {
    TaskGroup* group = nullptr;
    std::function<void()> fn;
  };

  void WorkerLoop();
  /// Marks one of `group`'s tasks finished; wakes its waiter on the last.
  void Finish(TaskGroup& group);

  util::Mutex mu_;
  util::CondVar task_available_;
  std::deque<Task> queue_ DFS_GUARDED_BY(mu_);
  /// The group of ungrouped Schedule calls (what Wait() waits for).
  TaskGroup default_group_;
  /// Written only by the constructor, joined only by the destructor; no
  /// concurrent access, so not guarded.
  std::vector<std::thread> workers_;
  bool shutdown_ DFS_GUARDED_BY(mu_) = false;
};

/// Process-wide thread budget for parallel work (the study's shared pool,
/// an engine's own batch pool, the serve worker fleet): the DFS_THREADS
/// environment variable when set to a positive integer, otherwise
/// std::thread::hardware_concurrency(). Always >= 1.
int HardwareThreadBudget();

}  // namespace dfs

#endif  // DFS_UTIL_THREAD_POOL_H_
