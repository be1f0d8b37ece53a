#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "util/logging.h"

namespace dfs {

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(1, num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mu_);
    shutdown_ = true;
  }
  task_available_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Schedule(std::function<void()> task) {
  Schedule(default_group_, std::move(task));
}

void ThreadPool::Schedule(TaskGroup& group, std::function<void()> task) {
  {
    util::MutexLock lock(mu_);
    DFS_CHECK(!shutdown_) << "ThreadPool::Schedule after shutdown";
    queue_.push_back(Task{&group, std::move(task)});
    ++group.queued_;
    ++group.pending_;
  }
  task_available_.NotifyOne();
}

void ThreadPool::Wait() {
  util::MutexLock lock(mu_);
  while (default_group_.pending_ != 0) default_group_.done_.Wait(lock);
}

void ThreadPool::Wait(TaskGroup& group) {
  while (true) {
    std::function<void()> fn;
    {
      util::MutexLock lock(mu_);
      if (group.queued_ == 0) {
        while (group.pending_ != 0) group.done_.Wait(lock);
        return;
      }
      // The group's oldest queued task. The queue is short (a pass's
      // scenarios plus the batches in flight), so a scan is cheap.
      auto it = queue_.begin();
      while (it->group != &group) ++it;
      fn = std::move(it->fn);
      queue_.erase(it);
      --group.queued_;
    }
    fn();
    fn = nullptr;  // drop the captures before the waiter can return
    Finish(group);
  }
}

void ThreadPool::Finish(TaskGroup& group) {
  util::MutexLock lock(mu_);
  // Notify under the lock: once the waiter sees zero it may destroy the
  // group, so the group must not be touched after the lock is released.
  if (--group.pending_ == 0) group.done_.NotifyAll();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    Task task;
    {
      util::MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) task_available_.Wait(lock);
      if (queue_.empty()) return;  // shut down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      --task.group->queued_;
    }
    task.fn();
    task.fn = nullptr;  // drop the captures before the waiter can return
    Finish(*task.group);
  }
}

int HardwareThreadBudget() {
  if (const char* env = std::getenv("DFS_THREADS")) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace dfs
