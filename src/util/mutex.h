#ifndef DFS_UTIL_MUTEX_H_
#define DFS_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace dfs::util {

/// Annotated synchronization wrappers (DESIGN.md §2f). These are the ONLY
/// place in src/ allowed to name std::mutex / std::condition_variable —
/// tools/dfs_analyze.py enforces the ban — so that every lock in the
/// codebase is a capability the Clang thread-safety analysis can track.
///
/// The wrappers add no state and no behavior over the std primitives they
/// hold: a DFS_ANALYZE build and a plain build run the same code. CondVar
/// deliberately has no predicate overload — waits are written as explicit
/// `while (!cond) cv.Wait(lock);` loops in the caller, where the analysis
/// can see that the guarded condition is read with the lock held (a
/// predicate lambda would be analyzed as an unlocked function and
/// false-positive on every guarded read).

/// Exclusive mutex, declared as a Clang capability.
class DFS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DFS_ACQUIRE() { mu_.lock(); }
  void Unlock() DFS_RELEASE() { mu_.unlock(); }
  bool TryLock() DFS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII lock over a util::Mutex (the repo's only locking idiom: scoped,
/// never manually paired Lock/Unlock outside this header).
class DFS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DFS_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() DFS_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to util::MutexLock. Waits may return
/// spuriously — callers always loop on their guarded condition.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock`'s mutex and blocks; re-acquires before
  /// returning. The caller must hold the lock (enforced by construction:
  /// a live MutexLock is a held lock).
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// Wait bounded by a steady-clock deadline. Returns false iff the
  /// deadline passed (the lock is re-acquired either way).
  bool WaitUntil(MutexLock& lock,
                 std::chrono::steady_clock::time_point deadline) {
    return cv_.wait_until(lock.lock_, deadline) != std::cv_status::timeout;
  }

  /// Wait bounded by a relative timeout in seconds. Returns false iff the
  /// timeout elapsed.
  bool WaitFor(MutexLock& lock, double seconds) {
    return cv_.wait_for(lock.lock_, std::chrono::duration<double>(seconds)) !=
           std::cv_status::timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace dfs::util

#endif  // DFS_UTIL_MUTEX_H_
