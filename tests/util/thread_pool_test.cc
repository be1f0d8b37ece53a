#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace dfs {
namespace {

TEST(ThreadPoolTest, RunsEveryScheduledTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, WaitCanBeRepeated) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    // One worker and a slow head task, so most tasks are still queued when
    // the destructor starts; they must still all run.
    ThreadPool pool(1);
    pool.Schedule([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    for (int i = 0; i < 50; ++i) {
      pool.Schedule([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ConcurrentSchedulersAreSafe) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < 50; ++i) {
        pool.Schedule([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (auto& producer : producers) producer.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, TasksRunOnWorkerThreads) {
  ThreadPool pool(2);
  std::mutex mu;
  std::set<std::thread::id> ids;
  for (int i = 0; i < 32; ++i) {
    pool.Schedule([&mu, &ids] {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
  }
  pool.Wait();
  EXPECT_FALSE(ids.empty());
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
}

// Blocks the pool's only worker until Open(), so the queue holds still.
class Gate {
 public:
  void Block() {
    std::unique_lock<std::mutex> lock(mu_);
    blocked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void AwaitBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return blocked_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_ = false;
  bool open_ = false;
};

// A parallel loop over [0, count) is one task group: Schedule each index,
// then Wait(group).
TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  TaskGroup group;
  std::vector<std::atomic<int>> hits(64);
  for (int i = 0; i < 64; ++i) {
    pool.Schedule(group, [&hits, i] { hits[i].fetch_add(1); });
  }
  pool.Wait(group);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForTest, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  Gate gate;
  TaskGroup blocker;
  pool.Schedule(blocker, [&gate] { gate.Block(); });
  gate.AwaitBlocked();

  // The only worker is busy, so Wait runs the whole loop on the caller.
  TaskGroup group;
  std::vector<int> order;
  std::vector<std::thread::id> ran_on;
  for (int i = 0; i < 5; ++i) {
    pool.Schedule(group, [&order, &ran_on, i] {
      order.push_back(i);
      ran_on.push_back(std::this_thread::get_id());
    });
  }
  pool.Wait(group);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());

  gate.Open();
  pool.Wait(blocker);
}

TEST(ParallelForTest, ZeroCountIsANoop) {
  ThreadPool pool(4);
  TaskGroup group;
  pool.Wait(group);  // must not hang
  int calls = 0;
  TaskGroup other;
  pool.Schedule(other, [&calls] { ++calls; });
  pool.Wait(other);
  pool.Wait(group);
  EXPECT_EQ(calls, 1);
}

TEST(TaskGroupTest, NestedWaitOnOneWorkerPoolCompletes) {
  ThreadPool pool(1);
  TaskGroup outer;
  std::atomic<int> inner_runs{0};
  pool.Schedule(outer, [&pool, &inner_runs] {
    // The only worker waits on a group of its own: it must run the group's
    // tasks itself rather than wait for a free worker.
    TaskGroup inner;
    for (int i = 0; i < 8; ++i) {
      pool.Schedule(inner, [&inner_runs] { inner_runs.fetch_add(1); });
    }
    pool.Wait(inner);
  });
  pool.Wait(outer);
  EXPECT_EQ(inner_runs.load(), 8);
}

TEST(TaskGroupTest, WaitRunsOwnQueuedTasksOnCallerOnly) {
  ThreadPool pool(1);
  Gate gate;
  TaskGroup blocker;
  pool.Schedule(blocker, [&gate] { gate.Block(); });
  gate.AwaitBlocked();

  // Queued behind the blocked worker: another group's task, then ours.
  TaskGroup other;
  std::atomic<bool> other_ran{false};
  pool.Schedule(other, [&other_ran] { other_ran = true; });
  TaskGroup mine;
  std::vector<int> order;
  std::vector<std::thread::id> ran_on;
  for (int i = 0; i < 4; ++i) {
    pool.Schedule(mine, [&order, &ran_on, i] {
      order.push_back(i);
      ran_on.push_back(std::this_thread::get_id());
    });
  }
  pool.Wait(mine);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
  EXPECT_FALSE(other_ran.load());  // never picked up by Wait(mine)

  gate.Open();
  pool.Wait(other);
  EXPECT_TRUE(other_ran.load());
  pool.Wait(blocker);
}

TEST(TaskGroupTest, ConcurrentWaitersOnTheirOwnGroups) {
  ThreadPool pool(4);
  static constexpr int kWaiters = 8;
  static constexpr int kTasks = 200;
  std::vector<std::atomic<int>> counts(kWaiters);
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&pool, &counts, w] {
      TaskGroup group;
      for (int i = 0; i < kTasks; ++i) {
        pool.Schedule(group, [&counts, w] { counts[w].fetch_add(1); });
      }
      pool.Wait(group);
      // Every task of this group has finished by the time Wait returns.
      EXPECT_EQ(counts[w].load(), kTasks);
    });
  }
  for (auto& waiter : waiters) waiter.join();
  for (const auto& count : counts) EXPECT_EQ(count.load(), kTasks);
}

}  // namespace
}  // namespace dfs
