#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace dfs {
namespace {

TEST(StopwatchTest, ElapsedIncreases) {
  Stopwatch stopwatch;
  const double first = stopwatch.ElapsedSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double second = stopwatch.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GT(second, first);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch stopwatch;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stopwatch.Restart();
  EXPECT_LT(stopwatch.ElapsedSeconds(), 0.01);
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  const Deadline deadline = Deadline::Infinite();
  EXPECT_FALSE(deadline.Expired());
  EXPECT_TRUE(std::isinf(deadline.RemainingSeconds()));
}

TEST(DeadlineTest, ExpiresAfterDuration) {
  const Deadline deadline = Deadline::AfterSeconds(0.005);
  EXPECT_FALSE(deadline.Expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(deadline.Expired());
  EXPECT_LE(deadline.RemainingSeconds(), 0.0);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
}

TEST(ParallelForTest, CoversAllIndicesMultiThreaded) {
  ThreadPool pool(4);
  TaskGroup group;
  std::vector<std::atomic<int>> hits(50);
  for (int i = 0; i < 50; ++i) {
    pool.Schedule(group, [&hits, i] { hits[i].fetch_add(1); });
  }
  pool.Wait(group);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForTest, SingleThreadRunsInOrder) {
  ThreadPool pool(1);
  TaskGroup group;
  std::vector<int> order;
  std::atomic<int> done{0};
  for (int i = 0; i < 5; ++i) {
    pool.Schedule(group, [&order, &done, i] {
      order.push_back(i);
      done.fetch_add(1);
    });
  }
  // Let the worker run them all before Wait could help.
  while (done.load() < 5) std::this_thread::yield();
  pool.Wait(group);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  ThreadPool pool(4);
  TaskGroup group;
  pool.Wait(group);  // must not hang
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter printer({"name", "v"});
  printer.AddRow({"a", "1.00"});
  printer.AddRow({"longer-name", "2"});
  const std::string output = printer.ToString();
  EXPECT_NE(output.find("| name        | v    |"), std::string::npos);
  EXPECT_NE(output.find("| longer-name | 2    |"), std::string::npos);
}

TEST(TablePrinterTest, SeparatorRendersRule) {
  TablePrinter printer({"a"});
  printer.AddRow({"x"});
  printer.AddSeparator();
  printer.AddRow({"y"});
  const std::string output = printer.ToString();
  // Header rule + explicit separator.
  size_t rules = 0;
  for (size_t pos = output.find("|--"); pos != std::string::npos;
       pos = output.find("|--", pos + 1)) {
    ++rules;
  }
  EXPECT_EQ(rules, 2u);
}

TEST(TablePrinterTest, CountsUtf8DisplayWidth) {
  TablePrinter printer({"v"});
  printer.AddRow({"0.60 ± 0.22"});  // multi-byte ±
  printer.AddRow({"0.60 + 0.22"});  // same display width in ASCII
  const std::string output = printer.ToString();
  // Both rows should produce identically-positioned trailing pipes.
  const size_t first_line = output.find("0.60 ±");
  const size_t second_line = output.find("0.60 +");
  ASSERT_NE(first_line, std::string::npos);
  ASSERT_NE(second_line, std::string::npos);
  const size_t end1 = output.find('\n', first_line);
  const size_t end2 = output.find('\n', second_line);
  const std::string row1 = output.substr(first_line, end1 - first_line);
  const std::string row2 = output.substr(second_line, end2 - second_line);
  EXPECT_EQ(row1.size() - 1, row2.size());  // ± is one byte wider than +
}

}  // namespace
}  // namespace dfs
