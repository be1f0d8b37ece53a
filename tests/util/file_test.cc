// util::WriteFile / util::ReadFile, and the state writers built on them:
// a write that fails only when buffered bytes are flushed must surface as
// a non-OK status. /dev/full accepts open() and fails every write with
// ENOSPC, so a small payload fails exactly at close time.

#include "util/file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/eval_cache.h"
#include "core/optimizer.h"
#include "util/csv.h"
#include "util/rng.h"

namespace dfs::util {
namespace {

constexpr char kFullDevice[] = "/dev/full";

bool HaveFullDevice() { return std::filesystem::exists(kFullDevice); }

TEST(FileTest, WriteThenReadRoundTripsBinaryBytes) {
  const std::string path = ::testing::TempDir() + "/dfs_file_test.bin";
  const std::string bytes("a\0b\nc\r\n\xff", 8);
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, bytes);
  std::remove(path.c_str());
}

TEST(FileTest, WriteReplacesExistingContent) {
  const std::string path = ::testing::TempDir() + "/dfs_file_test.txt";
  ASSERT_TRUE(WriteFile(path, "a longer first payload").ok());
  ASSERT_TRUE(WriteFile(path, "short").ok());
  EXPECT_EQ(*ReadFile(path), "short");
  ASSERT_TRUE(WriteFile(path, "").ok());
  EXPECT_EQ(*ReadFile(path), "");
  std::remove(path.c_str());
}

TEST(FileTest, ReadMissingFileIsNotFound) {
  EXPECT_EQ(ReadFile("/nonexistent/dfs_file_test").status().code(),
            StatusCode::kNotFound);
}

TEST(FileTest, WriteToUnopenablePathFails) {
  EXPECT_FALSE(WriteFile("/nonexistent/dfs_file_test", "x").ok());
}

TEST(FileTest, FlushTimeFailureIsReported) {
  if (!HaveFullDevice()) GTEST_SKIP() << "no " << kFullDevice;
  EXPECT_FALSE(WriteFile(kFullDevice, "hello").ok());
}

core::DfsOptimizer TrainTinyOptimizer() {
  std::vector<core::DfsOptimizer::TrainingExample> examples;
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    core::DfsOptimizer::TrainingExample example;
    example.features.values.assign(core::ScenarioFeatures::Names().size(),
                                   0.0);
    example.features.values[0] = rng.Uniform();
    example.outcomes[fs::StrategyId::kSfs] = example.features.values[0] > 0.5;
    example.outcomes[fs::StrategyId::kSbs] = true;
    examples.push_back(std::move(example));
  }
  core::DfsOptimizer optimizer;
  DFS_CHECK(
      optimizer.Train(examples, {fs::StrategyId::kSfs, fs::StrategyId::kSbs})
          .ok());
  return optimizer;
}

// Every persisted-state writer reports the failed write instead of
// returning OK over a file that never reached the device.
TEST(StateWritersTest, EveryWriterFailsOnFullDevice) {
  if (!HaveFullDevice()) GTEST_SKIP() << "no " << kFullDevice;

  core::ShardedEvalCache cache;
  fs::FeatureMask mask(8, 0);
  mask[1] = 1;
  fs::EvalOutcome outcome;
  outcome.evaluated = true;
  ASSERT_TRUE(cache.InsertPublished(mask, outcome));
  EXPECT_FALSE(cache.SaveToFile(kFullDevice).ok()) << "eval-cache spill";

  core::EvalCacheRegistry registry;
  ASSERT_TRUE(registry.GetOrCreate(7)->InsertPublished(mask, outcome));
  EXPECT_FALSE(registry.SaveToFile(kFullDevice).ok()) << "cache registry";

  EXPECT_FALSE(TrainTinyOptimizer().SaveToFile(kFullDevice).ok())
      << "optimizer model";

  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1", "2"}};
  EXPECT_FALSE(WriteCsvFile(table, kFullDevice).ok()) << "CSV export";
}

}  // namespace
}  // namespace dfs::util
