#include "core/experiment.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

namespace dfs::core {
namespace {

// A small but real pool configuration: 4 scenarios, tiny budgets, a strategy
// subset covering the main families. Shared across tests via a suite-level
// cache because running the pool trains real models.
ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.num_scenarios = 4;
  config.use_hpo = false;
  config.seed = 77;
  config.row_scale = 0.08;
  config.sampler.min_search_seconds = 0.02;
  config.sampler.max_search_seconds = 0.08;
  config.strategies = {fs::StrategyId::kOriginalFeatureSet,
                       fs::StrategyId::kSfs, fs::StrategyId::kTpeChi2,
                       fs::StrategyId::kSimulatedAnnealing};
  return config;
}

const ExperimentPool& SmallPool() {
  static const ExperimentPool& pool = *new ExperimentPool([] {
    auto result = ExperimentPool::Run(SmallConfig(), /*verbose=*/false);
    DFS_CHECK(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }());
  return pool;
}

TEST(ExperimentPoolTest, RunsRequestedScenarioCount) {
  const auto& records = SmallPool().records();
  ASSERT_EQ(records.size(), 4u);
  for (const auto& record : records) {
    EXPECT_EQ(record.outcomes.size(), 4u);
    EXPECT_GT(record.rows, 0);
    EXPECT_GT(record.features, 0);
    EXPECT_FALSE(record.dataset_name.empty());
  }
}

TEST(ExperimentPoolTest, OutcomesCarrySearchTimes) {
  for (const auto& record : SmallPool().records()) {
    for (const auto& outcome : record.outcomes) {
      EXPECT_GE(outcome.seconds, 0.0);
      if (outcome.success) {
        // Successful runs finish within (roughly) the sampled budget.
        EXPECT_LE(outcome.seconds,
                  record.constraint_set.max_search_seconds + 0.5);
      }
    }
  }
}

TEST(ExperimentPoolTest, OutcomeLookupByStrategy) {
  const auto& record = SmallPool().records().front();
  EXPECT_NE(record.OutcomeOf(fs::StrategyId::kSfs), nullptr);
  EXPECT_EQ(record.OutcomeOf(fs::StrategyId::kNsga2), nullptr);
}

TEST(ExperimentPoolTest, DeterministicAcrossRuns) {
  auto again = ExperimentPool::Run(SmallConfig(), false);
  ASSERT_TRUE(again.ok());
  const auto& a = SmallPool().records();
  const auto& b = again->records();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dataset_name, b[i].dataset_name);
    EXPECT_EQ(a[i].model, b[i].model);
    for (size_t j = 0; j < a[i].outcomes.size(); ++j) {
      // Success is deterministic modulo wall-clock deadline jitter; the
      // sampled scenario itself must be identical.
      EXPECT_EQ(a[i].outcomes[j].id, b[i].outcomes[j].id);
    }
  }
}

TEST(ExperimentPoolTest, CsvRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dfs_pool_test.csv").string();
  ASSERT_TRUE(SmallPool().SaveCsv(path).ok());
  auto loaded = ExperimentPool::LoadCsv(path, SmallConfig());
  ASSERT_TRUE(loaded.ok());
  const auto& a = SmallPool().records();
  const auto& b = loaded->records();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dataset_name, b[i].dataset_name);
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].constraint_set.min_equal_opportunity.has_value(),
              b[i].constraint_set.min_equal_opportunity.has_value());
    ASSERT_EQ(a[i].outcomes.size(), b[i].outcomes.size());
    for (size_t j = 0; j < a[i].outcomes.size(); ++j) {
      EXPECT_EQ(a[i].outcomes[j].success, b[i].outcomes[j].success);
      EXPECT_NEAR(a[i].outcomes[j].distance_validation,
                  b[i].outcomes[j].distance_validation, 1e-6);
    }
  }
  std::remove(path.c_str());
}

TEST(ExperimentPoolTest, LoadRejectsDifferentConfig) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dfs_pool_test2.csv")
          .string();
  ASSERT_TRUE(SmallPool().SaveCsv(path).ok());
  ExperimentConfig other = SmallConfig();
  other.seed = 78;
  EXPECT_FALSE(ExperimentPool::LoadCsv(path, other).ok());
  std::remove(path.c_str());
}

TEST(ExperimentPoolTest, RunOrLoadUsesCache) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dfs_pool_cache.csv")
          .string();
  std::remove(path.c_str());
  auto first = ExperimentPool::RunOrLoad(SmallConfig(), path, false);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(std::filesystem::exists(path));
  // Second call loads: must return identical outcome bits (wall-clock
  // reruns could differ, a cache load cannot).
  auto second = ExperimentPool::RunOrLoad(SmallConfig(), path, false);
  ASSERT_TRUE(second.ok());
  for (size_t i = 0; i < first->records().size(); ++i) {
    for (size_t j = 0; j < first->records()[i].outcomes.size(); ++j) {
      EXPECT_EQ(first->records()[i].outcomes[j].success,
                second->records()[i].outcomes[j].success);
      EXPECT_NEAR(first->records()[i].outcomes[j].seconds,
                  second->records()[i].outcomes[j].seconds, 1e-6);
    }
  }
  std::remove(path.c_str());
}

// Fixed work: budgets no deadline reaches and deterministic searches, with
// HPO and at least one safety constraint (the seeded attack), so a pass
// does the same evaluations however its scenarios and batches interleave.
ExperimentConfig FixedWorkConfig() {
  ExperimentConfig config;
  config.num_scenarios = 3;
  config.use_hpo = true;
  config.seed = 90221;
  config.row_scale = 0.1;
  config.time_scale = 1000.0;
  config.strategies = {fs::StrategyId::kOriginalFeatureSet,
                       fs::StrategyId::kSfs, fs::StrategyId::kSbs,
                       fs::StrategyId::kRfe};
  return config;
}

// Runs the pool with DFS_THREADS set to `threads`, then restores the
// variable as it was.
ExperimentPool RunWithThreadBudget(const ExperimentConfig& config,
                                   const char* threads) {
  const char* saved = std::getenv("DFS_THREADS");
  const std::optional<std::string> previous =
      saved != nullptr ? std::optional<std::string>(saved) : std::nullopt;
  setenv("DFS_THREADS", threads, 1);
  auto pool = ExperimentPool::Run(config, /*verbose=*/false);
  if (previous.has_value()) {
    setenv("DFS_THREADS", previous->c_str(), 1);
  } else {
    unsetenv("DFS_THREADS");
  }
  DFS_CHECK(pool.ok()) << pool.status().ToString();
  return std::move(pool).value();
}

TEST(ExperimentPoolTest, FixedWorkIdenticalAcrossThreadBudgets) {
  const ExperimentConfig config = FixedWorkConfig();
  const ExperimentPool serial = RunWithThreadBudget(config, "1");
  const ExperimentPool parallel = RunWithThreadBudget(config, "4");
  const auto& a = serial.records();
  const auto& b = parallel.records();
  ASSERT_EQ(a.size(), b.size());
  bool any_safety = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_safety = any_safety || a[i].constraint_set.min_safety.has_value();
    ASSERT_EQ(a[i].outcomes.size(), b[i].outcomes.size());
    for (size_t j = 0; j < a[i].outcomes.size(); ++j) {
      const StrategyOutcome& x = a[i].outcomes[j];
      const StrategyOutcome& y = b[i].outcomes[j];
      EXPECT_EQ(x.id, y.id);
      EXPECT_FALSE(x.timed_out);
      EXPECT_EQ(x.success, y.success);
      EXPECT_EQ(x.evaluations, y.evaluations);
      EXPECT_EQ(std::bit_cast<uint64_t>(x.distance_validation),
                std::bit_cast<uint64_t>(y.distance_validation));
      EXPECT_EQ(std::bit_cast<uint64_t>(x.distance_test),
                std::bit_cast<uint64_t>(y.distance_test));
      EXPECT_EQ(std::bit_cast<uint64_t>(x.test_f1),
                std::bit_cast<uint64_t>(y.test_f1));
    }
  }
  EXPECT_TRUE(any_safety);
}

TEST(ExperimentConfigTest, HashSensitiveToEveryKnob) {
  const ExperimentConfig base = SmallConfig();
  ExperimentConfig changed = base;
  changed.num_scenarios = 5;
  EXPECT_NE(base.Hash(), changed.Hash());
  changed = base;
  changed.use_hpo = true;
  EXPECT_NE(base.Hash(), changed.Hash());
  changed = base;
  changed.utility_mode = true;
  EXPECT_NE(base.Hash(), changed.Hash());
  changed = base;
  changed.time_scale = 2.0;
  EXPECT_NE(base.Hash(), changed.Hash());
  changed = base;
  changed.strategies.pop_back();
  EXPECT_NE(base.Hash(), changed.Hash());
  EXPECT_EQ(base.Hash(), SmallConfig().Hash());
}

TEST(EnvironmentOverridesTest, ReadsVariables) {
  ExperimentConfig config = SmallConfig();
  setenv("DFS_SCENARIOS", "9", 1);
  setenv("DFS_TIME_SCALE", "2.5", 1);
  setenv("DFS_DATA_SCALE", "0.5", 1);
  setenv("DFS_SEED", "31337", 1);
  ApplyEnvironmentOverrides(config);
  EXPECT_EQ(config.num_scenarios, 9);
  EXPECT_DOUBLE_EQ(config.time_scale, 2.5);
  EXPECT_DOUBLE_EQ(config.row_scale, 0.5);
  EXPECT_EQ(config.seed, 31337u);
  unsetenv("DFS_SCENARIOS");
  unsetenv("DFS_TIME_SCALE");
  unsetenv("DFS_DATA_SCALE");
  unsetenv("DFS_SEED");
  ExperimentConfig untouched = SmallConfig();
  ApplyEnvironmentOverrides(untouched);
  EXPECT_EQ(untouched.num_scenarios, SmallConfig().num_scenarios);
}

}  // namespace
}  // namespace dfs::core
