#include "core/optimizer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "data/benchmark_suite.h"
#include "testing/test_util.h"
#include "util/csv.h"

namespace dfs::core {
namespace {

TEST(FeaturizeTest, VectorMatchesDeclaredNames) {
  const data::Dataset dataset = testing::MakeLinearDataset(200, 3, 501);
  constraints::ConstraintSet set;
  set.min_f1 = 0.7;
  set.min_equal_opportunity = 0.9;
  auto features = FeaturizeScenario(
      dataset, ml::ModelKind::kLogisticRegression, set, OptimizerOptions());
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(features->values.size(), ScenarioFeatures::Names().size());
}

TEST(FeaturizeTest, ModelOneHotIsExclusive) {
  const data::Dataset dataset = testing::MakeLinearDataset(150, 1, 502);
  constraints::ConstraintSet set;
  for (ml::ModelKind model : {ml::ModelKind::kLogisticRegression,
                              ml::ModelKind::kNaiveBayes,
                              ml::ModelKind::kDecisionTree}) {
    auto features =
        FeaturizeScenario(dataset, model, set, OptimizerOptions());
    ASSERT_TRUE(features.ok());
    // Indices 2..4 are the one-hot block.
    const double sum = features->values[2] + features->values[3] +
                       features->values[4];
    EXPECT_DOUBLE_EQ(sum, 1.0);
  }
}

TEST(FeaturizeTest, ConstraintThresholdsEncodedWithDefaults) {
  const data::Dataset dataset = testing::MakeLinearDataset(150, 1, 503);
  constraints::ConstraintSet set;
  set.min_f1 = 0.66;
  auto features = FeaturizeScenario(dataset, ml::ModelKind::kNaiveBayes, set,
                                    OptimizerOptions());
  ASSERT_TRUE(features.ok());
  const auto names = ScenarioFeatures::Names();
  auto value_of = [&](const std::string& name) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return features->values[i];
    }
    ADD_FAILURE() << "missing feature " << name;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(value_of("min_f1"), 0.66);
  EXPECT_DOUBLE_EQ(value_of("max_feature_fraction"), 1.0);  // default
  EXPECT_DOUBLE_EQ(value_of("min_eo"), 0.0);                // default
  EXPECT_DOUBLE_EQ(value_of("has_privacy"), 0.0);
}

TEST(FeaturizeTest, LandmarkSlackTracksThresholdHardness) {
  const data::Dataset dataset = testing::MakeLinearDataset(300, 2, 504);
  constraints::ConstraintSet easy, hard;
  easy.min_f1 = 0.5;
  hard.min_f1 = 0.99;
  OptimizerOptions options;
  auto easy_features = FeaturizeScenario(
      dataset, ml::ModelKind::kLogisticRegression, easy, options);
  auto hard_features = FeaturizeScenario(
      dataset, ml::ModelKind::kLogisticRegression, hard, options);
  ASSERT_TRUE(easy_features.ok());
  ASSERT_TRUE(hard_features.ok());
  const size_t slack_index = 12;  // landmark_f1_slack
  ASSERT_EQ(ScenarioFeatures::Names()[slack_index], "landmark_f1_slack");
  EXPECT_GT(easy_features->values[slack_index],
            hard_features->values[slack_index]);
}

DfsOptimizer::TrainingExample MakeExample(double rows_signal, bool sfs_wins,
                                          uint64_t seed) {
  // Synthetic meta-learning task: SFS succeeds iff rows_signal > 0.5,
  // chi2 succeeds iff rows_signal <= 0.5.
  Rng rng(seed);
  DfsOptimizer::TrainingExample example;
  example.features.values.assign(ScenarioFeatures::Names().size(), 0.0);
  example.features.values[0] = rows_signal + 0.02 * rng.Normal();
  example.features.values[5] = rng.Uniform();  // irrelevant noise
  example.outcomes[fs::StrategyId::kSfs] = sfs_wins;
  example.outcomes[fs::StrategyId::kTpeChi2] = !sfs_wins;
  return example;
}

TEST(DfsOptimizerTest, LearnsWhichStrategyFitsWhichScenario) {
  std::vector<DfsOptimizer::TrainingExample> examples;
  Rng rng(505);
  for (int i = 0; i < 120; ++i) {
    const double signal = rng.Uniform();
    examples.push_back(MakeExample(signal, signal > 0.5, 506 + i));
  }
  DfsOptimizer optimizer;
  ASSERT_TRUE(optimizer
                  .Train(examples, {fs::StrategyId::kSfs,
                                    fs::StrategyId::kTpeChi2})
                  .ok());
  // Query far on each side of the boundary.
  int correct = 0;
  for (double signal : {0.05, 0.1, 0.15, 0.85, 0.9, 0.95}) {
    ScenarioFeatures query;
    query.values.assign(ScenarioFeatures::Names().size(), 0.0);
    query.values[0] = signal;
    auto chosen = optimizer.Choose(query);
    ASSERT_TRUE(chosen.ok());
    const fs::StrategyId expected =
        signal > 0.5 ? fs::StrategyId::kSfs : fs::StrategyId::kTpeChi2;
    correct += *chosen == expected ? 1 : 0;
  }
  EXPECT_GE(correct, 5);
}

TEST(DfsOptimizerTest, ProbabilitiesInUnitInterval) {
  std::vector<DfsOptimizer::TrainingExample> examples;
  Rng rng(507);
  for (int i = 0; i < 40; ++i) {
    examples.push_back(MakeExample(rng.Uniform(), rng.Bernoulli(0.5), i));
  }
  DfsOptimizer optimizer;
  ASSERT_TRUE(optimizer
                  .Train(examples,
                         {fs::StrategyId::kSfs, fs::StrategyId::kTpeChi2})
                  .ok());
  ScenarioFeatures query;
  query.values.assign(ScenarioFeatures::Names().size(), 0.3);
  auto probabilities = optimizer.PredictProbabilities(query);
  ASSERT_TRUE(probabilities.ok());
  for (const auto& [id, p] : *probabilities) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(DfsOptimizerTest, DegenerateLabelsGetConstantProbability) {
  std::vector<DfsOptimizer::TrainingExample> examples;
  for (int i = 0; i < 20; ++i) {
    auto example = MakeExample(0.5, true, i);
    example.outcomes[fs::StrategyId::kSfs] = true;        // always succeeds
    example.outcomes[fs::StrategyId::kTpeChi2] = false;   // never succeeds
    examples.push_back(example);
  }
  DfsOptimizer optimizer;
  ASSERT_TRUE(optimizer
                  .Train(examples,
                         {fs::StrategyId::kSfs, fs::StrategyId::kTpeChi2})
                  .ok());
  ScenarioFeatures query;
  query.values.assign(ScenarioFeatures::Names().size(), 0.5);
  auto probabilities = optimizer.PredictProbabilities(query);
  ASSERT_TRUE(probabilities.ok());
  EXPECT_DOUBLE_EQ(probabilities->at(fs::StrategyId::kSfs), 1.0);
  EXPECT_DOUBLE_EQ(probabilities->at(fs::StrategyId::kTpeChi2), 0.0);
  auto chosen = optimizer.Choose(query);
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(*chosen, fs::StrategyId::kSfs);
}

TEST(DfsOptimizerTest, UntrainedRejectsQueries) {
  DfsOptimizer optimizer;
  ScenarioFeatures query;
  query.values.assign(ScenarioFeatures::Names().size(), 0.0);
  EXPECT_FALSE(optimizer.Choose(query).ok());
  EXPECT_FALSE(optimizer.Train({}, {fs::StrategyId::kSfs}).ok());
}

// ---- BuildTrainingExamples ------------------------------------------

/// One outcome row of a hand-written pool CSV (in ExperimentPool::SaveCsv
/// layout): the scenario it belongs to, its F1 floor, and the outcome.
struct PoolRow {
  int scenario_id;
  double min_f1;
  fs::StrategyId strategy;
  bool success;
};

constexpr int kPoolDataset = 6;  // COMPAS: few features, fast featurization

ExperimentConfig SmallPoolConfig(int num_scenarios) {
  ExperimentConfig config;
  config.num_scenarios = num_scenarios;
  config.use_hpo = false;
  config.row_scale = 0.2;
  return config;
}

StatusOr<ExperimentPool> PoolFromRows(const ExperimentConfig& config,
                                      const std::vector<PoolRow>& rows,
                                      const std::string& name) {
  CsvTable table;
  table.header = {"config_hash", "scenario_id", "dataset_index",
                  "dataset_name", "model", "min_f1", "max_search_seconds",
                  "max_feature_fraction", "min_eo", "min_safety",
                  "privacy_epsilon", "rows", "features", "strategy",
                  "success", "seconds", "distance_validation",
                  "distance_test", "test_f1", "timed_out",
                  "search_exhausted", "evaluations"};
  for (const PoolRow& row : rows) {
    table.rows.push_back({std::to_string(config.Hash()),
                          std::to_string(row.scenario_id),
                          std::to_string(kPoolDataset), "COMPAS", "LR",
                          std::to_string(row.min_f1), "5", "-", "-", "-", "-",
                          "200", "8", fs::StrategyIdToString(row.strategy),
                          row.success ? "1" : "0", "0.1", "0", "0", "0.5",
                          "0", "0", "1"});
  }
  const std::string path = ::testing::TempDir() + "/" + name + ".csv";
  DFS_RETURN_IF_ERROR(WriteCsvFile(table, path));
  auto pool = ExperimentPool::LoadCsv(path, config);
  std::remove(path.c_str());
  return pool;
}

ScenarioFeatures PoolFeatures(const ExperimentConfig& config, double min_f1) {
  auto dataset = data::GenerateBenchmarkDataset(kPoolDataset, config.seed,
                                                config.row_scale);
  EXPECT_TRUE(dataset.ok());
  constraints::ConstraintSet set;
  set.min_f1 = min_f1;
  set.max_search_seconds = 5;
  auto features = FeaturizeScenario(*dataset, ml::ModelKind::kLogisticRegression,
                                    set, OptimizerOptions());
  EXPECT_TRUE(features.ok());
  return *features;
}

// One training example per pool record, in pool order, even when two
// records describe the same scenario shape. (Named after the replay buffer
// that once shared this pathway.)
TEST(ReplayBufferTest, BoundedFifo) {
  const ExperimentConfig config = SmallPoolConfig(3);
  auto pool = PoolFromRows(config,
                           {{0, 0.5, fs::StrategyId::kSfs, true},
                            {0, 0.5, fs::StrategyId::kSbs, false},
                            {1, 0.5, fs::StrategyId::kSfs, false},
                            {1, 0.5, fs::StrategyId::kSbs, true},
                            {2, 0.8, fs::StrategyId::kSfs, true}},
                           "one_example_per_record");
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  auto examples = BuildTrainingExamples(*pool, OptimizerOptions());
  ASSERT_TRUE(examples.ok()) << examples.status().ToString();
  ASSERT_EQ(examples->size(), 3u);
  using Outcomes = std::map<fs::StrategyId, bool>;
  EXPECT_EQ((*examples)[0].outcomes,
            (Outcomes{{fs::StrategyId::kSfs, true},
                      {fs::StrategyId::kSbs, false}}));
  EXPECT_EQ((*examples)[1].outcomes,
            (Outcomes{{fs::StrategyId::kSfs, false},
                      {fs::StrategyId::kSbs, true}}));
  EXPECT_EQ((*examples)[2].outcomes,
            (Outcomes{{fs::StrategyId::kSfs, true}}));
  EXPECT_EQ((*examples)[0].features.values, PoolFeatures(config, 0.5).values);
  EXPECT_EQ((*examples)[1].features.values, (*examples)[0].features.values);
  EXPECT_EQ((*examples)[2].features.values, PoolFeatures(config, 0.8).values);
}

// A strategy listed twice in a record keeps its last outcome, and a record
// without outcomes stays an all-failure example. (Named after the router's
// featurization cache, which these examples no longer pass through.)
TEST(FeatureCacheTest, FifoEvictionAndCounters) {
  const ExperimentConfig config = SmallPoolConfig(1);
  auto pool = PoolFromRows(config,
                           {{0, 0.5, fs::StrategyId::kSfs, false},
                            {0, 0.5, fs::StrategyId::kSbs, true},
                            {0, 0.5, fs::StrategyId::kSfs, true},
                            {0, 0.5, fs::StrategyId::kSbs, false}},
                           "last_outcome_wins");
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  auto examples = BuildTrainingExamples(*pool, OptimizerOptions());
  ASSERT_TRUE(examples.ok());
  ASSERT_EQ(examples->size(), 1u);
  EXPECT_EQ((*examples)[0].outcomes,
            (std::map<fs::StrategyId, bool>{{fs::StrategyId::kSfs, true},
                                            {fs::StrategyId::kSbs, false}}));

  ExperimentConfig empty = SmallPoolConfig(2);
  empty.strategies.clear();
  auto unraced = ExperimentPool::Run(empty, /*verbose=*/false);
  ASSERT_TRUE(unraced.ok()) << unraced.status().ToString();
  auto unraced_examples = BuildTrainingExamples(*unraced, OptimizerOptions());
  ASSERT_TRUE(unraced_examples.ok());
  ASSERT_EQ(unraced_examples->size(), 2u);
  for (const auto& example : *unraced_examples) {
    EXPECT_EQ(example.outcomes,
              (std::map<fs::StrategyId, bool>{
                  {fs::StrategyId::kOriginalFeatureSet, false}}));
  }
}

}  // namespace
}  // namespace dfs::core
