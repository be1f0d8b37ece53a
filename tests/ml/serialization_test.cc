// Round-trip tests for model and optimizer persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/optimizer.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "testing/test_util.h"

namespace dfs::ml {
namespace {

linalg::Matrix ToMatrix(const data::Dataset& dataset) {
  return dataset.ToMatrix(dataset.AllFeatures());
}

TEST(DecisionTreeSerializationTest, PredictionsSurviveRoundTrip) {
  const data::Dataset train = testing::MakeLinearDataset(250, 3, 901);
  DecisionTree tree((Hyperparameters()));
  ASSERT_TRUE(tree.Fit(ToMatrix(train), train.labels()).ok());
  auto restored = DecisionTree::Deserialize(tree.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->NodeCount(), tree.NodeCount());
  for (int r = 0; r < train.num_rows(); ++r) {
    const auto row = ToMatrix(train).Row(r);
    EXPECT_DOUBLE_EQ(restored->PredictProba(row), tree.PredictProba(row));
  }
  // Importances survive too.
  ASSERT_TRUE(restored->FeatureImportances().has_value());
  EXPECT_EQ(*restored->FeatureImportances(), *tree.FeatureImportances());
}

TEST(DecisionTreeSerializationTest, RejectsCorruptInput) {
  EXPECT_FALSE(DecisionTree::Deserialize("garbage").ok());
  EXPECT_FALSE(DecisionTree::Deserialize("tree v1\n5 2\n1\n").ok());
  // Out-of-range child index.
  EXPECT_FALSE(
      DecisionTree::Deserialize("tree v1\n5 2\n1\n0 0.5 7 8 0.5\n0\n").ok());
  // A node that is its own child, and a child pointing back at an
  // ancestor: both are cycles PredictProba would never leave.
  EXPECT_FALSE(
      DecisionTree::Deserialize("tree v1\n5 2\n1\n0 0.5 0 0 0.5\n0\n").ok());
  EXPECT_FALSE(DecisionTree::Deserialize("tree v1\n5 2\n3\n"
                                         "0 0.5 1 2 0.5\n"
                                         "0 0.5 0 2 0.5\n"
                                         "-1 0 -1 -1 0.5\n0\n")
                   .ok());
}

TEST(RandomForestSerializationTest, PredictionsSurviveRoundTrip) {
  const data::Dataset train = testing::MakeLinearDataset(200, 4, 902);
  RandomForestOptions options;
  options.num_trees = 12;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(ToMatrix(train), train.labels()).ok());
  auto restored = RandomForest::Deserialize(forest.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (int r = 0; r < 50; ++r) {
    const auto row = ToMatrix(train).Row(r);
    EXPECT_DOUBLE_EQ(restored->PredictProba(row), forest.PredictProba(row));
  }
}

TEST(RandomForestSerializationTest, RejectsCorruptInput) {
  EXPECT_FALSE(RandomForest::Deserialize("").ok());
  EXPECT_FALSE(RandomForest::Deserialize("forest v1\n1 2 0 1 7\n0.5\n9\n").ok());
}

}  // namespace
}  // namespace dfs::ml

namespace dfs::core {
namespace {

DfsOptimizer TrainSmallOptimizer() {
  std::vector<DfsOptimizer::TrainingExample> examples;
  Rng rng(903);
  for (int i = 0; i < 60; ++i) {
    DfsOptimizer::TrainingExample example;
    example.features.values.assign(ScenarioFeatures::Names().size(), 0.0);
    const double signal = rng.Uniform();
    example.features.values[0] = signal;
    example.outcomes[fs::StrategyId::kSfs] = signal > 0.5;
    example.outcomes[fs::StrategyId::kTpeChi2] = signal <= 0.5;
    example.outcomes[fs::StrategyId::kSbs] = true;  // degenerate constant
    examples.push_back(std::move(example));
  }
  DfsOptimizer optimizer;
  DFS_CHECK(optimizer
                .Train(examples,
                       {fs::StrategyId::kSfs, fs::StrategyId::kTpeChi2,
                        fs::StrategyId::kSbs})
                .ok());
  return optimizer;
}

TEST(OptimizerSerializationTest, ProbabilitiesSurviveRoundTrip) {
  const DfsOptimizer optimizer = TrainSmallOptimizer();
  auto text = optimizer.Serialize();
  ASSERT_TRUE(text.ok());
  auto restored = DfsOptimizer::Deserialize(*text);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->strategies(), optimizer.strategies());
  for (double signal : {0.1, 0.4, 0.6, 0.9}) {
    ScenarioFeatures query;
    query.values.assign(ScenarioFeatures::Names().size(), 0.0);
    query.values[0] = signal;
    auto original = optimizer.PredictProbabilities(query);
    auto loaded = restored->PredictProbabilities(query);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(loaded.ok());
    for (const auto& [id, p] : *original) {
      EXPECT_DOUBLE_EQ(loaded->at(id), p);
    }
    EXPECT_EQ(*optimizer.Choose(query), *restored->Choose(query));
  }
}

TEST(OptimizerSerializationTest, FileRoundTrip) {
  const DfsOptimizer optimizer = TrainSmallOptimizer();
  const std::string path =
      (std::filesystem::temp_directory_path() / "dfs_optimizer_test.bin")
          .string();
  ASSERT_TRUE(optimizer.SaveToFile(path).ok());
  auto restored = DfsOptimizer::LoadFromFile(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->strategies().size(), 3u);
  std::remove(path.c_str());
}

TEST(OptimizerSerializationTest, UntrainedCannotSerialize) {
  DfsOptimizer optimizer;
  EXPECT_FALSE(optimizer.Serialize().ok());
}

TEST(OptimizerSerializationTest, RejectsCorruptInput) {
  EXPECT_FALSE(DfsOptimizer::Deserialize("nonsense").ok());
  EXPECT_FALSE(
      DfsOptimizer::Deserialize("dfs-optimizer v1\n100 3 0.25 99\n1\nNotAStrategy\nconstant 0 0\n")
          .ok());
  EXPECT_FALSE(DfsOptimizer::LoadFromFile("/nonexistent/opt.bin").ok());
}

}  // namespace
}  // namespace dfs::core
