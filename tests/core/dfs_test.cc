#include "core/dfs.h"

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace dfs::core {
namespace {

constraints::ConstraintSet EasySet() {
  return constraints::ConstraintSetBuilder()
      .MinF1(0.6)
      .MaxSearchSeconds(5.0)
      .Build()
      .value();
}

TEST(DfsFacadeTest, SelectReturnsSatisfyingSubsetWithNames) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(300, 3, 601));
  dfs.SetModel(ml::ModelKind::kLogisticRegression).SetConstraints(EasySet());
  auto result = dfs.Select(fs::StrategyId::kSffs);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->success);
  EXPECT_EQ(result->strategy, "SFFS(NR)");
  ASSERT_FALSE(result->features.empty());
  ASSERT_EQ(result->features.size(), result->feature_names.size());
  // Forward selection on this dataset picks a signal feature first.
  EXPECT_TRUE(result->feature_names[0] == "signal_a" ||
              result->feature_names[0] == "signal_b")
      << result->feature_names[0];
  EXPECT_GE(result->test_values.f1, 0.6);
}

TEST(DfsFacadeTest, FairnessConstraintPrunesNothingWhenAlreadyFair) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(300, 2, 602));
  dfs.SetConstraints(constraints::ConstraintSetBuilder()
                         .MinF1(0.55)
                         .MinEqualOpportunity(0.7)
                         .MaxSearchSeconds(5.0)
                         .Build()
                         .value());
  auto result = dfs.Select(fs::StrategyId::kSfs);
  ASSERT_TRUE(result.ok());
  if (result->success) {
    EXPECT_GE(result->validation_values.equal_opportunity, 0.7);
  }
}

TEST(DfsFacadeTest, ImpossibleConstraintsReportFailureWithClosestSubset) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(200, 2, 603));
  dfs.SetConstraints(constraints::ConstraintSetBuilder()
                         .MinF1(0.999)
                         .MaxSearchSeconds(0.2)
                         .Build()
                         .value());
  auto result = dfs.Select(fs::StrategyId::kTpeChi2);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->success);
  EXPECT_FALSE(result->features.empty());  // closest subset still reported
}

TEST(DfsFacadeTest, UtilityModeReturnsHighF1Subset) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(250, 2, 604));
  dfs.SetConstraints(constraints::ConstraintSetBuilder()
                         .MinF1(0.4)
                         .MaxSearchSeconds(0.4)
                         .Build()
                         .value())
      .MaximizeUtility(true);
  auto result = dfs.Select(fs::StrategyId::kSffs);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->success);
  EXPECT_GT(result->test_values.f1, 0.6);  // well above the 0.4 floor
}

TEST(DfsFacadeTest, SelectParallelPicksASuccess) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(250, 3, 605));
  dfs.SetConstraints(EasySet());
  auto result = dfs.SelectParallel(
      {fs::StrategyId::kSfs, fs::StrategyId::kTpeChi2,
       fs::StrategyId::kSimulatedAnnealing},
      /*num_threads=*/2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->success);
  EXPECT_FALSE(result->strategy.empty());
}

TEST(DfsFacadeTest, SelectParallelRejectsEmptyPortfolio) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(100, 1, 606));
  dfs.SetConstraints(EasySet());
  EXPECT_FALSE(dfs.SelectParallel({}, 2).ok());
}

TEST(DfsFacadeTest, SelectParallelClosestWinnerIndependentOfThreads) {
  // An unreachable F1 floor and a generous budget: every race searches to
  // exhaustion, so the closest-by-validation winner is fixed work.
  const auto select = [](int num_threads) {
    DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(250, 4, 607));
    dfs.SetConstraints(constraints::ConstraintSetBuilder()
                           .MinF1(0.999)
                           .MaxSearchSeconds(60.0)
                           .Build()
                           .value());
    return dfs.SelectParallel(
        {fs::StrategyId::kSfs, fs::StrategyId::kSbs, fs::StrategyId::kRfe},
        num_threads);
  };
  const auto serial = select(1);
  const auto parallel = select(4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_FALSE(serial->success);
  EXPECT_FALSE(parallel->success);
  EXPECT_EQ(serial->strategy, parallel->strategy);
  EXPECT_EQ(serial->features, parallel->features);
  EXPECT_EQ(serial->feature_names, parallel->feature_names);
  EXPECT_EQ(serial->validation_values.f1, parallel->validation_values.f1);
}

TEST(DfsFacadeTest, SelectModelAndFeaturesFindsAModel) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(250, 2, 608));
  dfs.SetConstraints(EasySet());
  auto result = dfs.SelectModelAndFeatures(
      {ml::ModelKind::kNaiveBayes, ml::ModelKind::kDecisionTree,
       ml::ModelKind::kLogisticRegression},
      fs::StrategyId::kSfs);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->success);
  EXPECT_FALSE(result->model.empty());
  EXPECT_GE(result->test_values.f1, 0.6);
}

TEST(DfsFacadeTest, SelectModelAndFeaturesFallsBackToClosest) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(150, 2, 609));
  dfs.SetConstraints(constraints::ConstraintSetBuilder()
                         .MinF1(0.999)  // unsatisfiable
                         .MaxSearchSeconds(0.3)
                         .Build()
                         .value());
  auto result = dfs.SelectModelAndFeatures(
      {ml::ModelKind::kNaiveBayes, ml::ModelKind::kDecisionTree},
      fs::StrategyId::kTpeChi2);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->success);
  EXPECT_FALSE(result->features.empty());
}

TEST(DfsFacadeTest, SelectModelAndFeaturesRejectsEmptyCandidates) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(100, 1, 610));
  dfs.SetConstraints(EasySet());
  EXPECT_FALSE(dfs.SelectModelAndFeatures({}, fs::StrategyId::kSfs).ok());
}

TEST(DfsFacadeTest, SelectWithOptimizerUsesChoice) {
  // Optimizer trained so SFFS always succeeds: the facade must route there.
  std::vector<DfsOptimizer::TrainingExample> examples;
  for (int i = 0; i < 10; ++i) {
    DfsOptimizer::TrainingExample example;
    example.features.values.assign(ScenarioFeatures::Names().size(),
                                   0.1 * i);
    example.outcomes[fs::StrategyId::kSffs] = true;
    example.outcomes[fs::StrategyId::kSbs] = false;
    examples.push_back(example);
  }
  DfsOptimizer optimizer;
  ASSERT_TRUE(optimizer
                  .Train(examples,
                         {fs::StrategyId::kSffs, fs::StrategyId::kSbs})
                  .ok());
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(250, 2, 607));
  dfs.SetConstraints(EasySet());
  auto result = dfs.SelectWithOptimizer(optimizer);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy, "SFFS(NR)");
  EXPECT_TRUE(result->success);
}

}  // namespace
}  // namespace dfs::core
