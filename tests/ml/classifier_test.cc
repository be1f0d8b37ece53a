#include "ml/classifier.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "metrics/classification.h"
#include "ml/dp/dp_classifier.h"
#include "ml/random_forest.h"
#include "testing/test_util.h"

namespace dfs::ml {
namespace {

// Shared harness: every classifier family must learn the linearly separable
// toy problem well above chance, clone correctly, and validate its inputs.
class ClassifierParamTest : public ::testing::TestWithParam<ModelKind> {};

linalg::Matrix ToMatrix(const data::Dataset& dataset) {
  return dataset.ToMatrix(dataset.AllFeatures());
}

TEST_P(ClassifierParamTest, LearnsSeparableProblem) {
  const data::Dataset train = testing::MakeLinearDataset(400, 3, 21);
  const data::Dataset test = testing::MakeLinearDataset(200, 3, 22);
  auto model = CreateClassifier(GetParam(), Hyperparameters());
  ASSERT_TRUE(model->Fit(ToMatrix(train), train.labels()).ok());
  const double f1 =
      metrics::F1Score(test.labels(), model->PredictBatch(ToMatrix(test)));
  EXPECT_GT(f1, 0.8) << model->name();
}

TEST_P(ClassifierParamTest, PredictionsMatchProbabilityThreshold) {
  const data::Dataset train = testing::MakeLinearDataset(200, 1, 23);
  auto model = CreateClassifier(GetParam(), Hyperparameters());
  ASSERT_TRUE(model->Fit(ToMatrix(train), train.labels()).ok());
  for (int r = 0; r < 50; ++r) {
    const auto row = ToMatrix(train).Row(r);
    const double proba = model->PredictProba(row);
    EXPECT_GE(proba, 0.0);
    EXPECT_LE(proba, 1.0);
    EXPECT_EQ(model->Predict(row), proba >= 0.5 ? 1 : 0);
  }
}

TEST_P(ClassifierParamTest, CloneIsUnfittedButTrainable) {
  const data::Dataset train = testing::MakeLinearDataset(150, 1, 24);
  auto model = CreateClassifier(GetParam(), Hyperparameters());
  ASSERT_TRUE(model->Fit(ToMatrix(train), train.labels()).ok());
  auto clone = model->Clone();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->name(), model->name());
  ASSERT_TRUE(clone->Fit(ToMatrix(train), train.labels()).ok());
  // Deterministic training: clone should agree with the original.
  int agreement = 0;
  for (int r = 0; r < train.num_rows(); ++r) {
    const auto row = ToMatrix(train).Row(r);
    agreement += model->Predict(row) == clone->Predict(row) ? 1 : 0;
  }
  EXPECT_GT(agreement, train.num_rows() * 9 / 10);
}

TEST_P(ClassifierParamTest, RejectsEmptyTrainingSet) {
  auto model = CreateClassifier(GetParam(), Hyperparameters());
  EXPECT_FALSE(model->Fit(linalg::Matrix(0, 3), {}).ok());
}

TEST_P(ClassifierParamTest, RejectsLabelSizeMismatch) {
  auto model = CreateClassifier(GetParam(), Hyperparameters());
  EXPECT_FALSE(model->Fit(linalg::Matrix(4, 2), {0, 1}).ok());
}

// PredictBatch overrides must stay bitwise-equal to the per-row Predict
// loop (the classifier.h contract). Widths 3 and 12 sit on either side of
// kernels::detail::kInlineWidth, so both the inline and the dispatched
// reductions are covered, for the standard and the DP model of each kind.
TEST_P(ClassifierParamTest, PredictBatchEqualsPerRowPredict) {
  for (const int width : {3, 12}) {
    const data::Dataset train =
        testing::MakeLinearDataset(240, width - 2, 27 + width);
    const linalg::Matrix x = ToMatrix(train);
    std::vector<std::unique_ptr<Classifier>> models;
    models.push_back(CreateClassifier(GetParam(), Hyperparameters()));
    models.push_back(
        CreateDpClassifier(GetParam(), Hyperparameters(), /*epsilon=*/1.0, 93));
    for (const auto& model : models) {
      ASSERT_TRUE(model->Fit(x, train.labels()).ok()) << model->name();
      std::vector<int> batch;
      model->PredictBatch(x, &batch);
      ASSERT_EQ(static_cast<int>(batch.size()), x.rows());
      for (int r = 0; r < x.rows(); ++r) {
        EXPECT_EQ(batch[r], model->Predict(x.RowSpan(r)))
            << model->name() << " width " << width << " row " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ClassifierParamTest,
    ::testing::Values(ModelKind::kLogisticRegression, ModelKind::kNaiveBayes,
                      ModelKind::kDecisionTree, ModelKind::kLinearSvm),
    [](const auto& info) { return ModelKindToString(info.param); });

// Every PredictProba implementation is a span kernel with a delegating
// std::vector shim; the two entry points must agree bitwise on every row,
// for every classifier family (4 standard + 3 DP variants + RF).
TEST(SpanPredictTest, SpanAndVectorPredictProbaAgreeEverywhere) {
  const data::Dataset train = testing::MakeLinearDataset(200, 2, 25);
  const linalg::Matrix x = ToMatrix(train);

  std::vector<std::unique_ptr<Classifier>> models;
  for (const auto kind :
       {ModelKind::kLogisticRegression, ModelKind::kNaiveBayes,
        ModelKind::kDecisionTree, ModelKind::kLinearSvm}) {
    models.push_back(CreateClassifier(kind, Hyperparameters()));
    models.push_back(
        CreateDpClassifier(kind, Hyperparameters(), /*epsilon=*/1.0, 91));
  }
  RandomForestOptions forest_options;
  forest_options.num_trees = 8;
  models.push_back(std::make_unique<RandomForest>(forest_options));

  for (const auto& model : models) {
    ASSERT_TRUE(model->Fit(x, train.labels()).ok()) << model->name();
    for (int r = 0; r < x.rows(); ++r) {
      const std::vector<double> row = x.Row(r);
      const std::span<const double> row_span = x.RowSpan(r);
      EXPECT_EQ(model->PredictProba(row), model->PredictProba(row_span))
          << model->name() << " row " << r;
      EXPECT_EQ(model->Predict(row), model->Predict(row_span))
          << model->name() << " row " << r;
    }
  }
}

// The output-parameter PredictBatch must produce exactly the allocating
// form's labels while reusing the caller's buffer.
TEST(SpanPredictTest, PredictBatchOutputParamMatchesAllocatingForm) {
  const data::Dataset train = testing::MakeLinearDataset(150, 1, 26);
  const linalg::Matrix x = ToMatrix(train);
  auto model = CreateClassifier(ModelKind::kLogisticRegression,
                                Hyperparameters());
  ASSERT_TRUE(model->Fit(x, train.labels()).ok());

  const std::vector<int> allocated = model->PredictBatch(x);
  std::vector<int> reused;
  model->PredictBatch(x, &reused);
  EXPECT_EQ(allocated, reused);
  const int* warm = reused.data();
  model->PredictBatch(x, &reused);
  EXPECT_EQ(allocated, reused);
  EXPECT_EQ(reused.data(), warm);  // steady state: no reallocation
}

TEST(ModelKindTest, Names) {
  EXPECT_STREQ(ModelKindToString(ModelKind::kLogisticRegression), "LR");
  EXPECT_STREQ(ModelKindToString(ModelKind::kNaiveBayes), "NB");
  EXPECT_STREQ(ModelKindToString(ModelKind::kDecisionTree), "DT");
  EXPECT_STREQ(ModelKindToString(ModelKind::kLinearSvm), "SVM");
}

}  // namespace
}  // namespace dfs::ml
