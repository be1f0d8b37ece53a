// Golden tests for the zero-copy evaluation path: the engine's span/scratch
// pipeline must be byte-identical to the original allocating pipeline
// (Dataset::ToMatrix per split + allocating PredictBatch), which is
// re-implemented here from public APIs as the reference. Every comparison
// is exact (double ==): the span kernels were written to preserve
// operation order, so any drift is a bug, not noise.

#include "core/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/scenario.h"
#include "fs/feature_subset.h"
#include "metrics/classification.h"
#include "metrics/fairness.h"
#include "metrics/robustness.h"
#include "ml/dp/dp_classifier.h"
#include "ml/grid_search.h"
#include "testing/test_util.h"

namespace dfs::core {
namespace {

// Replicates DfsEngine::EvalSeed (documented in engine.cc): SplitMix64
// finalizer over (run seed, mask hash).
uint64_t ReferenceEvalSeed(uint64_t seed, const fs::FeatureMask& mask) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * fs::MaskHash(mask);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The pre-span measurement path: allocate a fresh gathered matrix and a
// fresh prediction vector per call.
constraints::MetricValues ReferenceMeasure(const MlScenario& scenario,
                                           const EngineOptions& options,
                                           const ml::Classifier& model,
                                           const std::vector<int>& features,
                                           const data::Dataset& split,
                                           Rng& rng) {
  const int total = scenario.split.train.num_features();
  constraints::MetricValues values;
  values.selected_features = static_cast<int>(features.size());
  values.total_features = total;
  values.feature_fraction =
      static_cast<double>(features.size()) / std::max(1, total);
  const linalg::Matrix x = split.ToMatrix(features);
  const std::vector<int> predictions = model.PredictBatch(x);
  values.f1 = metrics::F1Score(split.labels(), predictions);
  if (scenario.constraint_set.min_equal_opportunity.has_value()) {
    values.equal_opportunity =
        metrics::EqualOpportunity(split.labels(), predictions, split.groups());
  }
  if (scenario.constraint_set.min_safety.has_value()) {
    values.safety = metrics::EmpiricalRobustness(model, x, split.labels(),
                                                 rng, options.robustness);
  }
  return values;
}

// The pre-span training path: fresh ToMatrix gathers for train and (under
// HPO) validation, allocating batch predictions in the grid loop.
StatusOr<std::unique_ptr<ml::Classifier>> ReferenceTrain(
    const MlScenario& scenario, const EngineOptions& options,
    const std::vector<int>& features) {
  const auto& split = scenario.split;
  const linalg::Matrix train_x = split.train.ToMatrix(features);
  const bool is_private = scenario.constraint_set.privacy_epsilon.has_value();
  const double epsilon =
      scenario.constraint_set.privacy_epsilon.value_or(0.0);
  const int total = split.train.num_features();

  std::vector<ml::Hyperparameters> grid;
  if (options.use_hpo) {
    grid = ml::HyperparameterGrid(scenario.model);
  } else {
    grid.push_back(ml::Hyperparameters());
  }

  std::unique_ptr<ml::Classifier> best_model;
  double best_f1 = -1.0;
  const linalg::Matrix validation_x = split.validation.ToMatrix(features);
  for (const auto& params : grid) {
    std::unique_ptr<ml::Classifier> model =
        is_private
            ? ml::CreateDpClassifier(
                  scenario.model, params, epsilon,
                  options.seed ^
                      fs::MaskHash(fs::IndicesToMask(total, features)))
            : ml::CreateClassifier(scenario.model, params);
    DFS_RETURN_IF_ERROR(model->Fit(train_x, split.train.labels()));
    if (grid.size() == 1) return model;
    const double f1 = metrics::F1Score(split.validation.labels(),
                                       model->PredictBatch(validation_x));
    if (f1 > best_f1) {
      best_f1 = f1;
      best_model = std::move(model);
    }
  }
  if (best_model == nullptr) return InternalError("no model trained");
  return best_model;
}

struct ReferenceEvaluation {
  fs::EvalOutcome outcome;
  constraints::MetricValues test_values;
  bool have_test_values = false;
};

// The full pre-span evaluation: train, measure validation, confirm on test
// behind the satisfied-validation gate, with the per-mask RNG stream.
ReferenceEvaluation ReferenceEvaluate(const MlScenario& scenario,
                                      const EngineOptions& options,
                                      const fs::FeatureMask& mask) {
  ReferenceEvaluation result;
  const std::vector<int> features = fs::MaskToIndices(mask);
  auto model = ReferenceTrain(scenario, options, features);
  if (!model.ok()) return result;
  Rng eval_rng(ReferenceEvalSeed(options.seed, mask));

  fs::EvalOutcome& outcome = result.outcome;
  outcome.evaluated = true;
  outcome.validation = ReferenceMeasure(scenario, options, **model, features,
                                        scenario.split.validation, eval_rng);
  outcome.distance = scenario.constraint_set.Distance(outcome.validation);
  outcome.objective = scenario.constraint_set.Objective(
      outcome.validation, options.maximize_f1_utility);
  outcome.satisfied_validation =
      scenario.constraint_set.Satisfied(outcome.validation);
  if (outcome.satisfied_validation) {
    result.test_values = ReferenceMeasure(scenario, options, **model,
                                          features, scenario.split.test,
                                          eval_rng);
    result.have_test_values = true;
    outcome.success = scenario.constraint_set.Satisfied(result.test_values);
  }
  return result;
}

void ExpectBitwiseEqual(const constraints::MetricValues& expected,
                        const constraints::MetricValues& actual) {
  EXPECT_EQ(expected.f1, actual.f1);
  EXPECT_EQ(expected.equal_opportunity, actual.equal_opportunity);
  EXPECT_EQ(expected.safety, actual.safety);
  EXPECT_EQ(expected.feature_fraction, actual.feature_fraction);
  EXPECT_EQ(expected.selected_features, actual.selected_features);
  EXPECT_EQ(expected.total_features, actual.total_features);
}

void ExpectOutcomeEqual(const fs::EvalOutcome& expected,
                        const fs::EvalOutcome& actual) {
  EXPECT_EQ(expected.evaluated, actual.evaluated);
  ExpectBitwiseEqual(expected.validation, actual.validation);
  EXPECT_EQ(expected.distance, actual.distance);
  EXPECT_EQ(expected.objective, actual.objective);
  EXPECT_EQ(expected.satisfied_validation, actual.satisfied_validation);
  EXPECT_EQ(expected.success, actual.success);
}

MlScenario MakeGoldenScenario(ml::ModelKind kind,
                              const constraints::ConstraintSet& constraints) {
  const data::Dataset dataset = testing::MakeLinearDataset(120, 3, 77);
  Rng rng(13);
  auto scenario = MakeScenario(dataset, kind, constraints, rng);
  DFS_CHECK(scenario.ok());
  return std::move(scenario).value();
}

std::vector<fs::FeatureMask> GoldenMasks(int num_features) {
  std::vector<fs::FeatureMask> masks;
  for (int f = 0; f < num_features; ++f) {
    masks.push_back(fs::IndicesToMask(num_features, {f}));
    masks.push_back(
        fs::IndicesToMask(num_features, {f, (f + 2) % num_features}));
  }
  masks.push_back(fs::IndicesToMask(num_features, {0, 1}));
  return masks;
}

// Evaluates a fixed mask list in order through the EvalContext interface,
// honoring ShouldStop like any real strategy (so the engine's
// stop-at-success reduction is exercised).
class FixedListStrategy : public fs::FeatureSelectionStrategy {
 public:
  explicit FixedListStrategy(std::vector<fs::FeatureMask> masks)
      : masks_(std::move(masks)) {}
  std::string name() const override { return "fixed-list"; }
  fs::StrategyInfo info() const override { return {}; }
  void Run(fs::EvalContext& context) override {
    for (const auto& mask : masks_) {
      if (context.ShouldStop()) return;
      context.Evaluate(mask);
    }
  }

 private:
  std::vector<fs::FeatureMask> masks_;
};

// Reference re-implementation of the engine's reduction (RecordOutcome +
// the end-of-Run re-measure) over the same mask sequence.
struct ReferenceRun {
  bool success = false;
  fs::FeatureMask selected;
  constraints::MetricValues validation_values;
  constraints::MetricValues test_values;
  double best_distance_validation = 1e18;
  double best_distance_test = 1e18;
  double test_f1 = 0.0;
};

ReferenceRun ReferenceSearch(const MlScenario& scenario,
                             const EngineOptions& options,
                             const std::vector<fs::FeatureMask>& masks) {
  ReferenceRun run;
  double best_objective = 1e18;
  bool success_found = false;
  for (const auto& mask : masks) {
    if (success_found) break;
    const ReferenceEvaluation ref = ReferenceEvaluate(scenario, options, mask);
    if (!ref.outcome.evaluated) continue;
    const bool improves = ref.outcome.objective < best_objective;
    const bool first_success = ref.outcome.success && !success_found;
    if (first_success || (improves && !success_found)) {
      best_objective = ref.outcome.objective;
      run.selected = mask;
      run.validation_values = ref.outcome.validation;
      run.best_distance_validation = ref.outcome.distance;
      if (ref.have_test_values) {
        run.test_values = ref.test_values;
        run.best_distance_test =
            scenario.constraint_set.Distance(ref.test_values);
        run.test_f1 = ref.test_values.f1;
      } else {
        run.best_distance_test = 1e18;
        run.test_f1 = 0.0;
      }
    }
    if (ref.outcome.success && !success_found) {
      success_found = true;
      run.success = true;
    }
  }
  if (!success_found && !run.selected.empty() &&
      fs::CountSelected(run.selected) > 0 && run.best_distance_test >= 1e17) {
    const std::vector<int> features = fs::MaskToIndices(run.selected);
    auto model = ReferenceTrain(scenario, options, features);
    if (model.ok()) {
      Rng final_rng(ReferenceEvalSeed(options.seed, run.selected));
      run.test_values = ReferenceMeasure(scenario, options, **model, features,
                                         scenario.split.test, final_rng);
      run.best_distance_test =
          scenario.constraint_set.Distance(run.test_values);
      run.test_f1 = run.test_values.f1;
    }
  }
  return run;
}

void ExpectRunEqual(const ReferenceRun& expected, const RunResult& actual) {
  EXPECT_EQ(expected.success, actual.success);
  EXPECT_EQ(expected.selected, actual.selected);
  ExpectBitwiseEqual(expected.validation_values, actual.validation_values);
  ExpectBitwiseEqual(expected.test_values, actual.test_values);
  EXPECT_EQ(expected.best_distance_validation,
            actual.best_distance_validation);
  EXPECT_EQ(expected.best_distance_test, actual.best_distance_test);
  EXPECT_EQ(expected.test_f1, actual.test_f1);
}

class EngineGoldenTest : public ::testing::TestWithParam<ml::ModelKind> {};

// Per-mask outcomes match the reference pipeline exactly for every model
// kind, and a full search over the same mask sequence selects the
// byte-identical subset with byte-identical reported metric values.
TEST_P(EngineGoldenTest, EvaluationsAndSelectionMatchReference) {
  constraints::ConstraintSet constraints;
  constraints.min_f1 = 0.99;  // never satisfied: exercises the final
                              // re-measure of the best subset
  MlScenario scenario = MakeGoldenScenario(GetParam(), constraints);
  EngineOptions options;
  options.num_threads = 1;

  const auto masks = GoldenMasks(scenario.split.train.num_features());
  DfsEngine engine(scenario, options);
  for (const auto& mask : masks) {
    const fs::EvalOutcome actual = engine.Evaluate(mask);
    const ReferenceEvaluation ref = ReferenceEvaluate(scenario, options, mask);
    ExpectOutcomeEqual(ref.outcome, actual);
  }

  FixedListStrategy strategy(masks);
  const RunResult result = engine.Run(strategy);
  ExpectRunEqual(ReferenceSearch(scenario, options, masks), result);
}

// With an achievable threshold the search stops at the same first success.
TEST_P(EngineGoldenTest, FirstSuccessMatchesReference) {
  constraints::ConstraintSet constraints;
  constraints.min_f1 = 0.55;
  MlScenario scenario = MakeGoldenScenario(GetParam(), constraints);
  EngineOptions options;
  options.num_threads = 1;

  const auto masks = GoldenMasks(scenario.split.train.num_features());
  DfsEngine engine(scenario, options);
  FixedListStrategy strategy(masks);
  const RunResult result = engine.Run(strategy);
  ExpectRunEqual(ReferenceSearch(scenario, options, masks), result);
}

INSTANTIATE_TEST_SUITE_P(AllModels, EngineGoldenTest,
                         ::testing::Values(ml::ModelKind::kLogisticRegression,
                                           ml::ModelKind::kNaiveBayes,
                                           ml::ModelKind::kDecisionTree,
                                           ml::ModelKind::kLinearSvm),
                         [](const auto& info) {
                           return ml::ModelKindToString(info.param);
                         });

// The HPO grid loop reuses the scratch validation gather; the scores — and
// therefore the argmax hyperparameters — must not move.
TEST(EngineGoldenHpoTest, HpoEvaluationMatchesReference) {
  constraints::ConstraintSet constraints;
  constraints.min_f1 = 0.99;
  for (const auto kind : {ml::ModelKind::kLogisticRegression,
                          ml::ModelKind::kDecisionTree}) {
    MlScenario scenario = MakeGoldenScenario(kind, constraints);
    EngineOptions options;
    options.num_threads = 1;
    options.use_hpo = true;
    DfsEngine engine(scenario, options);
    const int n = scenario.split.train.num_features();
    for (const auto& mask :
         {fs::IndicesToMask(n, {0, 1}), fs::IndicesToMask(n, {1, 2, 3})}) {
      const fs::EvalOutcome actual = engine.Evaluate(mask);
      const ReferenceEvaluation ref =
          ReferenceEvaluate(scenario, options, mask);
      ExpectOutcomeEqual(ref.outcome, actual);
    }
  }
}

// Safety constraint: the robustness attack consumes the per-mask RNG
// stream through the span Attack kernel; values must match the reference
// attack on freshly gathered matrices draw for draw.
TEST(EngineGoldenSafetyTest, SafetyEvaluationMatchesReference) {
  constraints::ConstraintSet constraints;
  constraints.min_f1 = 0.55;
  constraints.min_safety = 0.5;
  constraints.min_equal_opportunity = 0.1;
  MlScenario scenario =
      MakeGoldenScenario(ml::ModelKind::kLogisticRegression, constraints);
  EngineOptions options;
  options.num_threads = 1;
  options.robustness.max_attacked_rows = 6;
  options.robustness.attack.max_queries = 60;
  DfsEngine engine(scenario, options);
  const int n = scenario.split.train.num_features();
  for (const auto& mask :
       {fs::IndicesToMask(n, {0, 1}), fs::IndicesToMask(n, {0, 1, 2}),
        fs::IndicesToMask(n, {2, 3})}) {
    const fs::EvalOutcome actual = engine.Evaluate(mask);
    const ReferenceEvaluation ref = ReferenceEvaluate(scenario, options, mask);
    ExpectOutcomeEqual(ref.outcome, actual);
  }
}

// Privacy constraint: the DP model's noise seed derives from the mask, so
// the scratch path must reproduce the exact same noisy model.
TEST(EngineGoldenPrivacyTest, DpEvaluationMatchesReference) {
  constraints::ConstraintSet constraints;
  constraints.min_f1 = 0.99;
  constraints.privacy_epsilon = 1.0;
  for (const auto kind : {ml::ModelKind::kLogisticRegression,
                          ml::ModelKind::kNaiveBayes,
                          ml::ModelKind::kDecisionTree}) {
    MlScenario scenario = MakeGoldenScenario(kind, constraints);
    EngineOptions options;
    options.num_threads = 1;
    DfsEngine engine(scenario, options);
    const int n = scenario.split.train.num_features();
    for (const auto& mask :
         {fs::IndicesToMask(n, {0, 1}), fs::IndicesToMask(n, {1, 3})}) {
      const fs::EvalOutcome actual = engine.Evaluate(mask);
      const ReferenceEvaluation ref =
          ReferenceEvaluate(scenario, options, mask);
      ExpectOutcomeEqual(ref.outcome, actual);
    }
  }
}

}  // namespace
}  // namespace dfs::core
