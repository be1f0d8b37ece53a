#ifndef DFS_CORE_OPTIMIZER_H_
#define DFS_CORE_OPTIMIZER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "ml/random_forest.h"
#include "util/statusor.h"

namespace dfs::core {

/// Configuration of the meta-learning featurization.
struct OptimizerOptions {
  /// Subsampling-based landmarking sample size (Section 6.2 uses 100, the
  /// smallest training set in the benchmark).
  int landmark_sample_size = 100;
  int landmark_folds = 3;
  /// Shrinkage toward each strategy's global training success rate:
  /// P = (1 - w) * forest + w * prior. Stabilizes the argmax when the
  /// meta-training pool is small (the paper trained on thousands of
  /// scenarios; scaled-down studies have tens).
  double prior_blend = 0.25;
  ml::RandomForestOptions forest;
  uint64_t seed = 99;
};

/// The meta-feature vector ρ(D, φ, C) of Section 5.2: dataset shape, model
/// one-hot, raw constraint thresholds (with paper defaults for absent
/// optionals), and landmarking-based hardness deltas.
struct ScenarioFeatures {
  std::vector<double> values;

  /// Stable names parallel to `values` (for inspection/tests).
  static std::vector<std::string> Names();
};

/// Computes ρ for a scenario. `dataset` must be the scenario's dataset (the
/// landmark CV runs on a class-stratified subsample of it).
StatusOr<ScenarioFeatures> FeaturizeScenario(
    const data::Dataset& dataset, ml::ModelKind model,
    const constraints::ConstraintSet& constraint_set,
    const OptimizerOptions& options);

/// The meta-learning DFS Optimizer (Algorithm 1): one balanced random
/// forest per FS strategy predicts P(strategy satisfies scenario); at query
/// time the strategy with the highest probability is proposed.
class DfsOptimizer {
 public:
  explicit DfsOptimizer(const OptimizerOptions& options = {})
      : options_(options) {}

  /// Training phase: fits one model per strategy from the benchmark pool.
  /// `records` must carry featurized scenarios (see TrainingExample).
  struct TrainingExample {
    ScenarioFeatures features;
    /// success per strategy (keyed by StrategyId).
    std::map<fs::StrategyId, bool> outcomes;
  };
  Status Train(const std::vector<TrainingExample>& examples,
               const std::vector<fs::StrategyId>& strategies);

  /// Deployment phase: P(success) per strategy for a query scenario.
  StatusOr<std::map<fs::StrategyId, double>> PredictProbabilities(
      const ScenarioFeatures& features) const;

  /// argmax of PredictProbabilities.
  StatusOr<fs::StrategyId> Choose(const ScenarioFeatures& features) const;

  const std::vector<fs::StrategyId>& strategies() const { return strategies_; }

  /// Serializes the trained optimizer (strategy set, per-strategy forests /
  /// constants, priors, blend) so a meta-model trained offline on a large
  /// scenario pool can be shipped and loaded at deployment time — the
  /// Algorithm-1 deployment phase without retraining.
  StatusOr<std::string> Serialize() const;
  static StatusOr<DfsOptimizer> Deserialize(const std::string& text);
  Status SaveToFile(const std::string& path) const;
  static StatusOr<DfsOptimizer> LoadFromFile(const std::string& path);

 private:
  OptimizerOptions options_;
  std::vector<fs::StrategyId> strategies_;
  std::map<fs::StrategyId, std::unique_ptr<ml::RandomForest>> models_;
  std::map<fs::StrategyId, double> constant_probability_;  // degenerate labels
  std::map<fs::StrategyId, double> success_prior_;  // global training rates
};

/// Stable 64-bit fingerprint of a scenario shape (dataset identity, model,
/// constraint thresholds). FNV-1a over the identifying fields, so equal
/// shapes hash equal across processes; the job service mixes it into the
/// key of its shared eval caches.
uint64_t ScenarioFingerprint(const std::string& dataset_name, int num_rows,
                             int num_features, ml::ModelKind model,
                             const constraints::ConstraintSet& constraint_set);

/// Builds TrainingExamples from pool records by regenerating each dataset
/// and featurizing (deterministic in the pool's config seed): one example
/// per record, in pool order. A strategy listed twice in a record keeps its
/// last outcome.
StatusOr<std::vector<DfsOptimizer::TrainingExample>> BuildTrainingExamples(
    const ExperimentPool& pool, const OptimizerOptions& options);

/// Leave-one-dataset-out evaluation of the DFS Optimizer on a benchmark
/// pool (the protocol of Section 6.1): for every dataset, the optimizer is
/// trained on all other datasets' scenarios and queried on the held-out
/// ones. Feeds the "DFS Optimizer" rows of Table 3 / Figure 4 and the
/// meta-learning accuracy breakdown of Table 9.
struct OptimizerLodoResult {
  /// Coverage of the optimizer's chosen strategy per held-out dataset.
  std::map<std::string, double> coverage_by_dataset;
  /// Aggregations across datasets (mean ± std), as in Table 3.
  double coverage_mean = 0.0;
  double coverage_stddev = 0.0;
  double fastest_mean = 0.0;
  double fastest_stddev = 0.0;

  /// Per-strategy precision/recall/F1 of the success predictors at the 0.5
  /// threshold, aggregated across held-out datasets (Table 9).
  struct StrategyScores {
    double precision_mean = 0.0, precision_stddev = 0.0;
    double recall_mean = 0.0, recall_stddev = 0.0;
    double f1_mean = 0.0, f1_stddev = 0.0;
  };
  std::map<fs::StrategyId, StrategyScores> per_strategy;
};

StatusOr<OptimizerLodoResult> EvaluateOptimizerLodo(
    const ExperimentPool& pool, const OptimizerOptions& options);

}  // namespace dfs::core

#endif  // DFS_CORE_OPTIMIZER_H_
