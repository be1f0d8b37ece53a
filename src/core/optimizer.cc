#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <set>
#include <sstream>

#include "data/benchmark_suite.h"
#include "data/split.h"
#include "metrics/classification.h"
#include "metrics/fairness.h"
#include "metrics/robustness.h"
#include "ml/cross_validation.h"
#include "ml/dp/dp_classifier.h"
#include "util/file.h"
#include "util/math_util.h"

namespace dfs::core {

std::vector<std::string> ScenarioFeatures::Names() {
  return {
      "log_rows",         "log_features",     "model_is_lr",
      "model_is_nb",      "model_is_dt",      "min_f1",
      "max_feature_fraction", "min_eo",       "min_safety",
      "privacy_epsilon",  "has_privacy",      "log_max_search_seconds",
      "landmark_f1_slack", "landmark_eo_slack", "landmark_safety_slack",
      "landmark_dp_f1_slack",
  };
}

StatusOr<ScenarioFeatures> FeaturizeScenario(
    const data::Dataset& dataset, ml::ModelKind model,
    const constraints::ConstraintSet& constraint_set,
    const OptimizerOptions& options) {
  Rng rng(options.seed ^ 0xFEA7FEA7ULL);

  ScenarioFeatures features;
  auto& v = features.values;
  v.push_back(std::log(1.0 + dataset.num_rows()));
  v.push_back(std::log(1.0 + dataset.num_features()));
  v.push_back(model == ml::ModelKind::kLogisticRegression ? 1.0 : 0.0);
  v.push_back(model == ml::ModelKind::kNaiveBayes ? 1.0 : 0.0);
  v.push_back(model == ml::ModelKind::kDecisionTree ? 1.0 : 0.0);
  // Raw constraint thresholds, with the "no constraint" defaults of the
  // template (Listing 1): fraction 1 (all features allowed), EO/safety 0,
  // privacy off.
  v.push_back(constraint_set.min_f1);
  v.push_back(constraint_set.max_feature_fraction.value_or(1.0));
  v.push_back(constraint_set.min_equal_opportunity.value_or(0.0));
  v.push_back(constraint_set.min_safety.value_or(0.0));
  v.push_back(constraint_set.privacy_epsilon.value_or(0.0));
  v.push_back(constraint_set.privacy_epsilon.has_value() ? 1.0 : 0.0);
  v.push_back(std::log(constraint_set.max_search_seconds));

  // Subsampling-based landmarking (Fürnkranz & Petrak 2001): estimate how
  // far the full feature set is from each threshold on a small stratified
  // sample, as the hardness prior ρ_hardness.
  const data::Dataset sample =
      data::StratifiedSample(dataset, options.landmark_sample_size, rng);
  const linalg::Matrix x = sample.ToMatrix(sample.AllFeatures());

  const auto prototype = ml::CreateClassifier(model, ml::Hyperparameters());
  double cv_f1 = 0.0;
  {
    auto result = ml::CrossValidatedF1(*prototype, x, sample.labels(),
                                       options.landmark_folds, rng);
    if (result.ok()) cv_f1 = result.value();
  }
  v.push_back(cv_f1 - constraint_set.min_f1);

  // EO / safety landmarks: fit once on the sample and measure in-sample
  // (cheap, biased, but comparable across scenarios — it is a prior).
  double eo_landmark = 1.0;
  double safety_landmark = 1.0;
  {
    auto fitted = prototype->Clone();
    if (fitted->Fit(x, sample.labels()).ok()) {
      const std::vector<int> predictions = fitted->PredictBatch(x);
      eo_landmark = metrics::EqualOpportunity(sample.labels(), predictions,
                                              sample.groups());
      if (constraint_set.min_safety.has_value()) {
        metrics::RobustnessOptions robustness;
        robustness.max_attacked_rows = 8;
        robustness.attack.max_queries = 60;
        safety_landmark = metrics::EmpiricalRobustness(
            *fitted, x, sample.labels(), rng, robustness);
      }
    }
  }
  v.push_back(eo_landmark - constraint_set.min_equal_opportunity.value_or(0.0));
  v.push_back(safety_landmark - constraint_set.min_safety.value_or(0.0));

  // DP hardness: CV F1 of the ε-private model when privacy is requested.
  double dp_slack = 0.0;
  if (constraint_set.privacy_epsilon.has_value()) {
    const auto dp_prototype = ml::CreateDpClassifier(
        model, ml::Hyperparameters(), *constraint_set.privacy_epsilon,
        options.seed);
    auto result = ml::CrossValidatedF1(*dp_prototype, x, sample.labels(),
                                       options.landmark_folds, rng);
    const double dp_f1 = result.ok() ? result.value() : 0.0;
    dp_slack = dp_f1 - constraint_set.min_f1;
  }
  v.push_back(dp_slack);

  DFS_CHECK_EQ(v.size(), ScenarioFeatures::Names().size());
  return features;
}

Status DfsOptimizer::Train(const std::vector<TrainingExample>& examples,
                           const std::vector<fs::StrategyId>& strategies) {
  if (examples.empty()) return InvalidArgumentError("no training examples");
  strategies_ = strategies;
  models_.clear();
  constant_probability_.clear();

  const int n = static_cast<int>(examples.size());
  const int d = static_cast<int>(examples.front().features.values.size());
  linalg::Matrix x(n, d);
  for (int i = 0; i < n; ++i) {
    if (static_cast<int>(examples[i].features.values.size()) != d) {
      return InvalidArgumentError("inconsistent feature vector sizes");
    }
    for (int c = 0; c < d; ++c) {
      x(i, c) = examples[i].features.values[c];
    }
  }

  for (fs::StrategyId id : strategies_) {
    std::vector<int> y(n, 0);
    int positives = 0;
    for (int i = 0; i < n; ++i) {
      auto it = examples[i].outcomes.find(id);
      y[i] = (it != examples[i].outcomes.end() && it->second) ? 1 : 0;
      positives += y[i];
    }
    success_prior_[id] = static_cast<double>(positives) / n;
    if (positives == 0 || positives == n) {
      // Degenerate label: remember the constant empirical probability.
      constant_probability_[id] = positives == 0 ? 0.0 : 1.0;
      continue;
    }
    ml::RandomForestOptions forest = options_.forest;
    forest.seed = options_.seed + static_cast<uint64_t>(id) * 131;
    auto model = std::make_unique<ml::RandomForest>(forest);
    DFS_RETURN_IF_ERROR(model->Fit(x, y));
    models_[id] = std::move(model);
  }
  return OkStatus();
}

StatusOr<std::map<fs::StrategyId, double>>
DfsOptimizer::PredictProbabilities(const ScenarioFeatures& features) const {
  if (strategies_.empty()) return FailedPreconditionError("not trained");
  std::map<fs::StrategyId, double> probabilities;
  for (fs::StrategyId id : strategies_) {
    auto model_it = models_.find(id);
    double probability;
    if (model_it != models_.end()) {
      probability = model_it->second->PredictProba(features.values);
      // Shrink toward the strategy's global training success rate; with
      // small meta-training pools the per-scenario forest is noisy.
      auto prior_it = success_prior_.find(id);
      if (prior_it != success_prior_.end()) {
        probability = (1.0 - options_.prior_blend) * probability +
                      options_.prior_blend * prior_it->second;
      }
    } else {
      auto constant_it = constant_probability_.find(id);
      probability = constant_it != constant_probability_.end()
                        ? constant_it->second
                        : 0.0;
    }
    probabilities[id] = probability;
  }
  return probabilities;
}

StatusOr<fs::StrategyId> DfsOptimizer::Choose(
    const ScenarioFeatures& features) const {
  DFS_ASSIGN_OR_RETURN(auto probabilities, PredictProbabilities(features));
  fs::StrategyId best = strategies_.front();
  double best_probability = -1.0;
  for (fs::StrategyId id : strategies_) {
    if (probabilities[id] > best_probability) {
      best_probability = probabilities[id];
      best = id;
    }
  }
  return best;
}

StatusOr<std::string> DfsOptimizer::Serialize() const {
  if (strategies_.empty()) return FailedPreconditionError("not trained");
  std::ostringstream out;
  // max_digits10 so priors/constants round-trip exactly: a restored
  // optimizer must produce bit-identical probabilities, so a shipped model
  // chooses what the trained one chose.
  out << std::setprecision(17);
  out << "dfs-optimizer v1\n";
  out << options_.landmark_sample_size << " " << options_.landmark_folds
      << " " << options_.prior_blend << " " << options_.seed << "\n";
  out << strategies_.size() << "\n";
  for (fs::StrategyId id : strategies_) {
    out << fs::StrategyIdToString(id) << "\n";
    const double prior =
        success_prior_.count(id) ? success_prior_.at(id) : 0.0;
    auto model_it = models_.find(id);
    if (model_it != models_.end()) {
      const std::string forest = model_it->second->Serialize();
      out << "model " << prior << " " << forest.size() << "\n" << forest;
    } else {
      const double constant = constant_probability_.count(id)
                                  ? constant_probability_.at(id)
                                  : 0.0;
      out << "constant " << prior << " " << constant << "\n";
    }
  }
  return out.str();
}

StatusOr<DfsOptimizer> DfsOptimizer::Deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  std::getline(in, header);
  if (header != "dfs-optimizer v1") {
    return InvalidArgumentError("not a serialized DFS optimizer");
  }
  OptimizerOptions options;
  size_t num_strategies = 0;
  in >> options.landmark_sample_size >> options.landmark_folds >>
      options.prior_blend >> options.seed >> num_strategies;
  in.ignore();
  if (!in || num_strategies == 0 || num_strategies > 256) {
    return InvalidArgumentError("corrupt optimizer header");
  }
  DfsOptimizer optimizer(options);
  for (size_t s = 0; s < num_strategies; ++s) {
    std::string name;
    std::getline(in, name);
    DFS_ASSIGN_OR_RETURN(fs::StrategyId id, fs::StrategyIdFromString(name));
    optimizer.strategies_.push_back(id);
    std::string kind;
    double prior = 0.0;
    in >> kind >> prior;
    optimizer.success_prior_[id] = prior;
    if (kind == "model") {
      size_t forest_bytes = 0;
      in >> forest_bytes;
      in.ignore();
      if (!in || forest_bytes > 1u << 28) {
        return InvalidArgumentError("corrupt forest length");
      }
      std::string blob(forest_bytes, '\0');
      in.read(blob.data(), static_cast<std::streamsize>(forest_bytes));
      if (!in) return InvalidArgumentError("truncated forest blob");
      DFS_ASSIGN_OR_RETURN(ml::RandomForest forest,
                           ml::RandomForest::Deserialize(blob));
      // PredictProbabilities hands the forest a ScenarioFeatures row.
      if (forest.MinInputWidth() > ScenarioFeatures::Names().size()) {
        return InvalidArgumentError("forest feature index out of range");
      }
      optimizer.models_[id] =
          std::make_unique<ml::RandomForest>(std::move(forest));
    } else if (kind == "constant") {
      double constant = 0.0;
      in >> constant;
      in.ignore();
      if (!in) return InvalidArgumentError("corrupt constant record");
      optimizer.constant_probability_[id] = constant;
    } else {
      return InvalidArgumentError("unknown record kind: " + kind);
    }
  }
  return optimizer;
}

Status DfsOptimizer::SaveToFile(const std::string& path) const {
  DFS_ASSIGN_OR_RETURN(const std::string text, Serialize());
  return util::WriteFile(path, text);
}

StatusOr<DfsOptimizer> DfsOptimizer::LoadFromFile(const std::string& path) {
  DFS_ASSIGN_OR_RETURN(const std::string text, util::ReadFile(path));
  return Deserialize(text);
}

namespace {

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

uint64_t FnvMixBytes(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  return FnvMixBytes(hash, &value, sizeof(value));
}

uint64_t FnvMix(uint64_t hash, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return FnvMix(hash, bits);
}

}  // namespace

uint64_t ScenarioFingerprint(const std::string& dataset_name, int num_rows,
                             int num_features, ml::ModelKind model,
                             const constraints::ConstraintSet& constraint_set) {
  uint64_t hash = FnvMixBytes(kFnvOffset, dataset_name.data(),
                              dataset_name.size());
  hash = FnvMix(hash, static_cast<uint64_t>(num_rows));
  hash = FnvMix(hash, static_cast<uint64_t>(num_features));
  hash = FnvMix(hash, static_cast<uint64_t>(model));
  hash = FnvMix(hash, constraint_set.min_f1);
  // Absent optionals hash as -1, outside every threshold's valid range,
  // so "unset" never collides with a real 0 threshold.
  hash = FnvMix(hash, constraint_set.max_feature_fraction.value_or(-1.0));
  hash = FnvMix(hash, constraint_set.min_equal_opportunity.value_or(-1.0));
  hash = FnvMix(hash, constraint_set.min_safety.value_or(-1.0));
  hash = FnvMix(hash, constraint_set.privacy_epsilon.value_or(-1.0));
  hash = FnvMix(hash, constraint_set.max_search_seconds);
  return hash;
}

StatusOr<std::vector<DfsOptimizer::TrainingExample>> BuildTrainingExamples(
    const ExperimentPool& pool, const OptimizerOptions& options) {
  std::vector<DfsOptimizer::TrainingExample> examples;
  examples.reserve(pool.records().size());
  // Datasets regenerate deterministically from the pool config.
  std::vector<std::optional<data::Dataset>> datasets(data::BenchmarkSize());
  for (const auto& record : pool.records()) {
    auto& slot = datasets[record.dataset_index];
    if (!slot.has_value()) {
      DFS_ASSIGN_OR_RETURN(
          auto dataset,
          data::GenerateBenchmarkDataset(record.dataset_index,
                                         pool.config().seed,
                                         pool.config().row_scale));
      slot = std::move(dataset);
    }
    DfsOptimizer::TrainingExample example;
    DFS_ASSIGN_OR_RETURN(
        example.features,
        FeaturizeScenario(*slot, record.model, record.constraint_set,
                          options));
    // A record without outcomes stays an (all-failure) example: the
    // baseline id is outside every Train call's strategy set, so only the
    // example's presence matters (LODO indexes examples parallel to
    // records).
    if (record.outcomes.empty()) {
      example.outcomes[fs::StrategyId::kOriginalFeatureSet] = false;
    }
    for (const auto& outcome : record.outcomes) {
      example.outcomes[outcome.id] = outcome.success;
    }
    examples.push_back(std::move(example));
  }
  return examples;
}

namespace {

struct MeanStdAccumulator {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
  double MeanValue() const { return Mean(values); }
  double StdValue() const { return SampleStdDev(values); }
};

// Precision/recall/F1 of binary predictions against actual outcomes.
void BinaryPrf(const std::vector<int>& actual, const std::vector<int>& predicted,
               double* precision, double* recall, double* f1) {
  int tp = 0, fp = 0, fn = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (predicted[i] == 1 && actual[i] == 1) ++tp;
    if (predicted[i] == 1 && actual[i] == 0) ++fp;
    if (predicted[i] == 0 && actual[i] == 1) ++fn;
  }
  *precision = tp + fp > 0 ? static_cast<double>(tp) / (tp + fp) : 0.0;
  *recall = tp + fn > 0 ? static_cast<double>(tp) / (tp + fn) : 0.0;
  *f1 = *precision + *recall > 0
            ? 2.0 * *precision * *recall / (*precision + *recall)
            : 0.0;
}

}  // namespace

StatusOr<OptimizerLodoResult> EvaluateOptimizerLodo(
    const ExperimentPool& pool, const OptimizerOptions& options) {
  DFS_ASSIGN_OR_RETURN(auto examples, BuildTrainingExamples(pool, options));
  const auto& records = pool.records();
  DFS_CHECK_EQ(examples.size(), records.size());

  // The optimizer chooses among the real strategies, never the baseline.
  std::vector<fs::StrategyId> strategies;
  for (fs::StrategyId id : pool.config().strategies) {
    if (id != fs::StrategyId::kOriginalFeatureSet) strategies.push_back(id);
  }
  if (strategies.empty()) {
    return InvalidArgumentError("pool has no selectable strategies");
  }

  std::set<std::string> datasets;
  for (const auto& record : records) datasets.insert(record.dataset_name);
  if (datasets.size() < 2) {
    return FailedPreconditionError(
        "leave-one-dataset-out needs at least two datasets in the pool");
  }

  OptimizerLodoResult result;
  MeanStdAccumulator coverage_acc, fastest_acc;
  std::map<fs::StrategyId, MeanStdAccumulator> precision_acc, recall_acc,
      f1_acc;

  for (const std::string& held_out : datasets) {
    std::vector<DfsOptimizer::TrainingExample> train_examples;
    for (size_t i = 0; i < records.size(); ++i) {
      if (records[i].dataset_name != held_out) {
        train_examples.push_back(examples[i]);
      }
    }
    if (train_examples.empty()) continue;
    DfsOptimizer optimizer(options);
    DFS_RETURN_IF_ERROR(optimizer.Train(train_examples, strategies));

    int satisfiable = 0, covered = 0, fastest_hits = 0;
    std::map<fs::StrategyId, std::vector<int>> actual, predicted;
    for (size_t i = 0; i < records.size(); ++i) {
      const ScenarioRecord& record = records[i];
      if (record.dataset_name != held_out) continue;
      DFS_ASSIGN_OR_RETURN(auto probabilities,
                           optimizer.PredictProbabilities(examples[i].features));
      // Per-strategy success prediction at the 0.5 threshold (Table 9).
      for (fs::StrategyId id : strategies) {
        const StrategyOutcome* outcome = record.OutcomeOf(id);
        if (outcome == nullptr) continue;
        actual[id].push_back(outcome->success ? 1 : 0);
        predicted[id].push_back(probabilities[id] >= 0.5 ? 1 : 0);
      }
      if (!record.Satisfiable()) continue;
      ++satisfiable;
      // The optimizer's pick.
      fs::StrategyId chosen = strategies.front();
      double best_probability = -1.0;
      for (fs::StrategyId id : strategies) {
        if (probabilities[id] > best_probability) {
          best_probability = probabilities[id];
          chosen = id;
        }
      }
      const StrategyOutcome* outcome = record.OutcomeOf(chosen);
      if (outcome != nullptr && outcome->success) {
        ++covered;
        double fastest = -1.0;
        for (const auto& other : record.outcomes) {
          if (other.success &&
              (fastest < 0.0 || other.seconds < fastest)) {
            fastest = other.seconds;
          }
        }
        if (outcome->seconds <= fastest) ++fastest_hits;
      }
    }
    if (satisfiable > 0) {
      const double coverage = static_cast<double>(covered) / satisfiable;
      result.coverage_by_dataset[held_out] = coverage;
      coverage_acc.Add(coverage);
      fastest_acc.Add(static_cast<double>(fastest_hits) / satisfiable);
    }
    for (fs::StrategyId id : strategies) {
      if (actual[id].empty()) continue;
      double precision, recall, f1;
      BinaryPrf(actual[id], predicted[id], &precision, &recall, &f1);
      precision_acc[id].Add(precision);
      recall_acc[id].Add(recall);
      f1_acc[id].Add(f1);
    }
  }

  result.coverage_mean = coverage_acc.MeanValue();
  result.coverage_stddev = coverage_acc.StdValue();
  result.fastest_mean = fastest_acc.MeanValue();
  result.fastest_stddev = fastest_acc.StdValue();
  for (fs::StrategyId id : strategies) {
    OptimizerLodoResult::StrategyScores scores;
    scores.precision_mean = precision_acc[id].MeanValue();
    scores.precision_stddev = precision_acc[id].StdValue();
    scores.recall_mean = recall_acc[id].MeanValue();
    scores.recall_stddev = recall_acc[id].StdValue();
    scores.f1_mean = f1_acc[id].MeanValue();
    scores.f1_stddev = f1_acc[id].StdValue();
    result.per_strategy[id] = scores;
  }
  return result;
}

}  // namespace dfs::core
