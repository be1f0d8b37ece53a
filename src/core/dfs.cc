#include "core/dfs.h"

#include "util/thread_pool.h"

namespace dfs::core {

DeclarativeFeatureSelection::DeclarativeFeatureSelection(data::Dataset dataset,
                                                         uint64_t seed)
    : dataset_(std::move(dataset)), seed_(seed) {}

DeclarativeFeatureSelection& DeclarativeFeatureSelection::SetModel(
    ml::ModelKind model) {
  model_ = model;
  return *this;
}

DeclarativeFeatureSelection& DeclarativeFeatureSelection::SetConstraints(
    const constraints::ConstraintSet& constraint_set) {
  constraint_set_ = constraint_set;
  return *this;
}

DeclarativeFeatureSelection& DeclarativeFeatureSelection::UseHpo(
    bool use_hpo) {
  use_hpo_ = use_hpo;
  return *this;
}

DeclarativeFeatureSelection& DeclarativeFeatureSelection::MaximizeUtility(
    bool maximize) {
  maximize_utility_ = maximize;
  return *this;
}

DeclarativeFeatureSelection& DeclarativeFeatureSelection::RecordTrace(
    bool record) {
  record_trace_ = record;
  return *this;
}

StatusOr<MlScenario> DeclarativeFeatureSelection::BuildScenario() const {
  Rng rng(seed_);
  return MakeScenario(dataset_, model_, constraint_set_, rng);
}

DfsResult DeclarativeFeatureSelection::ToResult(RunResult run,
                                                fs::StrategyId id) const {
  DfsResult result;
  result.trace = std::move(run.trace);
  result.success = run.success;
  result.features = fs::MaskToIndices(run.selected);
  for (int f : result.features) {
    result.feature_names.push_back(dataset_.feature_names()[f]);
  }
  result.validation_values = run.validation_values;
  result.test_values = run.test_values;
  result.search_seconds = run.search_seconds;
  result.strategy = fs::StrategyIdToString(id);
  result.model = ml::ModelKindToString(model_);
  return result;
}

StatusOr<DfsResult> DeclarativeFeatureSelection::Select(
    fs::StrategyId strategy_id) {
  DFS_ASSIGN_OR_RETURN(MlScenario scenario, BuildScenario());
  EngineOptions options;
  options.use_hpo = use_hpo_;
  options.maximize_f1_utility = maximize_utility_;
  options.record_trace = record_trace_;
  options.seed = seed_;
  DfsEngine engine(scenario, options);
  auto strategy = fs::CreateStrategy(strategy_id, seed_ ^ 0xABCDEFULL);
  return ToResult(engine.Run(*strategy), strategy_id);
}

StatusOr<DfsResult> DeclarativeFeatureSelection::SelectWithOptimizer(
    const DfsOptimizer& optimizer) {
  OptimizerOptions options;
  options.seed = seed_;
  DFS_ASSIGN_OR_RETURN(
      ScenarioFeatures features,
      FeaturizeScenario(dataset_, model_, constraint_set_, options));
  DFS_ASSIGN_OR_RETURN(fs::StrategyId chosen, optimizer.Choose(features));
  return Select(chosen);
}

StatusOr<DfsResult> DeclarativeFeatureSelection::SelectParallel(
    const std::vector<fs::StrategyId>& strategy_ids, int num_threads) {
  if (strategy_ids.empty()) {
    return InvalidArgumentError("no strategies given");
  }
  DFS_ASSIGN_OR_RETURN(MlScenario scenario, BuildScenario());

  // One pool of `num_threads` runs the strategies and, borrowed by their
  // engines, every EvaluateBatch: the budget is shared, never multiplied.
  ThreadPool threads(num_threads);
  std::vector<std::pair<fs::StrategyId, RunResult>> runs(strategy_ids.size());
  for (size_t i = 0; i < strategy_ids.size(); ++i) {
    threads.Schedule([&, i] {
      EngineOptions options;
      options.use_hpo = use_hpo_;
      options.maximize_f1_utility = maximize_utility_;
      options.record_trace = record_trace_;
      options.seed = seed_ + i;
      options.pool = &threads;
      DfsEngine engine(scenario, options);
      auto strategy = fs::CreateStrategy(strategy_ids[i], seed_ * 31 + i + 1);
      runs[i] = {strategy_ids[i], engine.Run(*strategy)};
    });
  }
  threads.Wait();  // blocks without helping: the workers are the budget

  // Fastest success wins; otherwise the closest-by-validation-distance run.
  int best = -1;
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& run = runs[i].second;
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    const RunResult& incumbent = runs[best].second;
    const bool better =
        run.success != incumbent.success
            ? run.success
            : (run.success
                   ? run.search_seconds < incumbent.search_seconds
                   : run.best_distance_validation <
                         incumbent.best_distance_validation);
    if (better) best = static_cast<int>(i);
  }
  return ToResult(runs[best].second, runs[best].first);
}

StatusOr<DfsResult> DeclarativeFeatureSelection::SelectModelAndFeatures(
    const std::vector<ml::ModelKind>& candidate_models,
    fs::StrategyId strategy_id) {
  if (candidate_models.empty()) {
    return InvalidArgumentError("no candidate models given");
  }
  const ml::ModelKind original_model = model_;
  const constraints::ConstraintSet original_constraints = constraint_set_;
  // Even budget split across the candidates, as a simple portfolio over
  // model classes.
  constraint_set_.max_search_seconds =
      original_constraints.max_search_seconds /
      static_cast<double>(candidate_models.size());

  std::optional<DfsResult> best;
  for (ml::ModelKind candidate : candidate_models) {
    model_ = candidate;
    auto result = Select(strategy_id);
    if (!result.ok()) {
      model_ = original_model;
      constraint_set_ = original_constraints;
      return result.status();
    }
    if (result->success) {
      best = std::move(*result);
      break;
    }
    // Keep the closest-by-distance failure as the fallback answer.
    if (!best.has_value() ||
        constraint_set_.Distance(result->validation_values) <
            constraint_set_.Distance(best->validation_values)) {
      best = std::move(*result);
    }
  }
  model_ = original_model;
  constraint_set_ = original_constraints;
  return std::move(*best);
}

}  // namespace dfs::core
