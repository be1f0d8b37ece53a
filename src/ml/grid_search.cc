#include "ml/grid_search.h"

#include <algorithm>
#include <cmath>

#include "metrics/classification.h"
#include "ml/decision_tree.h"
#include "ml/dp/dp_classifier.h"

namespace dfs::ml {
namespace {

// True when `grid` is a nested depth path: non-DP DT points, all
// fittable, that differ only in dt_max_depth (dt_min_samples_split is the
// one other field a tree reads).
bool IsDepthPath(ModelKind kind, const std::vector<Hyperparameters>& grid,
                 const std::optional<DpSetting>& dp) {
  if (kind != ModelKind::kDecisionTree || dp.has_value() || grid.size() < 2) {
    return false;
  }
  for (const Hyperparameters& params : grid) {
    if (params.dt_max_depth < 1 ||
        params.dt_min_samples_split != grid.front().dt_min_samples_split) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<Hyperparameters> HyperparameterGrid(ModelKind kind) {
  std::vector<Hyperparameters> grid;
  switch (kind) {
    case ModelKind::kLogisticRegression:
      for (int exponent = -2; exponent <= 3; ++exponent) {
        Hyperparameters params;
        params.lr_c = std::pow(10.0, exponent);
        grid.push_back(params);
      }
      break;
    case ModelKind::kNaiveBayes:
      for (int exponent = -12; exponent <= -6; ++exponent) {
        Hyperparameters params;
        params.nb_var_smoothing = std::pow(10.0, exponent);
        grid.push_back(params);
      }
      break;
    case ModelKind::kDecisionTree:
      for (int depth = 1; depth <= 7; ++depth) {
        Hyperparameters params;
        params.dt_max_depth = depth;
        grid.push_back(params);
      }
      break;
    case ModelKind::kLinearSvm:
      for (int exponent = -2; exponent <= 3; ++exponent) {
        Hyperparameters params;
        params.svm_c = std::pow(10.0, exponent);
        grid.push_back(params);
      }
      break;
  }
  return grid;
}

StatusOr<GridSearchResult> FitGrid(ModelKind kind,
                                   const std::vector<Hyperparameters>& grid,
                                   const std::optional<DpSetting>& dp,
                                   const linalg::Matrix& train_x,
                                   const std::vector<int>& train_y,
                                   const GridScorer& score) {
  // On a depth path the deepest tree is the only fit (DESIGN.md §2i).
  std::optional<DecisionTree> deepest;
  if (IsDepthPath(kind, grid, dp)) {
    deepest.emplace(*std::max_element(
        grid.begin(), grid.end(),
        [](const Hyperparameters& a, const Hyperparameters& b) {
          return a.dt_max_depth < b.dt_max_depth;
        }));
    DFS_RETURN_IF_ERROR(deepest->Fit(train_x, train_y));
  }

  GridSearchResult result;
  result.best_validation_f1 = -1.0;
  for (const Hyperparameters& params : grid) {
    std::unique_ptr<Classifier> model;
    if (deepest.has_value()) {
      model = std::make_unique<DecisionTree>(
          deepest->Truncated(params.dt_max_depth));
    } else {
      model = dp.has_value()
                  ? CreateDpClassifier(kind, params, dp->epsilon, dp->seed)
                  : CreateClassifier(kind, params);
      DFS_RETURN_IF_ERROR(model->Fit(train_x, train_y));
    }
    ++result.evaluated_points;
    if (grid.size() == 1) {
      result.best_params = params;
      result.best_model = std::move(model);
      return result;
    }
    const double f1 = score(*model);
    if (f1 > result.best_validation_f1) {
      result.best_validation_f1 = f1;
      result.best_params = params;
      result.best_model = std::move(model);
    }
  }
  if (result.best_model == nullptr) {
    return InternalError("no grid point was fitted and scored");
  }
  return result;
}

StatusOr<GridSearchResult> GridSearch(ModelKind kind,
                                      const linalg::Matrix& train_x,
                                      const std::vector<int>& train_y,
                                      const linalg::Matrix& validation_x,
                                      const std::vector<int>& validation_y) {
  std::vector<int> predictions;  // reused across the grid
  return FitGrid(kind, HyperparameterGrid(kind), std::nullopt, train_x,
                 train_y, [&](const Classifier& model) {
                   model.PredictBatch(validation_x, &predictions);
                   return metrics::F1Score(validation_y, predictions);
                 });
}

}  // namespace dfs::ml
