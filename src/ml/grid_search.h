#ifndef DFS_ML_GRID_SEARCH_H_
#define DFS_ML_GRID_SEARCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "linalg/matrix.h"
#include "ml/classifier.h"
#include "util/statusor.h"

namespace dfs::ml {

/// Hyperparameter grids from Section 6.1:
///   LR: C in {10^n | n in [-2, 3]}
///   NB: var_smoothing log-spaced in [1e-12, 1e-6]
///   DT: max depth in [1, 7]
///   SVM: C in {10^n | n in [-2, 3]} (for the Table-7 transfer experiment)
/// Returns one Hyperparameters per grid point for `kind`.
std::vector<Hyperparameters> HyperparameterGrid(ModelKind kind);

struct GridSearchResult {
  Hyperparameters best_params;
  std::unique_ptr<Classifier> best_model;  // fitted on the training data
  double best_validation_f1 = 0.0;
  int evaluated_points = 0;
};

/// The ε-differential-privacy setting of a grid fit: every point is then
/// CreateDpClassifier's model with this epsilon and noise seed.
struct DpSetting {
  double epsilon = 0.0;
  uint64_t seed = 0;
};

/// Scores one fitted grid point; higher is better.
using GridScorer = std::function<double(const Classifier&)>;

/// The one hyperparameter-optimization loop. Fits `kind` (its DP variant
/// when `dp` is set) at every point of `grid` on (train_x, train_y),
/// scores the fitted models with `score` in grid order, and keeps the
/// first point with the strictly highest score. A one-point grid has
/// nothing to choose: its model is fitted and returned unscored.
///
/// A non-DP DT grid whose points differ only in dt_max_depth is a nested
/// depth path: the deepest point is fitted once and every other point is
/// its DecisionTree::Truncated copy, byte-identical to a direct fit.
StatusOr<GridSearchResult> FitGrid(ModelKind kind,
                                   const std::vector<Hyperparameters>& grid,
                                   const std::optional<DpSetting>& dp,
                                   const linalg::Matrix& train_x,
                                   const std::vector<int>& train_y,
                                   const GridScorer& score);

/// Trains `kind` at every grid point on (train_x, train_y), scores F1 on
/// (validation_x, validation_y), and returns the best configuration with its
/// fitted model — the "model hyperparameter optimization" stage of the DFS
/// workflow (Figure 2).
StatusOr<GridSearchResult> GridSearch(ModelKind kind,
                                      const linalg::Matrix& train_x,
                                      const std::vector<int>& train_y,
                                      const linalg::Matrix& validation_x,
                                      const std::vector<int>& validation_y);

}  // namespace dfs::ml

#endif  // DFS_ML_GRID_SEARCH_H_
