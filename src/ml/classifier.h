#ifndef DFS_ML_CLASSIFIER_H_
#define DFS_ML_CLASSIFIER_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace dfs::ml {

/// The classification-model families used in the study (Section 6.1), plus
/// the SVM used in the transferability experiment (Table 7).
enum class ModelKind {
  kLogisticRegression,
  kNaiveBayes,
  kDecisionTree,
  kLinearSvm,
};

const char* ModelKindToString(ModelKind kind);

/// Model hyperparameters, covering the grids from Section 6.1:
/// LR C in {1e-2..1e3}, NB var_smoothing in [1e-12, 1e-6], DT depth in
/// [1, 7]. Unrelated fields are ignored by each model.
struct Hyperparameters {
  double lr_c = 1.0;                ///< inverse regularization strength
  int lr_max_iterations = 100;
  double nb_var_smoothing = 1e-9;
  int dt_max_depth = 5;
  int dt_min_samples_split = 2;
  double svm_c = 1.0;
  int svm_epochs = 30;
};

/// Interface for binary classifiers operating on row-major feature matrices
/// (features are expected min-max scaled to [0, 1], no missing values).
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on `x` (rows = instances) with binary labels `y`.
  virtual Status Fit(const linalg::Matrix& x, const std::vector<int>& y) = 0;

  /// P(y = 1 | row). Only valid after a successful Fit. The span form is
  /// the virtual kernel every implementation provides; it must not retain
  /// the span past the call (rows are typically borrowed views into a
  /// caller's scratch matrix — the RowSpan lifetime rules apply, see
  /// DESIGN.md §2e).
  DFS_HOT virtual double PredictProba(std::span<const double> row) const = 0;

  /// Convenience shim for std::vector callers (delegates to the span
  /// kernel; kept so existing call sites and tests stay source-compatible).
  double PredictProba(const std::vector<double>& row) const {
    return PredictProba(std::span<const double>(row));
  }

  /// Hard prediction at threshold 0.5.
  DFS_HOT virtual int Predict(std::span<const double> row) const {
    return PredictProba(row) >= 0.5 ? 1 : 0;
  }
  int Predict(const std::vector<double>& row) const {
    return Predict(std::span<const double>(row));
  }

  /// Hard predictions for every row of `x`, written into `*out` (resized to
  /// x.rows(); capacity is reused). No per-row vector is materialized: rows
  /// reach the kernel as borrowed spans. Virtual so linear models can
  /// batch the margins through the blocked MatVec kernel; overrides must
  /// stay bitwise-equal to this per-row loop (engine_golden_test relies
  /// on it).
  DFS_HOT virtual void PredictBatch(const linalg::Matrix& x,
                                    std::vector<int>* out) const;

  /// Allocating convenience form of the above.
  std::vector<int> PredictBatch(const linalg::Matrix& x) const;

  /// Model-native feature importances (|w| for linear models, impurity
  /// decrease for trees); nullopt when the model has no such notion (NB) —
  /// RFE then falls back to permutation importance, as in the paper.
  virtual std::optional<std::vector<double>> FeatureImportances() const {
    return std::nullopt;
  }

  /// Fresh unfitted copy with identical hyperparameters.
  virtual std::unique_ptr<Classifier> Clone() const = 0;

  virtual std::string name() const = 0;
};

/// Factory for the standard (non-private) models.
std::unique_ptr<Classifier> CreateClassifier(ModelKind kind,
                                             const Hyperparameters& params);

}  // namespace dfs::ml

#endif  // DFS_ML_CLASSIFIER_H_
