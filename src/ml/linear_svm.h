#ifndef DFS_ML_LINEAR_SVM_H_
#define DFS_ML_LINEAR_SVM_H_

#include <memory>
#include <vector>

#include "ml/classifier.h"

namespace dfs::ml {

/// Linear soft-margin SVM trained with the Pegasos stochastic subgradient
/// method (lambda = 1 / (C * n)). Probabilities are a logistic squashing of
/// the margin (sufficient for the 0.5-threshold decisions the study needs).
/// Used by the feature-set transferability experiment (Table 7).
class LinearSvm : public Classifier {
 public:
  explicit LinearSvm(const Hyperparameters& params) : params_(params) {}

  Status Fit(const linalg::Matrix& x, const std::vector<int>& y) override;
  double PredictProba(std::span<const double> row) const override;
  /// Re-expose the base-class std::vector convenience shim (the span
  /// override would otherwise hide it from unqualified lookup).
  using Classifier::PredictProba;

  /// Batched margins via the blocked MatVec kernel; bitwise-equal to the
  /// base per-row loop (same canonical dot per row).
  void PredictBatch(const linalg::Matrix& x,
                    std::vector<int>* out) const override;
  using Classifier::PredictBatch;

  /// |w_j| per feature.
  std::optional<std::vector<double>> FeatureImportances() const override;

  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<LinearSvm>(params_);
  }
  std::string name() const override { return "SVM"; }

 private:
  Hyperparameters params_;
  std::vector<double> weights_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

}  // namespace dfs::ml

#endif  // DFS_ML_LINEAR_SVM_H_
