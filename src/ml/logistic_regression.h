#ifndef DFS_ML_LOGISTIC_REGRESSION_H_
#define DFS_ML_LOGISTIC_REGRESSION_H_

#include <memory>
#include <vector>

#include "ml/classifier.h"

namespace dfs::ml {

/// L2-regularized logistic regression trained with full-batch gradient
/// descent and a backtracking step size. The regularization strength is
/// 1 / (C * n), matching scikit-learn's parameterization of `C`.
class LogisticRegression : public Classifier {
 public:
  explicit LogisticRegression(const Hyperparameters& params)
      : params_(params) {}

  Status Fit(const linalg::Matrix& x, const std::vector<int>& y) override;
  double PredictProba(std::span<const double> row) const override;
  /// Re-expose the base-class std::vector convenience shim (the span
  /// override would otherwise hide it from unqualified lookup).
  using Classifier::PredictProba;

  /// Batched margins through the blocked MatVec kernel; bitwise-equal to
  /// the base per-row loop because both run the same canonical dot.
  void PredictBatch(const linalg::Matrix& x,
                    std::vector<int>* out) const override;
  using Classifier::PredictBatch;

  /// |w_j| per feature.
  std::optional<std::vector<double>> FeatureImportances() const override;

  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<LogisticRegression>(params_);
  }
  std::string name() const override { return "LR"; }

  const std::vector<double>& weights() const { return weights_; }
  double intercept() const { return intercept_; }

 protected:
  Hyperparameters params_;
  std::vector<double> weights_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

}  // namespace dfs::ml

#endif  // DFS_ML_LOGISTIC_REGRESSION_H_
