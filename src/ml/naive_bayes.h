#ifndef DFS_ML_NAIVE_BAYES_H_
#define DFS_ML_NAIVE_BAYES_H_

#include <memory>
#include <vector>

#include "ml/classifier.h"

namespace dfs::ml {

/// Gaussian naive Bayes with variance smoothing: each feature's per-class
/// variance gets `var_smoothing * max feature variance` added, matching
/// scikit-learn's GaussianNB.
class GaussianNaiveBayes : public Classifier {
 public:
  explicit GaussianNaiveBayes(const Hyperparameters& params)
      : params_(params) {}

  Status Fit(const linalg::Matrix& x, const std::vector<int>& y) override;
  double PredictProba(std::span<const double> row) const override;
  /// Re-expose the base-class std::vector convenience shim (the span
  /// override would otherwise hide it from unqualified lookup).
  using Classifier::PredictProba;

  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<GaussianNaiveBayes>(params_);
  }
  std::string name() const override { return "NB"; }

 protected:
  /// Precomputes the per-class likelihood constants consumed by
  /// PredictProba: log_norm_[k] = log_prior + sum_c -0.5*log(2*pi*var_c)
  /// and inv2var_[k][c] = 1 / (2*var_c). Pulls every std::log out of the
  /// predict hot loop, leaving one WeightedSquaredDiff kernel per class
  /// (DESIGN.md §2i). Every Fit (including the DP subclass, which writes
  /// the statistics itself) must call this last.
  void FinalizeDerivedStats();

  Hyperparameters params_;
  // Index 0 = class 0, index 1 = class 1.
  double log_prior_[2] = {0.0, 0.0};
  std::vector<double> mean_[2];
  std::vector<double> variance_[2];
  // Derived by FinalizeDerivedStats from the statistics above.
  double log_norm_[2] = {0.0, 0.0};
  std::vector<double> inv2var_[2];
  bool fitted_ = false;
};

}  // namespace dfs::ml

#endif  // DFS_ML_NAIVE_BAYES_H_
