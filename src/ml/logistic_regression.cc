#include "ml/logistic_regression.h"

#include <cmath>

#include "linalg/kernels.h"
#include "util/math_util.h"

namespace dfs::ml {

Status LogisticRegression::Fit(const linalg::Matrix& x,
                               const std::vector<int>& y) {
  const int n = x.rows();
  const int d = x.cols();
  if (n == 0) return InvalidArgumentError("empty training set");
  if (static_cast<int>(y.size()) != n) {
    return InvalidArgumentError("labels size mismatch");
  }
  if (params_.lr_c <= 0) return InvalidArgumentError("C must be positive");

  weights_.assign(d, 0.0);
  intercept_ = 0.0;
  const double lambda = 1.0 / (params_.lr_c * n);
  const double n_double = static_cast<double>(n);

  // Gradient descent with a decaying step; features in [0,1] keep the
  // logistic loss Lipschitz constant small, so a fixed base step works.
  // Each iteration's row loop is one fused kernel call (DESIGN.md §2i).
  double step = 2.0;
  std::vector<double> gradient(d, 0.0);
  for (int iteration = 0; iteration < params_.lr_max_iterations; ++iteration) {
    std::fill(gradient.begin(), gradient.end(), 0.0);
    double intercept_gradient = 0.0;
    linalg::kernels::LogisticGradient(x.Data(), n, d, weights_.data(),
                                      intercept_, y.data(), gradient.data(),
                                      &intercept_gradient);
    double gradient_norm_sq = intercept_gradient * intercept_gradient;
    for (int c = 0; c < d; ++c) {
      gradient[c] = gradient[c] / n_double + lambda * weights_[c];
      gradient_norm_sq += gradient[c] * gradient[c];
    }
    intercept_gradient /= n_double;
    const double current_step = step / (1.0 + 0.01 * iteration);
    for (int c = 0; c < d; ++c) weights_[c] -= current_step * gradient[c];
    intercept_ -= current_step * intercept_gradient;
    if (gradient_norm_sq < 1e-10) break;
  }
  fitted_ = true;
  return OkStatus();
}

double LogisticRegression::PredictProba(std::span<const double> row) const {
  DFS_DCHECK(fitted_) << "PredictProba before Fit";
  DFS_DCHECK(row.size() == weights_.size());
  const double margin =
      intercept_ +
      linalg::kernels::Dot(row.data(), weights_.data(), row.size());
  return Sigmoid(margin);
}

void LogisticRegression::PredictBatch(const linalg::Matrix& x,
                                      std::vector<int>* out) const {
  DFS_CHECK(out != nullptr);
  DFS_DCHECK(fitted_) << "PredictBatch before Fit";
  const int n = x.rows();
  out->resize(n);  // DFS_ALLOC_OK: caller-owned capacity, warm after first use
  // DFS_THREAD_LOCAL_OK: per-thread scratch; one model serves many threads.
  thread_local std::vector<double> margins;
  margins.resize(n);  // DFS_ALLOC_OK: reusable thread-local scratch
  linalg::kernels::MatVec(x.Data(), n, x.cols(), weights_.data(), intercept_,
                          margins.data());
  int* dst = out->data();
  // Threshold through Sigmoid, not on the margin sign: Sigmoid(m) can
  // round to exactly 0.5 for tiny negative m, so the two tests are not
  // FP-equivalent and the per-row PredictProba path is the contract.
  for (int r = 0; r < n; ++r) dst[r] = Sigmoid(margins[r]) >= 0.5 ? 1 : 0;
}

std::optional<std::vector<double>> LogisticRegression::FeatureImportances()
    const {
  if (!fitted_) return std::nullopt;
  std::vector<double> importances(weights_.size());
  for (size_t c = 0; c < weights_.size(); ++c) {
    importances[c] = std::fabs(weights_[c]);
  }
  return importances;
}

}  // namespace dfs::ml
