#include "ml/linear_svm.h"

#include <cmath>

#include "linalg/kernels.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace dfs::ml {

Status LinearSvm::Fit(const linalg::Matrix& x, const std::vector<int>& y) {
  const int n = x.rows();
  const int d = x.cols();
  if (n == 0) return InvalidArgumentError("empty training set");
  if (static_cast<int>(y.size()) != n) {
    return InvalidArgumentError("labels size mismatch");
  }
  if (params_.svm_c <= 0) return InvalidArgumentError("C must be positive");

  weights_.assign(d, 0.0);
  intercept_ = 0.0;
  const double lambda = 1.0 / (params_.svm_c * n);
  // Deterministic instance ordering via a fixed-seed shuffle per epoch.
  Rng rng(0xC0FFEEULL + static_cast<uint64_t>(n) * 31 + d);
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;

  long long t = 0;
  for (int epoch = 0; epoch < params_.svm_epochs; ++epoch) {
    rng.Shuffle(order);
    double* w = weights_.data();
    for (int i : order) {
      ++t;
      const double step = 1.0 / (lambda * static_cast<double>(t));
      const double label = y[i] == 1 ? 1.0 : -1.0;
      const double* xi = x.RowPtr(i);
      const double margin =
          intercept_ + linalg::kernels::Dot(w, xi, static_cast<size_t>(d));
      // Pegasos update: always shrink, add the hinge subgradient on margin
      // violations.
      const double shrink = 1.0 - step * lambda;
      linalg::kernels::Scale(w, shrink, static_cast<size_t>(d));
      if (label * margin < 1.0) {
        linalg::kernels::AxpyInPlace(w, step * label, xi,
                                     static_cast<size_t>(d));
        intercept_ += step * label * 0.1;  // lightly-learned bias
      }
    }
  }
  fitted_ = true;
  return OkStatus();
}

double LinearSvm::PredictProba(std::span<const double> row) const {
  DFS_DCHECK(fitted_) << "PredictProba before Fit";
  DFS_DCHECK(row.size() == weights_.size());
  const double margin =
      intercept_ +
      linalg::kernels::Dot(row.data(), weights_.data(), row.size());
  return Sigmoid(4.0 * margin);  // squash; scale keeps mid-margins soft
}

void LinearSvm::PredictBatch(const linalg::Matrix& x,
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
  // Same Sigmoid-then-threshold contract as LogisticRegression::
  // PredictBatch (margin-sign tests are not FP-equivalent).
  for (int r = 0; r < n; ++r) {
    dst[r] = Sigmoid(4.0 * margins[r]) >= 0.5 ? 1 : 0;
  }
}

std::optional<std::vector<double>> LinearSvm::FeatureImportances() const {
  if (!fitted_) return std::nullopt;
  std::vector<double> importances(weights_.size());
  for (size_t c = 0; c < weights_.size(); ++c) {
    importances[c] = std::fabs(weights_[c]);
  }
  return importances;
}

}  // namespace dfs::ml
