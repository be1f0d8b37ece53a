#include "ml/naive_bayes.h"

#include <cmath>

#include "linalg/kernels.h"
#include "util/math_util.h"

namespace dfs::ml {

Status GaussianNaiveBayes::Fit(const linalg::Matrix& x,
                               const std::vector<int>& y) {
  const int n = x.rows();
  const int d = x.cols();
  if (n == 0) return InvalidArgumentError("empty training set");
  if (static_cast<int>(y.size()) != n) {
    return InvalidArgumentError("labels size mismatch");
  }

  double count[2] = {0.0, 0.0};
  for (int r = 0; r < n; ++r) count[y[r]] += 1.0;
  if (count[0] == 0.0 || count[1] == 0.0) {
    // Degenerate single-class data: predict the constant class via priors.
    count[0] = std::max(count[0], 1e-9);
    count[1] = std::max(count[1], 1e-9);
  }
  for (int k = 0; k < 2; ++k) {
    log_prior_[k] = SafeLog(count[k] / n);
    mean_[k].assign(d, 0.0);
    variance_[k].assign(d, 0.0);
  }
  // Sufficient statistics over raw row pointers: one bounds check per row,
  // none per element (the [0,1]-scaled features make this the entire cost
  // of an NB fit).
  for (int r = 0; r < n; ++r) {
    const double* xr = x.RowPtr(r);
    double* m = mean_[y[r]].data();
    for (int c = 0; c < d; ++c) m[c] += xr[c];
  }
  for (int k = 0; k < 2; ++k) {
    for (int c = 0; c < d; ++c) mean_[k][c] /= std::max(count[k], 1e-9);
  }
  for (int r = 0; r < n; ++r) {
    const double* xr = x.RowPtr(r);
    const double* m = mean_[y[r]].data();
    double* v = variance_[y[r]].data();
    for (int c = 0; c < d; ++c) {
      const double delta = xr[c] - m[c];
      v[c] += delta * delta;
    }
  }
  // Smoothing: fraction of the largest overall feature variance.
  double max_variance = 0.0;
  for (int k = 0; k < 2; ++k) {
    for (int c = 0; c < d; ++c) {
      variance_[k][c] /= std::max(count[k], 1e-9);
    }
  }
  for (int c = 0; c < d; ++c) {
    // Same two-pass mean/variance arithmetic as util::Variance, strided
    // over the column in place of the former x.Column copy.
    double sum = 0.0;
    for (int r = 0; r < n; ++r) sum += x.At(r, c);
    const double mean = sum / n;
    double sq = 0.0;
    for (int r = 0; r < n; ++r) {
      const double delta = x.At(r, c) - mean;
      sq += delta * delta;
    }
    max_variance = std::max(max_variance, sq / n);
  }
  const double smoothing =
      std::max(params_.nb_var_smoothing * std::max(max_variance, 1e-9), 1e-12);
  for (int k = 0; k < 2; ++k) {
    for (int c = 0; c < d; ++c) variance_[k][c] += smoothing;
  }
  FinalizeDerivedStats();
  fitted_ = true;
  return OkStatus();
}

void GaussianNaiveBayes::FinalizeDerivedStats() {
  for (int k = 0; k < 2; ++k) {
    const size_t d = variance_[k].size();
    inv2var_[k].resize(d);
    double norm = log_prior_[k];
    for (size_t c = 0; c < d; ++c) {
      const double variance = variance_[k][c];
      norm += -0.5 * std::log(2.0 * M_PI * variance);
      inv2var_[k][c] = 1.0 / (2.0 * variance);
    }
    log_norm_[k] = norm;
  }
}

double GaussianNaiveBayes::PredictProba(std::span<const double> row) const {
  DFS_DCHECK(fitted_) << "PredictProba before Fit";
  DFS_DCHECK(row.size() == mean_[0].size());
  const double* v = row.data();
  const size_t d = row.size();
  // log P(x | k) + log P(k) = log_norm_[k] - sum_c delta^2 / (2 var_c);
  // the quadratic term is one blocked WeightedSquaredDiff kernel, the log
  // terms were folded into log_norm_ at Fit time.
  double log_likelihood[2];
  for (int k = 0; k < 2; ++k) {
    log_likelihood[k] =
        log_norm_[k] - linalg::kernels::WeightedSquaredDiff(
                           v, mean_[k].data(), inv2var_[k].data(), d);
  }
  // P(1 | row) via the log-sum-exp trick.
  const double max_ll = std::max(log_likelihood[0], log_likelihood[1]);
  const double e0 = std::exp(log_likelihood[0] - max_ll);
  const double e1 = std::exp(log_likelihood[1] - max_ll);
  return e1 / (e0 + e1);
}

}  // namespace dfs::ml
