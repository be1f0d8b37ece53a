#include "linalg/kernels.h"

#include "util/math_util.h"

// This TU (and kernels_avx2.cc) is compiled with -ffp-contract=off: a
// fused a*b+c on one side of the runtime dispatch but not the other would
// break the bitwise portable==SIMD contract documented in kernels.h.

#if defined(__GNUC__) || defined(__clang__)
#define DFS_RESTRICT __restrict__
#else
#define DFS_RESTRICT
#endif

namespace dfs::linalg::kernels {

namespace reference {

// The canonical 8-lane accumulation order, spelled as plain scalar C++.
// The dispatched kernels must match these bitwise; keep the
// lane fold ((l0+l2)+(l1+l3)) in sync with kernels.h and kernels_avx2.cc.

double Dot(const double* a, const double* b, std::size_t n) {
  double a0 = 0, a1 = 0, a2 = 0, a3 = 0, a4 = 0, a5 = 0, a6 = 0, a7 = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    a0 += a[i] * b[i];
    a1 += a[i + 1] * b[i + 1];
    a2 += a[i + 2] * b[i + 2];
    a3 += a[i + 3] * b[i + 3];
    a4 += a[i + 4] * b[i + 4];
    a5 += a[i + 5] * b[i + 5];
    a6 += a[i + 6] * b[i + 6];
    a7 += a[i + 7] * b[i + 7];
  }
  const double l0 = a0 + a4, l1 = a1 + a5, l2 = a2 + a6, l3 = a3 + a7;
  double sum = (l0 + l2) + (l1 + l3);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double SquaredDistance(const double* a, const double* b, std::size_t n) {
  double a0 = 0, a1 = 0, a2 = 0, a3 = 0, a4 = 0, a5 = 0, a6 = 0, a7 = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    const double d4 = a[i + 4] - b[i + 4];
    const double d5 = a[i + 5] - b[i + 5];
    const double d6 = a[i + 6] - b[i + 6];
    const double d7 = a[i + 7] - b[i + 7];
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
    a4 += d4 * d4;
    a5 += d5 * d5;
    a6 += d6 * d6;
    a7 += d7 * d7;
  }
  const double l0 = a0 + a4, l1 = a1 + a5, l2 = a2 + a6, l3 = a3 + a7;
  double sum = (l0 + l2) + (l1 + l3);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double WeightedSquaredDiff(const double* x, const double* mean,
                           const double* inv2var, std::size_t n) {
  double a0 = 0, a1 = 0, a2 = 0, a3 = 0, a4 = 0, a5 = 0, a6 = 0, a7 = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const double d0 = x[i] - mean[i];
    const double d1 = x[i + 1] - mean[i + 1];
    const double d2 = x[i + 2] - mean[i + 2];
    const double d3 = x[i + 3] - mean[i + 3];
    const double d4 = x[i + 4] - mean[i + 4];
    const double d5 = x[i + 5] - mean[i + 5];
    const double d6 = x[i + 6] - mean[i + 6];
    const double d7 = x[i + 7] - mean[i + 7];
    a0 += (d0 * d0) * inv2var[i];
    a1 += (d1 * d1) * inv2var[i + 1];
    a2 += (d2 * d2) * inv2var[i + 2];
    a3 += (d3 * d3) * inv2var[i + 3];
    a4 += (d4 * d4) * inv2var[i + 4];
    a5 += (d5 * d5) * inv2var[i + 5];
    a6 += (d6 * d6) * inv2var[i + 6];
    a7 += (d7 * d7) * inv2var[i + 7];
  }
  const double l0 = a0 + a4, l1 = a1 + a5, l2 = a2 + a6, l3 = a3 + a7;
  double sum = (l0 + l2) + (l1 + l3);
  for (; i < n; ++i) {
    const double d = x[i] - mean[i];
    sum += (d * d) * inv2var[i];
  }
  return sum;
}

void MatVec(const double* x, int rows, int cols, const double* w,
            double bias, double* out) {
  for (int r = 0; r < rows; ++r) {
    out[r] = bias + Dot(x + static_cast<std::size_t>(r) * cols, w,
                        static_cast<std::size_t>(cols));
  }
}

void LogisticGradient(const double* x, int rows, int cols, const double* w,
                      double bias, const int* y, double* g,
                      double* bias_grad) {
  const std::size_t k = static_cast<std::size_t>(cols);
  for (int r = 0; r < rows; ++r) {
    const double* row = x + static_cast<std::size_t>(r) * k;
    const double error = Sigmoid(bias + Dot(w, row, k)) - y[r];
    for (std::size_t c = 0; c < k; ++c) g[c] += error * row[c];
    *bias_grad += error;
  }
}

}  // namespace reference

namespace {

// Portable dispatched impls: the same canonical order as reference::,
// with restrict-qualified pointers so the autovectorizer is free to use
// whatever the host toolchain targets. Autovectorization without
// fast-math must preserve the abstract-machine result, so these stay
// bitwise equal to reference:: (kernels_test.cc enforces it).

double DotPortable(const double* DFS_RESTRICT a, const double* DFS_RESTRICT b,
                   std::size_t n) {
  return reference::Dot(a, b, n);
}

double SquaredDistancePortable(const double* DFS_RESTRICT a,
                               const double* DFS_RESTRICT b, std::size_t n) {
  return reference::SquaredDistance(a, b, n);
}

double WeightedSquaredDiffPortable(const double* DFS_RESTRICT x,
                                   const double* DFS_RESTRICT mean,
                                   const double* DFS_RESTRICT inv2var,
                                   std::size_t n) {
  return reference::WeightedSquaredDiff(x, mean, inv2var, n);
}

using DotFn = double (*)(const double*, const double*, std::size_t);
using Wsd = double (*)(const double*, const double*, const double*,
                       std::size_t);
using LogisticGradientFn = void (*)(const double*, int, int, const double*,
                                    double, const int*, double*, double*);

struct Dispatch {
  DotFn dot;
  DotFn squared_distance;
  Wsd weighted_squared_diff;
  LogisticGradientFn logistic_gradient;
  const char* isa;
};

}  // namespace

#if defined(DFS_SIMD_ENABLED)
// Defined in kernels_avx2.cc, compiled with -mavx2 -ffp-contract=off.
namespace avx2 {
double Dot(const double* a, const double* b, std::size_t n);
double SquaredDistance(const double* a, const double* b, std::size_t n);
double WeightedSquaredDiff(const double* x, const double* mean,
                           const double* inv2var, std::size_t n);
void LogisticGradient(const double* x, int rows, int cols, const double* w,
                      double bias, const int* y, double* g,
                      double* bias_grad);
}  // namespace avx2
#endif

namespace {

const Dispatch& Active() {
  static const Dispatch dispatch = [] {
    Dispatch d{DotPortable, SquaredDistancePortable,
               WeightedSquaredDiffPortable,
               // The portable spelling is the per-row reference loop.
               reference::LogisticGradient, "portable"};
#if defined(DFS_SIMD_ENABLED)
    if (__builtin_cpu_supports("avx2")) {
      d = Dispatch{avx2::Dot, avx2::SquaredDistance,
                   avx2::WeightedSquaredDiff, avx2::LogisticGradient,
                   "avx2"};
    }
#endif
    return d;
  }();
  return dispatch;
}

}  // namespace

const char* ActiveIsa() { return Active().isa; }

namespace detail {

double DotWide(const double* a, const double* b, std::size_t n) {
  return Active().dot(a, b, n);
}

double SquaredDistanceWide(const double* a, const double* b, std::size_t n) {
  return Active().squared_distance(a, b, n);
}

double WeightedSquaredDiffWide(const double* x, const double* mean,
                               const double* inv2var, std::size_t n) {
  return Active().weighted_squared_diff(x, mean, inv2var, n);
}

double StridedDotWide(const double* DFS_RESTRICT a, std::size_t stride,
                      const double* DFS_RESTRICT b, std::size_t n) {
  double a0 = 0, a1 = 0, a2 = 0, a3 = 0, a4 = 0, a5 = 0, a6 = 0, a7 = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    a0 += a[i * stride] * b[i];
    a1 += a[(i + 1) * stride] * b[i + 1];
    a2 += a[(i + 2) * stride] * b[i + 2];
    a3 += a[(i + 3) * stride] * b[i + 3];
    a4 += a[(i + 4) * stride] * b[i + 4];
    a5 += a[(i + 5) * stride] * b[i + 5];
    a6 += a[(i + 6) * stride] * b[i + 6];
    a7 += a[(i + 7) * stride] * b[i + 7];
  }
  const double l0 = a0 + a4, l1 = a1 + a5, l2 = a2 + a6, l3 = a3 + a7;
  double sum = (l0 + l2) + (l1 + l3);
  for (; i < n; ++i) sum += a[i * stride] * b[i];
  return sum;
}

}  // namespace detail

void MatVec(const double* x, int rows, int cols, const double* w,
            double bias, double* out) {
  const std::size_t k = static_cast<std::size_t>(cols);
  if (k < detail::kInlineWidth) {
    // Narrow masks (1–7 selected features) would pay an indirect call
    // per row for a handful of multiplies; the sequential loop is the
    // canonical order at these widths.
    for (int r = 0; r < rows; ++r) {
      const double* row = x + static_cast<std::size_t>(r) * k;
      // Sum seeds at 0.0 and bias is added last: same rounding order as
      // the wide path's bias + dot(...).
      double sum = 0.0;
      for (std::size_t c = 0; c < k; ++c) sum += row[c] * w[c];
      out[r] = bias + sum;
    }
    return;
  }
  const DotFn dot = Active().dot;
  for (int r = 0; r < rows; ++r) {
    out[r] = bias + dot(x + static_cast<std::size_t>(r) * k, w, k);
  }
}

void LogisticGradient(const double* x, int rows, int cols, const double* w,
                      double bias, const int* y, double* g,
                      double* bias_grad) {
  Active().logistic_gradient(x, rows, cols, w, bias, y, g, bias_grad);
}

void MatMatT(const double* a, int a_rows, const double* bt, int bt_rows,
             int inner, double* out) {
  const std::size_t k = static_cast<std::size_t>(inner);
  if (k < detail::kInlineWidth) {
    for (int r = 0; r < a_rows; ++r) {
      const double* row = a + static_cast<std::size_t>(r) * k;
      double* out_row = out + static_cast<std::size_t>(r) * bt_rows;
      for (int c = 0; c < bt_rows; ++c) {
        const double* col = bt + static_cast<std::size_t>(c) * k;
        double sum = 0.0;
        for (std::size_t j = 0; j < k; ++j) sum += row[j] * col[j];
        out_row[c] = sum;
      }
    }
    return;
  }
  const DotFn dot = Active().dot;
  for (int r = 0; r < a_rows; ++r) {
    const double* row = a + static_cast<std::size_t>(r) * k;
    double* out_row = out + static_cast<std::size_t>(r) * bt_rows;
    for (int c = 0; c < bt_rows; ++c) {
      out_row[c] = dot(row, bt + static_cast<std::size_t>(c) * k, k);
    }
  }
}

}  // namespace dfs::linalg::kernels
