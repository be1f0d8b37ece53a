#include "linalg/kernels.h"

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
// The dispatched kernels must match these bitwise in f64 mode; keep the
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

double DotF32(const float* x, const double* w, std::size_t n) {
  double a0 = 0, a1 = 0, a2 = 0, a3 = 0, a4 = 0, a5 = 0, a6 = 0, a7 = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    a0 += static_cast<double>(x[i]) * w[i];
    a1 += static_cast<double>(x[i + 1]) * w[i + 1];
    a2 += static_cast<double>(x[i + 2]) * w[i + 2];
    a3 += static_cast<double>(x[i + 3]) * w[i + 3];
    a4 += static_cast<double>(x[i + 4]) * w[i + 4];
    a5 += static_cast<double>(x[i + 5]) * w[i + 5];
    a6 += static_cast<double>(x[i + 6]) * w[i + 6];
    a7 += static_cast<double>(x[i + 7]) * w[i + 7];
  }
  const double l0 = a0 + a4, l1 = a1 + a5, l2 = a2 + a6, l3 = a3 + a7;
  double sum = (l0 + l2) + (l1 + l3);
  for (; i < n; ++i) sum += static_cast<double>(x[i]) * w[i];
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

double DotF32Portable(const float* DFS_RESTRICT x,
                      const double* DFS_RESTRICT w, std::size_t n) {
  return reference::DotF32(x, w, n);
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

double WeightedSquaredDiffF32Portable(const float* DFS_RESTRICT x,
                                      const double* DFS_RESTRICT mean,
                                      const double* DFS_RESTRICT inv2var,
                                      std::size_t n) {
  double a0 = 0, a1 = 0, a2 = 0, a3 = 0, a4 = 0, a5 = 0, a6 = 0, a7 = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const double d0 = static_cast<double>(x[i]) - mean[i];
    const double d1 = static_cast<double>(x[i + 1]) - mean[i + 1];
    const double d2 = static_cast<double>(x[i + 2]) - mean[i + 2];
    const double d3 = static_cast<double>(x[i + 3]) - mean[i + 3];
    const double d4 = static_cast<double>(x[i + 4]) - mean[i + 4];
    const double d5 = static_cast<double>(x[i + 5]) - mean[i + 5];
    const double d6 = static_cast<double>(x[i + 6]) - mean[i + 6];
    const double d7 = static_cast<double>(x[i + 7]) - mean[i + 7];
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
    const double d = static_cast<double>(x[i]) - mean[i];
    sum += (d * d) * inv2var[i];
  }
  return sum;
}

using DotFn = double (*)(const double*, const double*, std::size_t);
using DotF32Fn = double (*)(const float*, const double*, std::size_t);
using Wsd = double (*)(const double*, const double*, const double*,
                       std::size_t);
using WsdF32 = double (*)(const float*, const double*, const double*,
                          std::size_t);

struct Dispatch {
  DotFn dot;
  DotF32Fn dot_f32;
  DotFn squared_distance;
  Wsd weighted_squared_diff;
  WsdF32 weighted_squared_diff_f32;
  const char* isa;
};

}  // namespace

#if defined(DFS_SIMD_ENABLED)
// Defined in kernels_avx2.cc, compiled with -mavx2 -ffp-contract=off.
namespace avx2 {
double Dot(const double* a, const double* b, std::size_t n);
double DotF32(const float* x, const double* w, std::size_t n);
double SquaredDistance(const double* a, const double* b, std::size_t n);
double WeightedSquaredDiff(const double* x, const double* mean,
                           const double* inv2var, std::size_t n);
double WeightedSquaredDiffF32(const float* x, const double* mean,
                              const double* inv2var, std::size_t n);
}  // namespace avx2
#endif

namespace {

const Dispatch& Active() {
  static const Dispatch dispatch = [] {
    Dispatch d{DotPortable,
               DotF32Portable,
               SquaredDistancePortable,
               WeightedSquaredDiffPortable,
               WeightedSquaredDiffF32Portable,
               "portable"};
#if defined(DFS_SIMD_ENABLED)
    if (__builtin_cpu_supports("avx2")) {
      d = Dispatch{avx2::Dot,
                   avx2::DotF32,
                   avx2::SquaredDistance,
                   avx2::WeightedSquaredDiff,
                   avx2::WeightedSquaredDiffF32,
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

double DotF32Wide(const float* x, const double* w, std::size_t n) {
  return Active().dot_f32(x, w, n);
}

double SquaredDistanceWide(const double* a, const double* b, std::size_t n) {
  return Active().squared_distance(a, b, n);
}

double WeightedSquaredDiffWide(const double* x, const double* mean,
                               const double* inv2var, std::size_t n) {
  return Active().weighted_squared_diff(x, mean, inv2var, n);
}

double WeightedSquaredDiffF32Wide(const float* x, const double* mean,
                                  const double* inv2var, std::size_t n) {
  return Active().weighted_squared_diff_f32(x, mean, inv2var, n);
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

void MatVecF32(const float* x, int rows, int cols, const double* w,
               double bias, double* out) {
  const std::size_t k = static_cast<std::size_t>(cols);
  if (k < detail::kInlineWidth) {
    for (int r = 0; r < rows; ++r) {
      const float* row = x + static_cast<std::size_t>(r) * k;
      double sum = 0.0;
      for (std::size_t c = 0; c < k; ++c) {
        sum += static_cast<double>(row[c]) * w[c];
      }
      out[r] = bias + sum;
    }
    return;
  }
  const DotF32Fn dot = Active().dot_f32;
  for (int r = 0; r < rows; ++r) {
    out[r] = bias + dot(x + static_cast<std::size_t>(r) * k, w, k);
  }
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
