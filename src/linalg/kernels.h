#ifndef DFS_LINALG_KERNELS_H_
#define DFS_LINALG_KERNELS_H_

#include <cstddef>
#include <span>

#include "util/thread_annotations.h"

namespace dfs::linalg::kernels {

// Blocked evaluation kernels for the masked-evaluation hot path (DESIGN.md
// §2i). Every reduction here commits to ONE canonical accumulation order:
//
//   - the main loop runs 8 virtual lanes (lane j accumulates elements
//     8k + j),
//   - lanes fold pairwise as l_j = acc_j + acc_{j+4} (j = 0..3),
//   - the four partials combine as (l0 + l2) + (l1 + l3),
//   - leftover tail elements are added sequentially to that combined sum.
//
// That tree is exactly what two AVX2 accumulators produce under
// vaddpd + vextractf128 + vaddpd + horizontal add, so the portable C++
// fallback and the explicit-SIMD path (kernels_avx2.cc, behind the
// DFS_SIMD cmake option with a runtime __builtin_cpu_supports dispatch)
// are bitwise identical by construction. Both TUs are compiled with
// -ffp-contract=off so the compiler cannot fuse a*b+c into an FMA on one
// side of the dispatch but not the other. kernels_test.cc proves the
// bitwise equivalence against the reference:: impls below.
//
// For n < 8 the canonical order DEGENERATES to a plain sequential sum:
// the main loop runs zero trips, so the lane fold combines eight exact
// +0.0 partials and every element lands in the sequential tail. The
// public reductions exploit that with an inline header fast path — tiny
// masks (feature subsets of width 1–7 are common in the sweeps) skip the
// function-pointer dispatch entirely and still produce the identical
// bytes. The inline loops are safe from FMA contraction because no TU in
// this project passes -march/-mtune: callers target baseline x86-64,
// which has no FMA instruction for the compiler to contract into (and
// the one -mavx2 TU, kernels_avx2.cc, is compiled -ffp-contract=off).
// kernels_test.cc pins the n < 8 sizes against reference:: bitwise.
//
// Float32 inputs participate only as storage: the mixed-precision kernels
// widen each f32 element to f64 (exact) and accumulate in f64, so the f32
// evaluation mode's error is bounded by the storage quantization alone.

/// ISA selected by the runtime dispatch: "avx2" or "portable". Stable for
/// the life of the process.
const char* ActiveIsa();

namespace detail {
// Out-of-line runtime-dispatched impls for n >= 8 (they accept any n; the
// split exists only so the inline wrappers below can skip the indirect
// call for tiny inputs). Defined in kernels.cc / kernels_avx2.cc.
double DotWide(const double* a, const double* b, std::size_t n);
double DotF32Wide(const float* x, const double* w, std::size_t n);
double SquaredDistanceWide(const double* a, const double* b, std::size_t n);
double WeightedSquaredDiffWide(const double* x, const double* mean,
                               const double* inv2var, std::size_t n);
double WeightedSquaredDiffF32Wide(const float* x, const double* mean,
                                  const double* inv2var, std::size_t n);
double StridedDotWide(const double* a, std::size_t stride, const double* b,
                      std::size_t n);

// Width below which the inline sequential path runs instead of the
// dispatched kernel. Must stay 8: that is the point where the canonical
// order is exactly a sequential sum.
inline constexpr std::size_t kInlineWidth = 8;
}  // namespace detail

// --- Reductions (runtime-dispatched; inline fast path below 8) --------

/// Dot product over n elements.
DFS_HOT inline double Dot(const double* a, const double* b, std::size_t n) {
  if (n < detail::kInlineWidth) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += a[i] * b[i];
    return sum;
  }
  return detail::DotWide(a, b, n);
}

/// Mixed-precision dot: f32 storage row against f64 model weights,
/// accumulated in f64 (each float is widened exactly).
DFS_HOT inline double DotF32(const float* x, const double* w, std::size_t n) {
  if (n < detail::kInlineWidth) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += static_cast<double>(x[i]) * w[i];
    }
    return sum;
  }
  return detail::DotF32Wide(x, w, n);
}

/// Squared Euclidean distance over n elements.
DFS_HOT inline double SquaredDistance(const double* a, const double* b,
                              std::size_t n) {
  if (n < detail::kInlineWidth) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = a[i] - b[i];
      sum += d * d;
    }
    return sum;
  }
  return detail::SquaredDistanceWide(a, b, n);
}

/// Sum over c of (x[c] - mean[c])^2 * inv2var[c]; the Gaussian
/// naive-Bayes negative log-likelihood accumulation.
DFS_HOT inline double WeightedSquaredDiff(const double* x, const double* mean,
                                  const double* inv2var, std::size_t n) {
  if (n < detail::kInlineWidth) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = x[i] - mean[i];
      sum += (d * d) * inv2var[i];
    }
    return sum;
  }
  return detail::WeightedSquaredDiffWide(x, mean, inv2var, n);
}

/// Mixed-precision WeightedSquaredDiff (f32 observation row).
DFS_HOT inline double WeightedSquaredDiffF32(const float* x, const double* mean,
                                     const double* inv2var, std::size_t n) {
  if (n < detail::kInlineWidth) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(x[i]) - mean[i];
      sum += (d * d) * inv2var[i];
    }
    return sum;
  }
  return detail::WeightedSquaredDiffF32Wide(x, mean, inv2var, n);
}

// --- GEMV-style batched forms ----------------------------------------

/// out[r] = bias + dot(row r of x, w) for a row-major rows x cols matrix.
DFS_HOT void MatVec(const double* x, int rows, int cols, const double* w,
            double bias, double* out);

/// MatVec over an f32 row-major matrix with f64 weights/bias.
DFS_HOT void MatVecF32(const float* x, int rows, int cols, const double* w,
               double bias, double* out);

/// out(r, c) = dot(row r of a, row c of bt): the product A * B with B
/// supplied pre-transposed so both operands stream row-contiguously.
/// a is a_rows x inner, bt is bt_rows x inner, out is a_rows x bt_rows.
DFS_HOT void MatMatT(const double* a, int a_rows, const double* bt, int bt_rows,
             int inner, double* out);

// --- Elementwise / strided (portable; order-preserving by nature) ----

/// a[i] += s * b[i]. Elementwise, so any vectorization is bitwise-safe;
/// inline because the LR/SVM gradient loops call it once per row.
DFS_HOT inline void AxpyInPlace(double* a, double s, const double* b,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] += s * b[i];
}

/// v[i] *= s.
DFS_HOT inline void Scale(double* v, double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] *= s;
}

/// Dot of a strided column a[i * stride] against contiguous b[i]; the
/// lasso coordinate-descent rho accumulation. Same canonical lane order
/// as Dot.
DFS_HOT inline double StridedDot(const double* a, std::size_t stride,
                         const double* b, std::size_t n) {
  if (n < detail::kInlineWidth) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += a[i * stride] * b[i];
    return sum;
  }
  return detail::StridedDotWide(a, stride, b, n);
}

/// a[i] += s * b[i * stride]; the lasso residual update.
DFS_HOT inline void StridedAxpyInPlace(double* a, double s, const double* b,
                               std::size_t stride, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] += s * b[i * stride];
}

// --- Span conveniences ------------------------------------------------

DFS_HOT inline double Dot(std::span<const double> a, std::span<const double> b) {
  return Dot(a.data(), b.data(), a.size());
}
DFS_HOT inline double SquaredDistance(std::span<const double> a,
                              std::span<const double> b) {
  return SquaredDistance(a.data(), b.data(), a.size());
}

// --- Reference implementations (kernels_test.cc) ----------------------
//
// Plain scalar C++ spelling of the canonical accumulation order, compiled
// in the same -ffp-contract=off TU as the portable kernels and never with
// -mavx2. The dispatched kernels above must match these BITWISE in f64;
// that equality is what makes runtime ISA dispatch invisible to the
// DESIGN §2d byte-identical selection contract.
namespace reference {
double Dot(const double* a, const double* b, std::size_t n);
double DotF32(const float* x, const double* w, std::size_t n);
double SquaredDistance(const double* a, const double* b, std::size_t n);
double WeightedSquaredDiff(const double* x, const double* mean,
                           const double* inv2var, std::size_t n);
void MatVec(const double* x, int rows, int cols, const double* w,
            double bias, double* out);
}  // namespace reference

}  // namespace dfs::linalg::kernels

#endif  // DFS_LINALG_KERNELS_H_
