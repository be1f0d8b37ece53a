// Explicit AVX2 reduction kernels, selected at runtime by kernels.cc when
// the host supports AVX2 (DFS_SIMD cmake option). Compiled with
// -mavx2 -ffp-contract=off.
//
// Every kernel mirrors the canonical accumulation order from kernels.h:
// two vector accumulators cover 8 virtual lanes per trip; the pairwise
// lane fold vaddpd(acc_a, acc_b) realizes l_j = acc_j + acc_{j+4}; the
// vextractf128 + vaddpd + unpackhi horizontal sum realizes
// (l0 + l2) + (l1 + l3); tails are sequential scalar adds. Multiplies and
// adds stay separate instructions (never vfmadd): contraction on this
// side only would break the bitwise portable==SIMD contract.

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "linalg/kernels.h"
#include "util/math_util.h"

#if defined(DFS_SIMD_ENABLED) && defined(__AVX2__)

namespace dfs::linalg::kernels::avx2 {

namespace {

inline double HorizontalSum(__m256d acc_a, __m256d acc_b) {
  const __m256d folded = _mm256_add_pd(acc_a, acc_b);  // l0..l3
  const __m128d lo = _mm256_castpd256_pd128(folded);   // [l0, l1]
  const __m128d hi = _mm256_extractf128_pd(folded, 1);  // [l2, l3]
  const __m128d pair = _mm_add_pd(lo, hi);             // [l0+l2, l1+l3]
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

}  // namespace

double Dot(const double* a, const double* b, std::size_t n) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc_a = _mm256_add_pd(
        acc_a, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    acc_b = _mm256_add_pd(
        acc_b, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                             _mm256_loadu_pd(b + i + 4)));
  }
  double sum = HorizontalSum(acc_a, acc_b);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double SquaredDistance(const double* a, const double* b, std::size_t n) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d da =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d db =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(da, da));
    acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(db, db));
  }
  double sum = HorizontalSum(acc_a, acc_b);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double WeightedSquaredDiff(const double* x, const double* mean,
                           const double* inv2var, std::size_t n) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d da =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(mean + i));
    const __m256d db = _mm256_sub_pd(_mm256_loadu_pd(x + i + 4),
                                     _mm256_loadu_pd(mean + i + 4));
    acc_a = _mm256_add_pd(
        acc_a, _mm256_mul_pd(_mm256_mul_pd(da, da),
                             _mm256_loadu_pd(inv2var + i)));
    acc_b = _mm256_add_pd(
        acc_b, _mm256_mul_pd(_mm256_mul_pd(db, db),
                             _mm256_loadu_pd(inv2var + i + 4)));
  }
  double sum = HorizontalSum(acc_a, acc_b);
  for (; i < n; ++i) {
    const double d = x[i] - mean[i];
    sum += (d * d) * inv2var[i];
  }
  return sum;
}

void LogisticGradient(const double* x, int rows, int cols, const double* w,
                      double bias, const int* y, double* g,
                      double* bias_grad) {
  // Rows go in blocks: the block's dots are independent, so they overlap,
  // and each g element is loaded and stored once per block. Every g
  // element and the bias sum still take their adds in row order.
  constexpr int kBlock = 8;
  const std::size_t k = static_cast<std::size_t>(cols);
  double bias_sum = *bias_grad;
  double errors[kBlock];  // each row's margin, then its error
  for (int first = 0; first < rows; first += kBlock) {
    const int count = rows - first < kBlock ? rows - first : kBlock;
    const double* block = x + static_cast<std::size_t>(first) * k;
    for (int i = 0; i < count; ++i) {
      const double* row = block + static_cast<std::size_t>(i) * k;
      double dot;
      if (k < 8) {
        // Below 8 the canonical order is a plain sequential sum.
        dot = 0.0;
        for (std::size_t c = 0; c < k; ++c) dot += w[c] * row[c];
      } else {
        dot = Dot(w, row, k);
      }
      errors[i] = bias + dot;
    }
    for (int i = 0; i < count; ++i) {
      errors[i] = Sigmoid(errors[i]) - y[first + i];
    }
    // g[c] += errors[i] * row_i[c] for i in order: one multiply and one
    // add per term, the same two roundings as the scalar loop.
    std::size_t c = 0;
    for (; c + 4 <= k; c += 4) {
      __m256d acc = _mm256_loadu_pd(g + c);
      for (int i = 0; i < count; ++i) {
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(_mm256_set1_pd(errors[i]),
                               _mm256_loadu_pd(block + i * k + c)));
      }
      _mm256_storeu_pd(g + c, acc);
    }
    for (; c < k; ++c) {
      double acc = g[c];
      for (int i = 0; i < count; ++i) acc += errors[i] * block[i * k + c];
      g[c] = acc;
    }
    for (int i = 0; i < count; ++i) bias_sum += errors[i];
  }
  *bias_grad = bias_sum;
}

}  // namespace dfs::linalg::kernels::avx2

#endif  // DFS_SIMD_ENABLED && __AVX2__
