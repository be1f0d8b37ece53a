// Bitwise-equivalence proofs for the dispatched evaluation kernels
// (DESIGN.md §2i): whatever ISA the runtime dispatch selects, every
// reduction must match the reference:: spelling of the canonical 8-lane
// accumulation order bit for bit. Also proves the chunked
// Dataset::GatherInto is a pure store reordering (bit-identical for every
// block size).

#include "linalg/kernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "linalg/matrix.h"
#include "testing/test_util.h"
#include "util/rng.h"

namespace dfs::linalg::kernels {
namespace {

// Sizes straddling every lane boundary: empty, sub-lane tails, exact
// multiples of 8, and off-by-one around them.
const std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  7,  8,   9,   12, 15,
                              16, 17, 23, 31, 32, 33, 63, 64,  65,  100, 257};

std::vector<double> RandomVector(std::size_t n, Rng* rng, double lo = -2.0,
                                 double hi = 2.0) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->Uniform(lo, hi);
  return v;
}

TEST(KernelsTest, ActiveIsaIsKnown) {
  const std::string isa = ActiveIsa();
  EXPECT_TRUE(isa == "avx2" || isa == "portable") << isa;
}

TEST(KernelsTest, DotMatchesReferenceBitwise) {
  Rng rng(11);
  for (std::size_t n : kSizes) {
    const auto a = RandomVector(n, &rng);
    const auto b = RandomVector(n, &rng);
    // EXPECT_EQ on doubles is bitwise for non-NaN values.
    EXPECT_EQ(Dot(a.data(), b.data(), n),
              reference::Dot(a.data(), b.data(), n))
        << "n=" << n;
  }
}

TEST(KernelsTest, SquaredDistanceMatchesReferenceBitwise) {
  Rng rng(12);
  for (std::size_t n : kSizes) {
    const auto a = RandomVector(n, &rng);
    const auto b = RandomVector(n, &rng);
    EXPECT_EQ(SquaredDistance(a.data(), b.data(), n),
              reference::SquaredDistance(a.data(), b.data(), n))
        << "n=" << n;
  }
}

TEST(KernelsTest, WeightedSquaredDiffMatchesReferenceBitwise) {
  Rng rng(13);
  for (std::size_t n : kSizes) {
    const auto x = RandomVector(n, &rng);
    const auto mean = RandomVector(n, &rng);
    const auto inv2var = RandomVector(n, &rng, 0.1, 10.0);
    EXPECT_EQ(WeightedSquaredDiff(x.data(), mean.data(), inv2var.data(), n),
              reference::WeightedSquaredDiff(x.data(), mean.data(),
                                             inv2var.data(), n))
        << "n=" << n;
  }
}

TEST(KernelsTest, MatVecMatchesReferenceAndPerRowDot) {
  Rng rng(16);
  for (int cols : {1, 7, 16, 33, 129}) {
    const int rows = 9;
    const auto x = RandomVector(static_cast<std::size_t>(rows) * cols, &rng);
    const auto w = RandomVector(cols, &rng);
    const double bias = rng.Uniform(-1.0, 1.0);
    std::vector<double> got(rows), ref(rows);
    MatVec(x.data(), rows, cols, w.data(), bias, got.data());
    reference::MatVec(x.data(), rows, cols, w.data(), bias, ref.data());
    for (int r = 0; r < rows; ++r) {
      EXPECT_EQ(got[r], ref[r]) << "cols=" << cols << " r=" << r;
      EXPECT_EQ(got[r], bias + Dot(x.data() + static_cast<std::size_t>(r) *
                                                  cols,
                                   w.data(), cols));
    }
  }
}

// The fused LR gradient pass against reference::LogisticGradient, the
// per-row Dot / Sigmoid / axpy loop LogisticRegression::Fit ran before.
// g and the bias gradient start nonzero: the kernel accumulates into them.
TEST(KernelsTest, LogisticGradientMatchesReferenceBitwise) {
  Rng rng(19);
  for (int cols : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33}) {
    for (int rows : {0, 1, 37}) {
      SCOPED_TRACE("cols=" + std::to_string(cols) +
                   " rows=" + std::to_string(rows));
      const auto x =
          RandomVector(static_cast<std::size_t>(rows) * cols, &rng, 0.0, 1.0);
      const auto w = RandomVector(cols, &rng);
      std::vector<int> y(rows);
      for (int& label : y) label = rng.Bernoulli(0.4) ? 1 : 0;
      const double bias = rng.Uniform(-1.0, 1.0);
      const auto g_start = RandomVector(cols, &rng);
      const double bias_grad_start = rng.Uniform(-3.0, 3.0);

      std::vector<double> got = g_start, ref = g_start;
      double got_bias = bias_grad_start, ref_bias = bias_grad_start;
      LogisticGradient(x.data(), rows, cols, w.data(), bias, y.data(),
                       got.data(), &got_bias);
      reference::LogisticGradient(x.data(), rows, cols, w.data(), bias,
                                  y.data(), ref.data(), &ref_bias);
      EXPECT_EQ(std::memcmp(got.data(), ref.data(), cols * sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&got_bias, &ref_bias, sizeof(double)), 0);
      if (rows > 0) {
        EXPECT_NE(got, g_start);
      }
    }
  }
}

TEST(KernelsTest, MatMatTMatchesPerCellDot) {
  Rng rng(18);
  const int a_rows = 4, bt_rows = 6, inner = 21;
  const auto a = RandomVector(static_cast<std::size_t>(a_rows) * inner, &rng);
  const auto bt =
      RandomVector(static_cast<std::size_t>(bt_rows) * inner, &rng);
  std::vector<double> out(static_cast<std::size_t>(a_rows) * bt_rows);
  MatMatT(a.data(), a_rows, bt.data(), bt_rows, inner, out.data());
  for (int r = 0; r < a_rows; ++r) {
    for (int c = 0; c < bt_rows; ++c) {
      EXPECT_EQ(out[static_cast<std::size_t>(r) * bt_rows + c],
                Dot(a.data() + static_cast<std::size_t>(r) * inner,
                    bt.data() + static_cast<std::size_t>(c) * inner, inner));
    }
  }
}

TEST(KernelsTest, StridedDotMatchesContiguousDotBitwise) {
  Rng rng(19);
  for (std::size_t stride : {1u, 3u, 7u}) {
    for (std::size_t n : {0u, 1u, 9u, 64u, 100u}) {
      const auto a = RandomVector(n * stride + 1, &rng);
      const auto b = RandomVector(n, &rng);
      // Gather the strided column; StridedDot shares the canonical lane
      // order, so the results must be bitwise equal.
      std::vector<double> gathered(n);
      for (std::size_t i = 0; i < n; ++i) gathered[i] = a[i * stride];
      EXPECT_EQ(StridedDot(a.data(), stride, b.data(), n),
                Dot(gathered.data(), b.data(), n))
          << "stride=" << stride << " n=" << n;
    }
  }
}

TEST(KernelsTest, AxpyScaleAndStridedAxpy) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {10.0, 20.0, 30.0};
  AxpyInPlace(a.data(), 0.5, b.data(), a.size());
  EXPECT_EQ(a, (std::vector<double>{6.0, 12.0, 18.0}));
  Scale(a.data(), 2.0, a.size());
  EXPECT_EQ(a, (std::vector<double>{12.0, 24.0, 36.0}));
  const std::vector<double> c = {1.0, -1.0, 2.0, -2.0, 3.0, -3.0};
  StridedAxpyInPlace(a.data(), 10.0, c.data(), 2, a.size());
  EXPECT_EQ(a, (std::vector<double>{22.0, 44.0, 66.0}));
}

// --- Chunked GatherInto ------------------------------------------------

TEST(GatherIntoChunkedTest, EveryBlockSizeIsBitIdenticalF64) {
  const data::Dataset dataset = dfs::testing::MakeLinearDataset(523, 4, 41);
  const std::vector<int> features = {0, 2, 3, 5};
  Matrix monolithic;
  dataset.GatherInto(features, &monolithic,
                     /*block_rows=*/dataset.num_rows());
  for (int block : {1, 3, 5, 64, 100, 0, dataset.num_rows() + 7}) {
    Matrix chunked;
    dataset.GatherInto(features, &chunked, block);
    ASSERT_EQ(chunked.rows(), monolithic.rows());
    ASSERT_EQ(chunked.cols(), monolithic.cols());
    EXPECT_EQ(std::memcmp(chunked.Data(), monolithic.Data(),
                          sizeof(double) * chunked.rows() * chunked.cols()),
              0)
        << "block=" << block;
  }
}

}  // namespace
}  // namespace dfs::linalg::kernels
