#ifndef DFS_LINALG_MATRIX_H_
#define DFS_LINALG_MATRIX_H_

#include <cmath>
#include <initializer_list>
#include <span>
#include <vector>

#include "linalg/kernels.h"
#include "util/logging.h"

namespace dfs::linalg {

/// Dense row-major f64 matrix; its products and reductions run through
/// `linalg::kernels` (DESIGN.md §2i).
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, fill) {
    DFS_CHECK_GE(rows, 0);
    DFS_CHECK_GE(cols, 0);
  }

  /// Builds from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> values) {
    rows_ = static_cast<int>(values.size());
    cols_ = rows_ > 0 ? static_cast<int>(values.begin()->size()) : 0;
    data_.reserve(static_cast<size_t>(rows_) * cols_);
    for (const auto& row : values) {
      DFS_CHECK_EQ(static_cast<int>(row.size()), cols_);
      for (double v : row) data_.push_back(v);
    }
  }

  static Matrix Identity(int n) {
    Matrix m(n, n);
    for (int i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) {
    DFS_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    DFS_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  // --- Unchecked fast path (see DESIGN.md §2e) ------------------------
  //
  // The wrapper-evaluation hot loop (gather, train, predict) pays for a
  // bounds check per *element* through operator(); these accessors check
  // only under DFS_DCHECK (debug builds). Release correctness is covered
  // by the ASan/UBSan runs of matrix_test and engine_golden_test
  // (scripts/check.sh --sanitize).

  /// Unchecked read (debug-only bounds check).
  double At(int r, int c) const {
    DFS_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  /// Unchecked write (debug-only bounds check).
  void Set(int r, int c, double v) {
    DFS_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    data_[static_cast<size_t>(r) * cols_ + c] = v;
  }
  /// Raw row-major storage, length rows()*cols(). Invalidated by Resize
  /// and by assignment, like RowSpan.
  double* MutableData() { return data_.data(); }
  const double* Data() const { return data_.data(); }

  /// Reshapes in place to rows x cols. Existing element values are NOT
  /// preserved in any meaningful layout; callers overwrite the contents
  /// (Dataset::GatherInto does). Never shrinks capacity, so a scratch
  /// matrix cycling through same-or-smaller shapes stops allocating after
  /// its first (largest) use.
  void Resize(int rows, int cols) {
    DFS_CHECK_GE(rows, 0);
    DFS_CHECK_GE(cols, 0);
    rows_ = rows;
    cols_ = cols;
    // DFS_ALLOC_OK: grows to the widest shape once, then reuses capacity
    data_.resize(static_cast<size_t>(rows) * cols);
  }

  /// Copies row `r` out. Prefer RowSpan on hot paths; Row exists for
  /// callers that need an owning copy outliving the matrix (tests that
  /// predict on rows of an expiring temporary).
  std::vector<double> Row(int r) const {
    std::vector<double> row(cols_);
    for (int c = 0; c < cols_; ++c) row[c] = (*this)(r, c);
    return row;
  }

  /// Borrowed view of row `r` (rows are contiguous in the row-major
  /// layout). One bounds check per row instead of one per element, which is
  /// what the knn / lasso inner loops need; invalidated when the matrix is
  /// destroyed or assigned over.
  std::span<const double> RowSpan(int r) const {
    DFS_CHECK(r >= 0 && r < rows_);
    return {data_.data() + static_cast<size_t>(r) * cols_,
            static_cast<size_t>(cols_)};
  }

  /// Raw pointer form of RowSpan (same lifetime rules).
  const double* RowPtr(int r) const { return RowSpan(r).data(); }

  /// Copies column `c` out.
  std::vector<double> Column(int c) const {
    std::vector<double> col(rows_);
    for (int r = 0; r < rows_; ++r) col[r] = (*this)(r, c);
    return col;
  }

  Matrix Transpose() const {
    Matrix t(cols_, rows_);
    for (int r = 0; r < rows_; ++r) {
      for (int c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    }
    return t;
  }

  /// Matrix product; requires cols() == other.rows(). Runs through the
  /// blocked MatMatT kernel (both operands stream row-contiguously against
  /// an explicit transpose of `other`).
  Matrix Multiply(const Matrix& other) const {
    DFS_CHECK_EQ(cols_, other.rows_);
    Matrix result(rows_, other.cols_);
    const Matrix bt = other.Transpose();
    kernels::MatMatT(data_.data(), rows_, bt.Data(), other.cols_, cols_,
                     result.MutableData());
    return result;
  }

  /// Matrix-vector product; requires cols() == v.size().
  std::vector<double> MultiplyVector(std::span<const double> v) const {
    DFS_CHECK_EQ(static_cast<int>(v.size()), cols_);
    std::vector<double> result(rows_, 0.0);
    kernels::MatVec(data_.data(), rows_, cols_, v.data(), 0.0, result.data());
    return result;
  }

  /// Frobenius-norm of (this - other); requires equal shapes.
  double FrobeniusDistance(const Matrix& other) const {
    DFS_CHECK_EQ(rows_, other.rows_);
    DFS_CHECK_EQ(cols_, other.cols_);
    double sum = 0.0;
    for (size_t i = 0; i < data_.size(); ++i) {
      double d = data_[i] - other.data_[i];
      sum += d * d;
    }
    return std::sqrt(sum);
  }

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

/// Dot product; requires equal sizes.
double Dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
double Norm2(std::span<const double> a);

/// Squared Euclidean distance between two equal-length sequences (accepts
/// std::vector and Matrix::RowSpan views alike).
double SquaredDistance(std::span<const double> a, std::span<const double> b);

/// a + s * b, elementwise; requires equal sizes.
std::vector<double> Axpy(std::span<const double> a, double s,
                         std::span<const double> b);

/// Scales a sequence in place.
void ScaleInPlace(std::span<double> v, double s);

}  // namespace dfs::linalg

#endif  // DFS_LINALG_MATRIX_H_
