#ifndef DFS_DATA_DATASET_H_
#define DFS_DATA_DATASET_H_

#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace dfs::data {

/// Fully preprocessed dataset: numeric feature columns (min-max scaled to
/// [0, 1], no missing values), a binary classification target, and a binary
/// sensitive-group attribute (0 = majority, 1 = minority) used by the
/// fairness metric. Stored column-major because feature selection operates
/// on feature columns.
class Dataset {
 public:
  Dataset() = default;

  /// Builds a dataset; all columns must have the same length as labels and
  /// groups, and feature_names must match the number of columns.
  static StatusOr<Dataset> Create(std::string name,
                                  std::vector<std::string> feature_names,
                                  std::vector<std::vector<double>> columns,
                                  std::vector<int> labels,
                                  std::vector<int> groups);

  const std::string& name() const { return name_; }
  int num_rows() const { return static_cast<int>(labels_.size()); }
  int num_features() const { return static_cast<int>(columns_.size()); }

  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  const std::vector<double>& Column(int feature) const {
    DFS_CHECK(feature >= 0 && feature < num_features());
    return columns_[feature];
  }
  const std::vector<int>& labels() const { return labels_; }
  const std::vector<int>& groups() const { return groups_; }

  double Value(int row, int feature) const {
    return columns_[feature][row];
  }

  /// Copies the selected feature columns into a row-major matrix (the layout
  /// the classifiers consume).
  linalg::Matrix ToMatrix(const std::vector<int>& feature_indices) const;

  /// ToMatrix without the allocation: reshapes `*out` in place (capacity is
  /// reused whenever it suffices — see linalg::Matrix::Resize) and writes
  /// through the unchecked fast path. Feature indices are validated once
  /// per column, not once per element. `out` must not be null; its previous
  /// contents are discarded. This is the gather the engine's EvalScratch
  /// cycles through on every wrapper evaluation (DESIGN.md §2e).
  ///
  /// The column-major -> row-major transpose is tiled over bounded row
  /// blocks (DESIGN.md §2i): each block's destination window stays
  /// cache-resident instead of streaming the whole rows*k matrix once per
  /// column, which is what makes XL-tier gathers (100k+ rows) feasible
  /// inside the EvalScratch pool. `block_rows` <= 0 picks the block size
  /// from a fixed scratch-window budget; any explicit positive value
  /// produces bit-identical output (the tiling only reorders stores),
  /// which kernels_test.cc proves.
  DFS_HOT void GatherInto(const std::vector<int>& feature_indices,
                          linalg::Matrix* out, int block_rows = 0) const;

  /// All feature indices [0, num_features).
  std::vector<int> AllFeatures() const;

  /// Dataset restricted to the given rows (features unchanged).
  Dataset SelectRows(const std::vector<int>& row_indices) const;

  /// Fraction of rows with label 1.
  double PositiveRate() const;

 private:
  std::string name_;
  std::vector<std::string> feature_names_;
  std::vector<std::vector<double>> columns_;  // [feature][row]
  std::vector<int> labels_;                   // 0/1
  std::vector<int> groups_;                   // 0 = majority, 1 = minority
};

/// Train/validation/test triple produced by the 3:1:1 stratified split
/// (Section 6.1).
struct DataSplit {
  Dataset train;
  Dataset validation;
  Dataset test;
};

}  // namespace dfs::data

#endif  // DFS_DATA_DATASET_H_
