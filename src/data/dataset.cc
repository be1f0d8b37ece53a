#include "data/dataset.h"

#include <algorithm>
#include <numeric>

namespace dfs::data {

StatusOr<Dataset> Dataset::Create(std::string name,
                                  std::vector<std::string> feature_names,
                                  std::vector<std::vector<double>> columns,
                                  std::vector<int> labels,
                                  std::vector<int> groups) {
  if (feature_names.size() != columns.size()) {
    return InvalidArgumentError("feature_names/columns size mismatch");
  }
  if (labels.size() != groups.size()) {
    return InvalidArgumentError("labels/groups size mismatch");
  }
  for (const auto& column : columns) {
    if (column.size() != labels.size()) {
      return InvalidArgumentError("column length does not match labels");
    }
  }
  for (int label : labels) {
    if (label != 0 && label != 1) {
      return InvalidArgumentError("labels must be binary (0/1)");
    }
  }
  for (int group : groups) {
    if (group != 0 && group != 1) {
      return InvalidArgumentError("groups must be binary (0/1)");
    }
  }
  Dataset dataset;
  dataset.name_ = std::move(name);
  dataset.feature_names_ = std::move(feature_names);
  dataset.columns_ = std::move(columns);
  dataset.labels_ = std::move(labels);
  dataset.groups_ = std::move(groups);
  return dataset;
}

linalg::Matrix Dataset::ToMatrix(
    const std::vector<int>& feature_indices) const {
  linalg::Matrix matrix;
  GatherInto(feature_indices, &matrix);
  return matrix;
}

namespace {

// Row-block size for the tiled gather: bound the destination window each
// column pass touches to ~1 MiB so it stays cache-resident at XL widths
// (DESIGN.md §2i). Any positive block size yields bit-identical output —
// tiling only reorders stores — so this is purely a bandwidth knob.
constexpr size_t kGatherWindowBytes = 1 << 20;

}  // namespace

void Dataset::GatherInto(const std::vector<int>& feature_indices,
                         linalg::Matrix* out, int block_rows) const {
  DFS_CHECK(out != nullptr);
  const int n = num_rows();
  const size_t k = feature_indices.size();
  out->Resize(n, static_cast<int>(k));
  // Column-pointer table in thread-local scratch: one bounds check per
  // column (inside Column), and — like the destination matrix — no heap
  // allocation once a thread has seen its widest mask (the §2e warm-path
  // contract; gathers run concurrently on shared datasets, so the scratch
  // cannot live on the const instance).
  // DFS_THREAD_LOCAL_OK: per-thread gather scratch; the dataset is shared.
  thread_local std::vector<const double*> sources;
  sources.resize(k);  // DFS_ALLOC_OK: reusable thread-local scratch
  for (size_t j = 0; j < k; ++j) {
    sources[j] = Column(feature_indices[j]).data();
  }
  int block = block_rows;
  if (block <= 0) {
    const size_t by_window =
        kGatherWindowBytes / (std::max<size_t>(k, 1) * sizeof(double));
    block = static_cast<int>(
        std::clamp<size_t>(by_window, 64, static_cast<size_t>(
                                              std::max(n, 1))));
  }
  double* dst = out->MutableData();
  for (int r0 = 0; r0 < n; r0 += block) {
    const int r1 = std::min(n, r0 + block);
    double* block_base = dst + static_cast<size_t>(r0) * k;
    for (size_t j = 0; j < k; ++j) {
      // Contiguous read of the source column slice; stride-k writes land
      // inside the bounded destination window.
      const double* src = sources[j] + r0;
      double* cell = block_base + j;
      for (int r = r0; r < r1; ++r, cell += k) *cell = *src++;
    }
  }
}

std::vector<int> Dataset::AllFeatures() const {
  std::vector<int> indices(num_features());
  std::iota(indices.begin(), indices.end(), 0);
  return indices;
}

Dataset Dataset::SelectRows(const std::vector<int>& row_indices) const {
  Dataset subset;
  subset.name_ = name_;
  subset.feature_names_ = feature_names_;
  subset.columns_.resize(columns_.size());
  for (size_t f = 0; f < columns_.size(); ++f) {
    subset.columns_[f].reserve(row_indices.size());
    for (int r : row_indices) {
      DFS_CHECK(r >= 0 && r < num_rows());
      subset.columns_[f].push_back(columns_[f][r]);
    }
  }
  subset.labels_.reserve(row_indices.size());
  subset.groups_.reserve(row_indices.size());
  for (int r : row_indices) {
    subset.labels_.push_back(labels_[r]);
    subset.groups_.push_back(groups_[r]);
  }
  return subset;
}

double Dataset::PositiveRate() const {
  if (labels_.empty()) return 0.0;
  double positives = 0.0;
  for (int label : labels_) positives += label;
  return positives / static_cast<double>(labels_.size());
}

}  // namespace dfs::data
