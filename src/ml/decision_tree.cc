#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/string_util.h"

namespace dfs::ml {
namespace {

double GiniFromCounts(double positives, double total) {
  if (total <= 0.0) return 0.0;
  const double p = positives / total;
  return 2.0 * p * (1.0 - p);
}

/// One entry of a feature's presorted list: a training row's value in that
/// feature, its label and its index.
struct SortedEntry {
  double value;
  int label;
  int row;
};

}  // namespace

/// Each node owns the same [begin, end) segment of every feature's list,
/// and splitting it stable-partitions each segment, so both children's
/// segments stay sorted.
struct DecisionTree::PresortedLists {
  int rows = 0;
  int features = 0;
  /// Feature-major: feature f's list is [f * rows, (f + 1) * rows).
  std::vector<SortedEntry> entries;
  /// Per row: whether the node being split sends it left.
  std::vector<char> goes_left;
  /// Holds a segment's right-going entries during a partition.
  std::vector<SortedEntry> right;

  SortedEntry* Segment(int feature, int begin) {
    return entries.data() + static_cast<size_t>(feature) * rows + begin;
  }
};

Status DecisionTree::Fit(const linalg::Matrix& x, const std::vector<int>& y) {
  const int n = x.rows();
  if (n == 0) return InvalidArgumentError("empty training set");
  if (static_cast<int>(y.size()) != n) {
    return InvalidArgumentError("labels size mismatch");
  }
  if (params_.dt_max_depth < 1) {
    return InvalidArgumentError("dt_max_depth must be >= 1");
  }
  nodes_.clear();
  split_gains_.clear();
  importances_.assign(x.cols(), 0.0);

  // Sort every feature's (value, label, row) entries once. The entries
  // themselves are sorted, not row indices through a strided comparator.
  PresortedLists lists;
  lists.rows = n;
  lists.features = x.cols();
  lists.entries.resize(static_cast<size_t>(n) * x.cols());
  for (int feature = 0; feature < x.cols(); ++feature) {
    SortedEntry* list = lists.Segment(feature, 0);
    for (int r = 0; r < n; ++r) list[r] = {x.At(r, feature), y[r], r};
    std::sort(list, list + n, [](const SortedEntry& a, const SortedEntry& b) {
      return a.value < b.value;
    });
  }
  lists.goes_left.resize(n);
  lists.right.resize(n);
  int positives = 0;
  for (int label : y) positives += label;
  BuildNode(lists, 0, n, positives, 0);
  NormalizeImportances();
  fitted_ = true;
  return OkStatus();
}

void DecisionTree::NormalizeImportances() {
  double total_importance = 0.0;
  for (double imp : importances_) total_importance += imp;
  if (total_importance > 0.0) {
    for (double& imp : importances_) imp /= total_importance;
  }
}

int DecisionTree::BuildNode(PresortedLists& lists, int begin, int end,
                            int label_sum, int depth) {
  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  split_gains_.push_back(0.0);

  // Label sums are exact integers, so carrying them down from the parent's
  // sweep gives the bits a per-node sum over the rows would.
  const double positives = static_cast<double>(label_sum);
  const double total = static_cast<double>(end - begin);
  nodes_[node_index].positive_probability =
      total > 0 ? positives / total : 0.5;

  const double node_gini = GiniFromCounts(positives, total);
  const bool can_split = depth < params_.dt_max_depth &&
                         end - begin >= params_.dt_min_samples_split &&
                         node_gini > 0.0;
  if (!can_split) return node_index;

  // Find the best (feature, threshold) over quantile candidates. Each
  // feature's segment is already sorted by value. The candidate
  // thresholds never decrease, so one sweep yields every candidate's left
  // row and positive counts. A threshold never separates equal values, so
  // the counts cover whole tie groups and the order of entries within a
  // tie cannot change them. They are exact integers, so the split chosen
  // is the one a separate scan per candidate would choose.
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 1e-12;
  size_t best_left_count = 0;
  int best_left_positives = 0;
  const size_t n = static_cast<size_t>(end - begin);
  for (int feature = 0; feature < lists.features; ++feature) {
    const SortedEntry* sweep = lists.Segment(feature, begin);
    if (sweep[0].value == sweep[n - 1].value) continue;

    // Candidate thresholds: midpoints at (up to) kMaxThresholdCandidates
    // quantile positions, repeats skipped.
    const int num_candidates =
        std::min<int>(kMaxThresholdCandidates, static_cast<int>(n) - 1);
    size_t left_count = 0;
    int left_label_sum = 0;
    double previous_threshold = 0.0;
    for (int q = 1; q <= num_candidates; ++q) {
      const size_t pos =
          static_cast<size_t>(q * (n - 1) / (num_candidates + 1));
      const double threshold = 0.5 * (sweep[pos].value + sweep[pos + 1].value);
      if (q > 1 && threshold == previous_threshold) continue;
      previous_threshold = threshold;
      while (left_count < n && sweep[left_count].value <= threshold) {
        left_label_sum += sweep[left_count].label;
        ++left_count;
      }
      const double left_total = static_cast<double>(left_count);
      const double right_total = total - left_total;
      if (left_total < 1.0 || right_total < 1.0) continue;
      const double left_positives = static_cast<double>(left_label_sum);
      const double right_positives = positives - left_positives;
      const double weighted_child_gini =
          (left_total / total) * GiniFromCounts(left_positives, left_total) +
          (right_total / total) * GiniFromCounts(right_positives, right_total);
      const double gain = node_gini - weighted_child_gini;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = feature;
        best_threshold = threshold;
        best_left_count = left_count;
        best_left_positives = left_label_sum;
      }
    }
  }
  if (best_feature < 0) return node_index;

  // The chosen feature's segment is sorted, so its first best_left_count
  // entries are exactly the rows with value <= best_threshold. Flag them,
  // then stable-partition every other feature's segment by the flag.
  const SortedEntry* chosen = lists.Segment(best_feature, begin);
  for (size_t i = 0; i < n; ++i) {
    lists.goes_left[chosen[i].row] = i < best_left_count;
  }
  for (int feature = 0; feature < lists.features; ++feature) {
    if (feature == best_feature) continue;
    SortedEntry* segment = lists.Segment(feature, begin);
    SortedEntry* right = lists.right.data();
    size_t left_end = 0;
    size_t right_end = 0;
    for (size_t i = 0; i < n; ++i) {
      const SortedEntry entry = segment[i];
      if (lists.goes_left[entry.row]) {
        segment[left_end++] = entry;
      } else {
        right[right_end++] = entry;
      }
    }
    std::copy(right, right + right_end, segment + left_end);
  }

  split_gains_[node_index] = best_gain * total;
  importances_[best_feature] += split_gains_[node_index];
  const int middle = begin + static_cast<int>(best_left_count);
  const int left =
      BuildNode(lists, begin, middle, best_left_positives, depth + 1);
  const int right = BuildNode(lists, middle, end,
                              label_sum - best_left_positives, depth + 1);
  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

DecisionTree DecisionTree::Truncated(int max_depth) const {
  DFS_CHECK(fitted_ && split_gains_.size() == nodes_.size())
      << "Truncated needs a tree built by Fit";
  DFS_CHECK(max_depth >= 1 && max_depth <= params_.dt_max_depth)
      << "cannot truncate a depth-" << params_.dt_max_depth << " tree to "
      << max_depth;
  Hyperparameters params = params_;
  params.dt_max_depth = max_depth;
  DecisionTree tree(params);
  tree.importances_.assign(importances_.size(), 0.0);
  tree.CopyTruncated(*this, 0, 0);
  // Fit adds split gains into importances_ in pre-order, and so does
  // CopyTruncated, so the sums round exactly as a direct fit's do.
  tree.NormalizeImportances();
  tree.fitted_ = true;
  return tree;
}

int DecisionTree::CopyTruncated(const DecisionTree& source, int source_index,
                                int depth) {
  const Node& from = source.nodes_[source_index];
  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  split_gains_.push_back(0.0);
  nodes_[node_index].positive_probability = from.positive_probability;
  if (from.feature < 0 || depth == params_.dt_max_depth) return node_index;

  split_gains_[node_index] = source.split_gains_[source_index];
  importances_[from.feature] += split_gains_[node_index];
  const int left = CopyTruncated(source, from.left, depth + 1);
  const int right = CopyTruncated(source, from.right, depth + 1);
  nodes_[node_index].feature = from.feature;
  nodes_[node_index].threshold = from.threshold;
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

double DecisionTree::PredictProba(std::span<const double> row) const {
  DFS_DCHECK(fitted_) << "PredictProba before Fit";
  const Node* nodes = nodes_.data();
  const double* v = row.data();
  const Node* node = nodes;
  while (node->feature >= 0) {
    DFS_DCHECK(static_cast<size_t>(node->feature) < row.size());
    node = nodes +
           (v[node->feature] <= node->threshold ? node->left : node->right);
  }
  return node->positive_probability;
}

std::optional<std::vector<double>> DecisionTree::FeatureImportances() const {
  if (!fitted_) return std::nullopt;
  return importances_;
}

std::string DecisionTree::Serialize() const {
  DFS_CHECK(fitted_) << "Serialize before Fit";
  std::ostringstream out;
  out << "tree v1\n";
  out << params_.dt_max_depth << " " << params_.dt_min_samples_split << "\n";
  out << nodes_.size() << "\n";
  char buffer[128];
  for (const Node& node : nodes_) {
    // %.17g round-trips doubles exactly.
    std::snprintf(buffer, sizeof(buffer), "%d %.17g %d %d %.17g\n",
                  node.feature, node.threshold, node.left, node.right,
                  node.positive_probability);
    out << buffer;
  }
  out << importances_.size();
  for (double imp : importances_) {
    std::snprintf(buffer, sizeof(buffer), " %.17g", imp);
    out << buffer;
  }
  out << "\n";
  return out.str();
}

StatusOr<DecisionTree> DecisionTree::Deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string magic, version;
  in >> magic >> version;
  if (magic != "tree" || version != "v1") {
    return InvalidArgumentError("not a serialized tree");
  }
  Hyperparameters params;
  size_t num_nodes = 0;
  in >> params.dt_max_depth >> params.dt_min_samples_split >> num_nodes;
  if (!in || num_nodes == 0 || num_nodes > 1u << 24) {
    return InvalidArgumentError("corrupt tree header");
  }
  DecisionTree tree(params);
  tree.nodes_.resize(num_nodes);
  const int n = static_cast<int>(num_nodes);
  for (int index = 0; index < n; ++index) {
    Node& node = tree.nodes_[index];
    in >> node.feature >> node.threshold >> node.left >> node.right >>
        node.positive_probability;
    if (!in) return InvalidArgumentError("corrupt tree node");
    if (node.feature < 0) continue;
    if (node.left < 0 || node.left >= n || node.right < 0 ||
        node.right >= n) {
      return InvalidArgumentError("tree child index out of range");
    }
    // Serialize writes pre-order, so every child follows its parent. A
    // child at or before its parent is a cycle PredictProba never leaves.
    if (node.left <= index || node.right <= index) {
      return InvalidArgumentError("tree child index not after its parent");
    }
  }
  size_t num_importances = 0;
  in >> num_importances;
  if (!in || num_importances > 1u << 24) {
    return InvalidArgumentError("corrupt importances header");
  }
  tree.importances_.resize(num_importances);
  for (double& imp : tree.importances_) {
    in >> imp;
    if (!in) return InvalidArgumentError("corrupt importances");
  }
  // The importances count is the tree's width: PredictProba reads
  // row[feature] unchecked in release builds, so no node may index past it.
  for (const Node& node : tree.nodes_) {
    if (node.feature >= static_cast<int>(num_importances)) {
      return InvalidArgumentError("tree feature index out of range");
    }
  }
  tree.fitted_ = true;
  return tree;
}

}  // namespace dfs::ml
