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

}  // namespace

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
  std::vector<int> rows(n);
  for (int r = 0; r < n; ++r) rows[r] = r;
  std::vector<SweepEntry> sweep;
  BuildNode(x, y, rows, 0, sweep);
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

int DecisionTree::BuildNode(const linalg::Matrix& x, const std::vector<int>& y,
                            std::vector<int>& rows, int depth,
                            std::vector<SweepEntry>& sweep) {
  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  split_gains_.push_back(0.0);

  double positives = 0.0;
  for (int r : rows) positives += y[r];
  const double total = static_cast<double>(rows.size());
  nodes_[node_index].positive_probability =
      total > 0 ? positives / total : 0.5;

  const double node_gini = GiniFromCounts(positives, total);
  const bool can_split =
      depth < params_.dt_max_depth &&
      static_cast<int>(rows.size()) >= params_.dt_min_samples_split &&
      node_gini > 0.0;
  if (!can_split) return node_index;

  // Find the best (feature, threshold) over quantile candidates. Each
  // feature's (value, label) pairs are sorted once. The candidate
  // thresholds never decrease, so one sweep yields every candidate's left
  // row and positive counts. They are exact integers, so the split chosen
  // is the one a separate scan per candidate would choose.
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 1e-12;
  const size_t n = rows.size();
  sweep.resize(n);
  for (int feature = 0; feature < x.cols(); ++feature) {
    for (size_t i = 0; i < n; ++i) {
      sweep[i] = {x.At(rows[i], feature), y[rows[i]]};
    }
    std::sort(sweep.begin(), sweep.end(),
              [](const SweepEntry& a, const SweepEntry& b) {
                return a.value < b.value;
              });
    if (sweep.front().value == sweep.back().value) continue;

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
      }
    }
  }
  if (best_feature < 0) return node_index;

  std::vector<int> left_rows, right_rows;
  for (int r : rows) {
    (x.At(r, best_feature) <= best_threshold ? left_rows : right_rows)
        .push_back(r);
  }
  rows.clear();
  rows.shrink_to_fit();

  split_gains_[node_index] = best_gain * total;
  importances_[best_feature] += split_gains_[node_index];
  const int left = BuildNode(x, y, left_rows, depth + 1, sweep);
  const int right = BuildNode(x, y, right_rows, depth + 1, sweep);
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
  tree.fitted_ = true;
  return tree;
}

}  // namespace dfs::ml
