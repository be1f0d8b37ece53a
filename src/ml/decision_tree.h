#ifndef DFS_ML_DECISION_TREE_H_
#define DFS_ML_DECISION_TREE_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"
#include "util/statusor.h"

namespace dfs::ml {

/// CART-style binary decision tree with gini impurity, limited by
/// `dt_max_depth` (the hyperparameter the paper tunes in [1, 7]) and
/// `dt_min_samples_split`. Split thresholds are searched over up to
/// `kMaxThresholdCandidates` quantile candidates per feature, which keeps
/// training near-linear for the dataset sizes in the benchmark.
///
/// A node's split depends only on the node's rows, never on
/// `dt_max_depth`, so the depth-d tree is the deeper tree cut off at depth
/// d: `Truncated` returns it without refitting (DESIGN.md §2i).
class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(const Hyperparameters& params) : params_(params) {}

  Status Fit(const linalg::Matrix& x, const std::vector<int>& y) override;
  double PredictProba(std::span<const double> row) const override;
  /// Re-expose the base-class std::vector convenience shim (the span
  /// override would otherwise hide it from unqualified lookup).
  using Classifier::PredictProba;

  /// Total gini-impurity decrease contributed by each feature, normalized to
  /// sum to 1 (0s if the tree is a single leaf).
  std::optional<std::vector<double>> FeatureImportances() const override;

  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<DecisionTree>(params_);
  }
  std::string name() const override { return "DT"; }

  /// This tree cut off at `max_depth` (1 <= max_depth <= the fitted
  /// tree's dt_max_depth): byte-identical — Serialize() and
  /// FeatureImportances() — to a direct Fit at that depth. Only for trees
  /// built by Fit; a deserialized tree carries no split gains.
  DecisionTree Truncated(int max_depth) const;

  /// Number of nodes in the fitted tree.
  int NodeCount() const { return static_cast<int>(nodes_.size()); }

  /// Serializes the fitted tree (hyperparameters, nodes, importances) into
  /// a line-oriented text form; Deserialize restores an equivalent tree.
  /// Predictions of the round-tripped tree are bit-identical.
  std::string Serialize() const;
  static StatusOr<DecisionTree> Deserialize(const std::string& text);

 protected:
  static constexpr int kMaxThresholdCandidates = 24;

  struct Node {
    int feature = -1;        // -1 for leaves
    double threshold = 0.0;  // go left if value <= threshold
    int left = -1;
    int right = -1;
    double positive_probability = 0.5;
  };

  /// One row of a node's split search: a feature value and its label.
  struct SweepEntry {
    double value;
    int label;
  };

  /// `sweep` is split-search scratch shared by the whole recursion.
  int BuildNode(const linalg::Matrix& x, const std::vector<int>& y,
                std::vector<int>& rows, int depth,
                std::vector<SweepEntry>& sweep);
  /// Appends `source`'s subtree at `source_index` (which sits at `depth`)
  /// in pre-order, cut off at params_.dt_max_depth.
  int CopyTruncated(const DecisionTree& source, int source_index, int depth);
  void NormalizeImportances();

  Hyperparameters params_;
  std::vector<Node> nodes_;
  /// gain × rows of each node's split (0 for leaves), indexed like nodes_:
  /// what Fit adds into importances_, kept so Truncated can re-sum it.
  /// Empty on a deserialized tree.
  std::vector<double> split_gains_;
  std::vector<double> importances_;
  bool fitted_ = false;
};

}  // namespace dfs::ml

#endif  // DFS_ML_DECISION_TREE_H_
