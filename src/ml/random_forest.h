#ifndef DFS_ML_RANDOM_FOREST_H_
#define DFS_ML_RANDOM_FOREST_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"
#include "ml/decision_tree.h"
#include "util/rng.h"
#include "util/statusor.h"

namespace dfs::ml {

/// Configuration for the random forest used by the meta-learning DFS
/// Optimizer (Section 6.2: "random forest classifier with default parameters
/// and class balancing").
struct RandomForestOptions {
  int num_trees = 40;
  int max_depth = 8;
  /// Features examined per tree: ceil(sqrt(d)) when <= 0.
  int max_features = 0;
  /// Balanced bootstrap: each tree trains on an equal number of rows from
  /// both classes.
  bool class_balancing = true;
  uint64_t seed = 17;
};

/// Bagged ensemble of depth-limited CART trees with per-tree feature
/// subspaces and (optionally) balanced bootstrap sampling.
class RandomForest : public Classifier {
 public:
  explicit RandomForest(const RandomForestOptions& options)
      : options_(options) {}

  Status Fit(const linalg::Matrix& x, const std::vector<int>& y) override;
  /// Thread-safe on a fitted forest: the job service's workers share one
  /// installed optimizer (and its forests), so concurrent const
  /// predictions must not touch instance state.
  double PredictProba(std::span<const double> row) const override;
  /// Re-expose the base-class std::vector convenience shim (the span
  /// override would otherwise hide it from unqualified lookup).
  using Classifier::PredictProba;

  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<RandomForest>(options_);
  }
  std::string name() const override { return "RF"; }

  /// Serializes the fitted forest (options, prior, every member tree with
  /// its feature subspace); Deserialize restores a forest with identical
  /// predictions. Used by the DFS Optimizer's Save/Load.
  std::string Serialize() const;
  static StatusOr<RandomForest> Deserialize(const std::string& text);

  /// The narrowest row PredictProba accepts: one past the highest feature
  /// index any member reads (0 for a forest without members).
  size_t MinInputWidth() const;

 private:
  RandomForestOptions options_;
  struct Member {
    std::unique_ptr<DecisionTree> tree;
    std::vector<int> features;  // column subset the tree was trained on
  };
  std::vector<Member> members_;
  double prior_ = 0.5;
  bool fitted_ = false;
};

}  // namespace dfs::ml

#endif  // DFS_ML_RANDOM_FOREST_H_
