// The decision-tree HPO grid is fitted once: the depth-7 tree truncated per
// depth, with a presorted split search. These tests pin both to the trees
// a direct per-depth fit with a per-threshold scan builds, byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "metrics/classification.h"
#include "ml/decision_tree.h"
#include "ml/dp/dp_classifier.h"
#include "ml/grid_search.h"
#include "util/rng.h"

namespace dfs::ml {
namespace {

struct Data {
  linalg::Matrix x;
  std::vector<int> y;
};

// Seeded rows over column shapes that stress the split search: continuous,
// integer-valued (heavy duplicates), constant, and pairs of adjacent
// doubles whose midpoint rounds onto the lower one. Labels follow a noisy
// rule over several columns, so trees grow to depth 7.
Data MakeData(int rows, uint64_t seed) {
  Rng rng(seed);
  const double low = 0.5;
  const double high = std::nextafter(low, 1.0);
  Data data{linalg::Matrix(rows, 6), std::vector<int>(rows)};
  for (int r = 0; r < rows; ++r) {
    const double continuous = rng.Uniform();
    const double integer = static_cast<double>(rng.UniformInt(0, 5));
    const double adjacent = rng.Bernoulli(0.5) ? low : high;
    const double coarse = std::round(rng.Uniform() * 8.0) / 8.0;
    data.x(r, 0) = continuous;
    data.x(r, 1) = integer;
    data.x(r, 2) = 0.25;  // constant
    data.x(r, 3) = adjacent;
    data.x(r, 4) = coarse;
    data.x(r, 5) = rng.Uniform();
    const double score = continuous + 0.3 * integer - 0.6 * coarse +
                         (adjacent == high ? 0.4 : 0.0);
    data.y[r] = (score > 1.0) != rng.Bernoulli(0.15) ? 1 : 0;
  }
  return data;
}

Hyperparameters TreeParams(int depth, int min_samples_split) {
  Hyperparameters params;
  params.dt_max_depth = depth;
  params.dt_min_samples_split = min_samples_split;
  return params;
}

// Bit patterns, so -0.0 vs 0.0 or a last-ulp difference cannot hide.
void ExpectBitwiseEqual(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << "importance " << i << ": " << a[i] << " vs " << b[i];
  }
}

// The split search as it was before the sorted sweep: per feature, copy
// and sort the values, then one scalar scan of every row per quantile
// candidate threshold. Kept here as the reference the sweep must match.
class ScanReferenceTree : public DecisionTree {
 public:
  using DecisionTree::DecisionTree;

  void FitReference(const linalg::Matrix& x, const std::vector<int>& y) {
    nodes_.clear();
    importances_.assign(x.cols(), 0.0);
    std::vector<int> rows(x.rows());
    for (int r = 0; r < x.rows(); ++r) rows[r] = r;
    Build(x, y, rows, 0);
    double total_importance = 0.0;
    for (double imp : importances_) total_importance += imp;
    if (total_importance > 0.0) {
      for (double& imp : importances_) imp /= total_importance;
    }
    fitted_ = true;
  }

 private:
  static double Gini(double positives, double total) {
    if (total <= 0.0) return 0.0;
    const double p = positives / total;
    return 2.0 * p * (1.0 - p);
  }

  int Build(const linalg::Matrix& x, const std::vector<int>& y,
            const std::vector<int>& rows, int depth) {
    const int node_index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    double positives = 0.0;
    for (int r : rows) positives += y[r];
    const double total = static_cast<double>(rows.size());
    nodes_[node_index].positive_probability =
        total > 0 ? positives / total : 0.5;
    const double node_gini = Gini(positives, total);
    if (depth >= params_.dt_max_depth ||
        static_cast<int>(rows.size()) < params_.dt_min_samples_split ||
        node_gini <= 0.0) {
      return node_index;
    }

    int best_feature = -1;
    double best_threshold = 0.0;
    double best_gain = 1e-12;
    std::vector<double> values(rows.size());
    for (int feature = 0; feature < x.cols(); ++feature) {
      for (size_t i = 0; i < rows.size(); ++i) values[i] = x(rows[i], feature);
      std::vector<double> sorted_values = values;
      std::sort(sorted_values.begin(), sorted_values.end());
      if (sorted_values.front() == sorted_values.back()) continue;
      std::vector<double> candidates;
      const int num_candidates =
          std::min<int>(kMaxThresholdCandidates,
                        static_cast<int>(sorted_values.size()) - 1);
      for (int q = 1; q <= num_candidates; ++q) {
        const size_t pos = static_cast<size_t>(
            q * (sorted_values.size() - 1) / (num_candidates + 1));
        const double threshold =
            0.5 * (sorted_values[pos] + sorted_values[pos + 1]);
        if (candidates.empty() || threshold != candidates.back()) {
          candidates.push_back(threshold);
        }
      }
      for (double threshold : candidates) {
        double left_total = 0.0, left_positives = 0.0;
        for (size_t i = 0; i < rows.size(); ++i) {
          if (values[i] <= threshold) {
            left_total += 1.0;
            left_positives += y[rows[i]];
          }
        }
        const double right_total = total - left_total;
        if (left_total < 1.0 || right_total < 1.0) continue;
        const double right_positives = positives - left_positives;
        const double gain =
            node_gini -
            ((left_total / total) * Gini(left_positives, left_total) +
             (right_total / total) * Gini(right_positives, right_total));
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
      (x(r, best_feature) <= best_threshold ? left_rows : right_rows)
          .push_back(r);
    }
    importances_[best_feature] += best_gain * total;
    const int left = Build(x, y, left_rows, depth + 1);
    const int right = Build(x, y, right_rows, depth + 1);
    nodes_[node_index].feature = best_feature;
    nodes_[node_index].threshold = best_threshold;
    nodes_[node_index].left = left;
    nodes_[node_index].right = right;
    return node_index;
  }
};

struct Case {
  int rows;
  uint64_t seed;
  int min_samples_split;
};

const Case kCases[] = {
    {40, 11, 2}, {300, 12, 2}, {300, 13, 5}, {900, 14, 2}, {900, 15, 25},
};

TEST(TreeGridTest, TruncatedTreeIsByteIdenticalToDirectFit) {
  for (const Case& c : kCases) {
    const Data data = MakeData(c.rows, c.seed);
    DecisionTree deepest(TreeParams(7, c.min_samples_split));
    ASSERT_TRUE(deepest.Fit(data.x, data.y).ok());
    for (int depth = 1; depth <= 7; ++depth) {
      SCOPED_TRACE("rows=" + std::to_string(c.rows) + " seed=" +
                   std::to_string(c.seed) + " depth=" + std::to_string(depth));
      DecisionTree direct(TreeParams(depth, c.min_samples_split));
      ASSERT_TRUE(direct.Fit(data.x, data.y).ok());
      const DecisionTree truncated = deepest.Truncated(depth);
      EXPECT_EQ(truncated.Serialize(), direct.Serialize());
      ExpectBitwiseEqual(*truncated.FeatureImportances(),
                         *direct.FeatureImportances());
    }
  }
}

TEST(TreeGridTest, TruncationsCanBeTruncatedAgain) {
  const Data data = MakeData(300, 16);
  DecisionTree deepest(TreeParams(7, 2));
  ASSERT_TRUE(deepest.Fit(data.x, data.y).ok());
  DecisionTree direct(TreeParams(2, 2));
  ASSERT_TRUE(direct.Fit(data.x, data.y).ok());
  EXPECT_EQ(deepest.Truncated(5).Truncated(2).Serialize(), direct.Serialize());
}

TEST(TreeGridTest, SortedSweepMatchesPerThresholdScan) {
  for (const Case& c : kCases) {
    const Data data = MakeData(c.rows, c.seed);
    for (int depth : {1, 3, 7}) {
      SCOPED_TRACE("rows=" + std::to_string(c.rows) + " seed=" +
                   std::to_string(c.seed) + " depth=" + std::to_string(depth));
      DecisionTree sweep(TreeParams(depth, c.min_samples_split));
      ASSERT_TRUE(sweep.Fit(data.x, data.y).ok());
      ScanReferenceTree scan(TreeParams(depth, c.min_samples_split));
      scan.FitReference(data.x, data.y);
      EXPECT_EQ(sweep.Serialize(), scan.Serialize());
    }
  }
}

TEST(TreeGridTest, AdjacentDoublesSplitOnTheRoundedMidpoint) {
  // 0.5 and its successor: their midpoint rounds to 0.5, so the only
  // threshold sends the 0.5 rows left and the successor rows right.
  const double low = 0.5;
  const double high = std::nextafter(low, 1.0);
  ASSERT_EQ(0.5 * (low + high), low);
  linalg::Matrix x(6, 1);
  std::vector<int> y(6);
  for (int r = 0; r < 6; ++r) {
    x(r, 0) = r < 3 ? low : high;
    y[r] = r < 3 ? 0 : 1;
  }
  DecisionTree sweep(TreeParams(3, 2));
  ASSERT_TRUE(sweep.Fit(x, y).ok());
  ScanReferenceTree scan(TreeParams(3, 2));
  scan.FitReference(x, y);
  EXPECT_EQ(sweep.Serialize(), scan.Serialize());
  EXPECT_EQ(sweep.NodeCount(), 3);
  EXPECT_EQ(sweep.PredictProba(std::vector<double>{low}), 0.0);
  EXPECT_EQ(sweep.PredictProba(std::vector<double>{high}), 1.0);
}

// Binary and 3-valued columns over duplicated rows: nearly every split
// cuts through long runs of equal values, so the order of entries within
// a tie group is whatever the stable partitions left. Each distinct row
// appears several times, with labels that disagree between copies.
Data MakeTiedData(int rows, uint64_t seed) {
  Rng rng(seed);
  const int distinct = rows / 4;
  Data data{linalg::Matrix(rows, 5), std::vector<int>(rows)};
  for (int r = 0; r < rows; ++r) {
    if (r >= distinct) {
      const int copy = rng.UniformInt(0, distinct - 1);
      for (int c = 0; c < 5; ++c) data.x(r, c) = data.x(copy, c);
    } else {
      data.x(r, 0) = rng.Bernoulli(0.5) ? 1.0 : 0.0;
      data.x(r, 1) = rng.Bernoulli(0.3) ? 1.0 : 0.0;
      data.x(r, 2) = static_cast<double>(rng.UniformInt(0, 2));
      data.x(r, 3) = 0.5 * rng.UniformInt(0, 2);
      data.x(r, 4) = rng.Bernoulli(0.8) ? 1.0 : 0.0;
    }
    const double score = data.x(r, 0) + 0.7 * data.x(r, 2) -
                         0.5 * data.x(r, 3) + 0.4 * data.x(r, 1);
    data.y[r] = (score > 1.0) != rng.Bernoulli(0.2) ? 1 : 0;
  }
  return data;
}

TEST(TreeGridTest, HeavyTiesMatchScanAndTruncation) {
  for (int min_samples_split : {2, 25}) {
    const Data data = MakeTiedData(500, 21);
    DecisionTree deepest(TreeParams(7, min_samples_split));
    ASSERT_TRUE(deepest.Fit(data.x, data.y).ok());
    ASSERT_GT(deepest.NodeCount(), 7);
    for (int depth = 1; depth <= 7; ++depth) {
      SCOPED_TRACE("min_samples_split=" + std::to_string(min_samples_split) +
                   " depth=" + std::to_string(depth));
      DecisionTree direct(TreeParams(depth, min_samples_split));
      ASSERT_TRUE(direct.Fit(data.x, data.y).ok());
      ScanReferenceTree scan(TreeParams(depth, min_samples_split));
      scan.FitReference(data.x, data.y);
      EXPECT_EQ(direct.Serialize(), scan.Serialize());
      ExpectBitwiseEqual(*direct.FeatureImportances(),
                         *scan.FeatureImportances());
      const DecisionTree truncated = deepest.Truncated(depth);
      EXPECT_EQ(truncated.Serialize(), direct.Serialize());
      ExpectBitwiseEqual(*truncated.FeatureImportances(),
                         *direct.FeatureImportances());
    }
  }
}

TEST(TreeGridTest, OneRowAndOneLabelFitSingleLeaves) {
  linalg::Matrix one(1, 3);
  one(0, 0) = 0.2;
  one(0, 1) = 0.7;
  one(0, 2) = 1.0;
  const Data tied = MakeTiedData(200, 22);
  const std::vector<int> all_positive(200, 1);
  struct Input {
    const linalg::Matrix* x;
    std::vector<int> y;
    double probability;
  };
  for (const Input& input : {Input{&one, {1}, 1.0}, Input{&one, {0}, 0.0},
                             Input{&tied.x, all_positive, 1.0}}) {
    DecisionTree tree(TreeParams(7, 2));
    ASSERT_TRUE(tree.Fit(*input.x, input.y).ok());
    ScanReferenceTree scan(TreeParams(7, 2));
    scan.FitReference(*input.x, input.y);
    EXPECT_EQ(tree.Serialize(), scan.Serialize());
    EXPECT_EQ(tree.NodeCount(), 1);
    EXPECT_EQ(tree.PredictProba(input.x->Row(0)), input.probability);
    ExpectBitwiseEqual(*tree.FeatureImportances(),
                       std::vector<double>(input.x->cols(), 0.0));
    DecisionTree shallow(TreeParams(3, 2));
    ASSERT_TRUE(shallow.Fit(*input.x, input.y).ok());
    EXPECT_EQ(tree.Truncated(3).Serialize(), shallow.Serialize());
  }
}

TEST(TreeGridTest, GridSearchMatchesPerPointLoop) {
  for (const Case& c : kCases) {
    SCOPED_TRACE("seed=" + std::to_string(c.seed));
    const Data train = MakeData(c.rows, c.seed);
    const Data validation = MakeData(c.rows / 2 + 20, c.seed + 100);
    auto searched = GridSearch(ModelKind::kDecisionTree, train.x, train.y,
                               validation.x, validation.y);
    ASSERT_TRUE(searched.ok()) << searched.status().ToString();

    // The per-point loop: a direct fit at every depth, strict > tie-break.
    double best_f1 = -1.0;
    int best_depth = 0;
    std::string best_text;
    int points = 0;
    for (const Hyperparameters& params :
         HyperparameterGrid(ModelKind::kDecisionTree)) {
      DecisionTree tree(params);
      ASSERT_TRUE(tree.Fit(train.x, train.y).ok());
      ++points;
      const double f1 =
          metrics::F1Score(validation.y, tree.PredictBatch(validation.x));
      if (f1 > best_f1) {
        best_f1 = f1;
        best_depth = params.dt_max_depth;
        best_text = tree.Serialize();
      }
    }
    EXPECT_EQ(searched->evaluated_points, points);
    EXPECT_EQ(searched->best_params.dt_max_depth, best_depth);
    EXPECT_EQ(searched->best_validation_f1, best_f1);
    const auto* best_tree =
        dynamic_cast<const DecisionTree*>(searched->best_model.get());
    ASSERT_NE(best_tree, nullptr);
    EXPECT_EQ(best_tree->Serialize(), best_text);
  }
}

TEST(TreeGridTest, DpGridFitsEveryPoint) {
  // DP trees draw their noise per fit, so they are never truncated: the
  // grid fit must equal a per-point loop over CreateDpClassifier.
  const Data train = MakeData(300, 17);
  const Data validation = MakeData(150, 18);
  const auto grid = HyperparameterGrid(ModelKind::kDecisionTree);
  std::vector<int> predictions;
  auto fitted = FitGrid(ModelKind::kDecisionTree, grid, DpSetting{1.0, 99},
                        train.x, train.y, [&](const Classifier& model) {
                          model.PredictBatch(validation.x, &predictions);
                          return metrics::F1Score(validation.y, predictions);
                        });
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  double best_f1 = -1.0;
  int best_depth = 0;
  for (const Hyperparameters& params : grid) {
    auto model = CreateDpClassifier(ModelKind::kDecisionTree, params, 1.0, 99);
    ASSERT_TRUE(model->Fit(train.x, train.y).ok());
    const double f1 =
        metrics::F1Score(validation.y, model->PredictBatch(validation.x));
    if (f1 > best_f1) {
      best_f1 = f1;
      best_depth = params.dt_max_depth;
    }
  }
  EXPECT_EQ(fitted->evaluated_points, static_cast<int>(grid.size()));
  EXPECT_EQ(fitted->best_validation_f1, best_f1);
  EXPECT_EQ(fitted->best_params.dt_max_depth, best_depth);
}

TEST(TreeGridTest, OnePointGridIsFittedUnscored) {
  const Data train = MakeData(120, 19);
  int scored = 0;
  auto fitted = FitGrid(ModelKind::kDecisionTree, {TreeParams(4, 2)},
                        std::nullopt, train.x, train.y,
                        [&](const Classifier&) {
                          ++scored;
                          return 0.0;
                        });
  ASSERT_TRUE(fitted.ok());
  EXPECT_EQ(scored, 0);
  EXPECT_EQ(fitted->evaluated_points, 1);
  DecisionTree direct(TreeParams(4, 2));
  ASSERT_TRUE(direct.Fit(train.x, train.y).ok());
  EXPECT_EQ(static_cast<const DecisionTree&>(*fitted->best_model).Serialize(),
            direct.Serialize());
}

}  // namespace
}  // namespace dfs::ml
