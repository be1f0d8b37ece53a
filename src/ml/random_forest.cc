#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace dfs::ml {

Status RandomForest::Fit(const linalg::Matrix& x, const std::vector<int>& y) {
  const int n = x.rows();
  const int d = x.cols();
  if (n == 0) return InvalidArgumentError("empty training set");
  if (static_cast<int>(y.size()) != n) {
    return InvalidArgumentError("labels size mismatch");
  }
  members_.clear();
  Rng rng(options_.seed);

  std::vector<int> class_rows[2];
  for (int r = 0; r < n; ++r) class_rows[y[r]].push_back(r);
  double positives = static_cast<double>(class_rows[1].size());
  prior_ = positives / n;
  if (class_rows[0].empty() || class_rows[1].empty()) {
    fitted_ = true;  // constant prediction via prior_
    return OkStatus();
  }

  const int features_per_tree =
      options_.max_features > 0
          ? std::min(options_.max_features, d)
          : std::max(1, static_cast<int>(std::ceil(std::sqrt(d))));

  for (int t = 0; t < options_.num_trees; ++t) {
    // Bootstrap rows (balanced across classes when enabled).
    std::vector<int> rows;
    if (options_.class_balancing) {
      const int per_class = std::max<int>(
          1, static_cast<int>(std::min(class_rows[0].size(),
                                       class_rows[1].size())));
      for (int k = 0; k < 2; ++k) {
        for (int i = 0; i < per_class; ++i) {
          rows.push_back(class_rows[k][rng.UniformInt(
              0, static_cast<int>(class_rows[k].size()) - 1)]);
        }
      }
    } else {
      for (int i = 0; i < n; ++i) rows.push_back(rng.UniformInt(0, n - 1));
    }

    Member member;
    member.features = rng.SampleWithoutReplacement(d, features_per_tree);
    std::sort(member.features.begin(), member.features.end());

    linalg::Matrix sub(static_cast<int>(rows.size()),
                       static_cast<int>(member.features.size()));
    std::vector<int> sub_y(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      // Row/feature indices were validated when sampled; use the
      // unchecked accessors in this O(rows * features * trees) gather.
      const double* src = x.RowPtr(rows[i]);
      for (size_t j = 0; j < member.features.size(); ++j) {
        sub.Set(static_cast<int>(i), static_cast<int>(j),
                src[member.features[j]]);
      }
      sub_y[i] = y[rows[i]];
    }
    Hyperparameters params;
    params.dt_max_depth = options_.max_depth;
    member.tree = std::make_unique<DecisionTree>(params);
    DFS_RETURN_IF_ERROR(member.tree->Fit(sub, sub_y));
    members_.push_back(std::move(member));
  }
  fitted_ = true;
  return OkStatus();
}

std::string RandomForest::Serialize() const {
  DFS_CHECK(fitted_) << "Serialize before Fit";
  std::ostringstream out;
  out << "forest v1\n";
  out << options_.num_trees << " " << options_.max_depth << " "
      << options_.max_features << " " << (options_.class_balancing ? 1 : 0)
      << " " << options_.seed << "\n";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g\n", prior_);
  out << buffer;
  out << members_.size() << "\n";
  for (const Member& member : members_) {
    out << member.features.size();
    for (int f : member.features) out << " " << f;
    out << "\n";
    const std::string tree = member.tree->Serialize();
    out << tree.size() << "\n" << tree;
  }
  return out.str();
}

StatusOr<RandomForest> RandomForest::Deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string magic, version;
  in >> magic >> version;
  if (magic != "forest" || version != "v1") {
    return InvalidArgumentError("not a serialized forest");
  }
  RandomForestOptions options;
  int balancing = 0;
  in >> options.num_trees >> options.max_depth >> options.max_features >>
      balancing >> options.seed;
  options.class_balancing = balancing != 0;
  RandomForest forest(options);
  size_t num_members = 0;
  in >> forest.prior_ >> num_members;
  if (!in || num_members > 1u << 20) {
    return InvalidArgumentError("corrupt forest header");
  }
  for (size_t m = 0; m < num_members; ++m) {
    Member member;
    size_t num_features = 0;
    in >> num_features;
    if (!in || num_features > 1u << 20) {
      return InvalidArgumentError("corrupt member header");
    }
    member.features.resize(num_features);
    for (int& f : member.features) {
      in >> f;
      if (!in || f < 0) return InvalidArgumentError("corrupt feature index");
    }
    size_t tree_bytes = 0;
    in >> tree_bytes;
    in.ignore();  // trailing newline before the blob
    if (!in || tree_bytes > 1u << 26) {
      return InvalidArgumentError("corrupt tree length");
    }
    std::string blob(tree_bytes, '\0');
    in.read(blob.data(), static_cast<std::streamsize>(tree_bytes));
    if (!in) return InvalidArgumentError("truncated tree blob");
    DFS_ASSIGN_OR_RETURN(DecisionTree tree, DecisionTree::Deserialize(blob));
    // The member tree reads its gathered sub-row, whose width is the
    // member's feature count.
    if (tree.FeatureImportances()->size() != num_features) {
      return InvalidArgumentError("member tree width mismatch");
    }
    member.tree = std::make_unique<DecisionTree>(std::move(tree));
    forest.members_.push_back(std::move(member));
  }
  forest.fitted_ = true;
  return forest;
}

size_t RandomForest::MinInputWidth() const {
  size_t width = 0;
  for (const Member& member : members_) {
    for (int feature : member.features) {
      width = std::max(width, static_cast<size_t>(feature) + 1);
    }
  }
  return width;
}

double RandomForest::PredictProba(std::span<const double> row) const {
  DFS_CHECK(fitted_) << "PredictProba before Fit";
  if (members_.empty()) return prior_;
  double total = 0.0;
  // Per-thread gather buffer: the job service's workers share one trained
  // forest, so the scratch cannot live on the (const) instance.
  // Still allocation-free after each thread's first warm-up call.
  // DFS_THREAD_LOCAL_OK: per-thread scratch; one model serves many threads.
  thread_local std::vector<double> sub_row;
  for (const auto& member : members_) {
    sub_row.resize(member.features.size());  // DFS_ALLOC_OK: reusable thread-local scratch
    for (size_t j = 0; j < member.features.size(); ++j) {
      sub_row[j] = row[member.features[j]];
    }
    total += member.tree->PredictProba(sub_row);
  }
  return total / static_cast<double>(members_.size());
}

}  // namespace dfs::ml
