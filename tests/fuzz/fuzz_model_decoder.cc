// Fuzz harness for the model decoders: DecisionTree::Deserialize,
// RandomForest::Deserialize and DfsOptimizer::Deserialize. The formats
// nest (an optimizer embeds forests, a forest embeds trees), so one input
// goes to all three. A decoded model then predicts one row of the width
// it claims: every feature index a decoder accepts must lie inside that
// row, because PredictProba does not bounds-check in release builds.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"

namespace {

// A forest carries no width of its own; MinInputWidth is one past its
// highest member feature index. Wider rows than this are not worth
// allocating per input: only the optimizer bounds a forest's width.
constexpr size_t kMaxForestRow = size_t{1} << 16;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  if (auto tree = dfs::ml::DecisionTree::Deserialize(text); tree.ok()) {
    const std::vector<double> row(tree->FeatureImportances()->size(), 0.5);
    (void)tree->PredictProba(row);
  }
  if (auto forest = dfs::ml::RandomForest::Deserialize(text); forest.ok()) {
    if (forest->MinInputWidth() <= kMaxForestRow) {
      const std::vector<double> row(forest->MinInputWidth(), 0.5);
      (void)forest->PredictProba(row);
    }
  }
  if (auto optimizer = dfs::core::DfsOptimizer::Deserialize(text);
      optimizer.ok()) {
    dfs::core::ScenarioFeatures features;
    features.values.assign(dfs::core::ScenarioFeatures::Names().size(), 0.5);
    (void)optimizer->PredictProbabilities(features);
  }
  return 0;
}
