#ifndef DFS_FS_EVAL_CONTEXT_H_
#define DFS_FS_EVAL_CONTEXT_H_

#include <span>
#include <vector>

#include "constraints/constraint_set.h"
#include "data/dataset.h"
#include "fs/feature_subset.h"
#include "util/rng.h"
#include "util/statusor.h"
#include "util/stopwatch.h"

namespace dfs::fs {

/// Result of one wrapper evaluation of a feature subset. The three flags
/// lead so they share one padded word: every eval-cache entry holds one.
struct EvalOutcome {
  /// False when the evaluation did not run (deadline expired, empty mask,
  /// or over the evaluation-independent size bound).
  bool evaluated = false;
  /// All constraints hold on validation.
  bool satisfied_validation = false;
  /// All constraints hold on validation *and* test — the DFS workflow's
  /// success criterion (Figure 2); strategies should stop searching.
  bool success = false;
  /// Wall-clock cost of this evaluation (train [+HPO] + measure +
  /// confirm-on-test); 0 for cache hits and skipped evaluations. The same
  /// value lands in the dfs::obs histograms "engine.evaluation_seconds"
  /// and "strategy.<label>.evaluation_seconds".
  double seconds = 0.0;
  /// Metric values on the validation split.
  constraints::MetricValues validation;
  /// Eq. (1) distance on the validation split (0 = all constraints hold).
  double distance = 1e18;
  /// Eq. (2) objective (== distance unless utility mode is active).
  double objective = 1e18;
};

/// The wrapper-evaluation environment a feature-selection strategy runs in.
/// Implemented by core::DfsEngine; strategies only see this interface, which
/// keeps every strategy a pure search procedure (Section 4.1: for DFS all
/// strategies are wrapper approaches).
///
/// Observability: the implementation attributes every Evaluate() call to
/// the strategy driving the run under dfs::obs metric names
/// "strategy.<label>.{runs,evaluations,evaluation_seconds,run_seconds}"
/// (label = obs::SanitizeLabel(strategy.name())), so strategies get
/// per-strategy counts and timing without carrying any instrumentation
/// themselves. Strategy-internal costs that bypass Evaluate (ranking
/// computation, importance fits) are recorded at their call sites under
/// "fs.*" — see top_k.cc / rfe.cc / portfolio.cc.
class EvalContext {
 public:
  virtual ~EvalContext() = default;

  /// Total number of features in the dataset.
  virtual int num_features() const = 0;

  /// Evaluation-independent bound from the Max-Feature-Set-Size constraint
  /// (Section 3): masks selecting more features can be pruned unevaluated.
  virtual int max_feature_count() const = 0;

  virtual const constraints::ConstraintSet& constraint_set() const = 0;

  /// Training split (read access for ranking computation).
  virtual const data::Dataset& train_data() const = 0;

  /// True when the search must end (deadline hit or success recorded).
  virtual bool ShouldStop() const = 0;

  /// Seconds left before the Max-Search-Time deadline.
  virtual double RemainingSeconds() const = 0;

  /// Deterministic per-run random stream for the strategy.
  virtual Rng& rng() = 0;

  /// Trains the scenario's model on `mask` (with HPO when enabled), measures
  /// the metrics on validation, checks the constraints, and — if validation
  /// passes — confirms on test. Results are memoized per mask.
  virtual EvalOutcome Evaluate(const FeatureMask& mask) = 0;

  /// Evaluates a candidate sweep: one outcome per mask, in submission
  /// order. Semantically equivalent to calling Evaluate() on each mask in
  /// order — same memoization, same best-subset bookkeeping, same
  /// tie-breaks — which is the determinism contract that lets
  /// implementations run the per-mask training/measurement concurrently
  /// (core::DfsEngine does, see DESIGN.md). A batch is attempted in full:
  /// unlike a hand-written sweep, it does not early-exit when a mask
  /// succeeds mid-batch; only deadline expiry / cancellation skip the
  /// remaining masks (skipped outcomes have evaluated == false). Check
  /// ShouldStop() between batches, not between masks of one batch.
  virtual std::vector<EvalOutcome> EvaluateBatch(
      std::span<const FeatureMask> masks) {
    std::vector<EvalOutcome> outcomes;
    outcomes.reserve(masks.size());
    for (const FeatureMask& mask : masks) outcomes.push_back(Evaluate(mask));
    return outcomes;
  }

  /// Importances of the *selected* features under the scenario's model
  /// fitted on `mask` (model-native, or permutation importance when the
  /// model has none — the RFE(Model) fallback). Order matches
  /// MaskToIndices(mask).
  virtual StatusOr<std::vector<double>> FittedImportances(
      const FeatureMask& mask) = 0;
};

}  // namespace dfs::fs

#endif  // DFS_FS_EVAL_CONTEXT_H_
