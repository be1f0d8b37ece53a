#ifndef DFS_CORE_ENGINE_H_
#define DFS_CORE_ENGINE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/eval_cache.h"
#include "core/scenario.h"
#include "fs/eval_context.h"
#include "fs/strategy.h"
#include "metrics/robustness.h"
#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace dfs::core {

/// Engine configuration shared across a benchmark run.
struct EngineOptions {
  /// Run the Section-6.1 grid search per evaluation (the "Parameter
  /// Optimization" columns of Table 3); default parameters otherwise.
  bool use_hpo = false;
  /// Eq. (2) utility mode: once constraints hold, keep maximizing F1 until
  /// the budget runs out (the Table-4 utility benchmark).
  bool maximize_f1_utility = false;
  /// Memoize evaluations per feature mask (ablated in bench_micro).
  bool enable_eval_cache = true;
  /// Adversarial-attack configuration for the safety metric.
  metrics::RobustnessOptions robustness;
  /// Seed for evaluation-side randomness (attacks, DP noise, permutation
  /// importances).
  uint64_t seed = 42;
  /// Record one trace point per (uncached) evaluation in RunResult::trace;
  /// off by default to keep benchmark memory flat.
  bool record_trace = false;
  /// Threads for EvaluateBatch candidate sweeps. 0 = the process-wide
  /// budget (DFS_THREADS env, default hardware_concurrency); 1 = serial.
  /// Parallel runs select byte-identical masks to serial runs — see the
  /// determinism contract in DESIGN.md. Ignored when `pool` is set.
  int num_threads = 0;
  /// Borrowed pool for EvaluateBatch (not owned; must outlive the engine).
  /// Batches then run as a task group on it, as wide as the pool, instead
  /// of on a pool of the engine's own. ExperimentPool::Run lends every
  /// scenario's engine the pool its scenarios run on, so threads a
  /// finished scenario frees help the ones still running (DESIGN.md §2d).
  ThreadPool* pool = nullptr;
  /// External cancellation token. When set and flipped to true by another
  /// thread, the search stops at the next evaluation boundary: ShouldStop()
  /// turns true and Evaluate() refuses further work, so a running Run()
  /// returns within one wrapper evaluation. Used by the serve subsystem to
  /// cancel RUNNING jobs.
  std::shared_ptr<std::atomic<bool>> stop_token;
  /// Optional shared L2 cache consulted behind the engine's private
  /// per-run cache: on an L1 miss the owner probes it (non-blocking
  /// Lookup) before training, and publishes fresh outcomes back into it.
  /// The caller owns keying — attach only a cache whose fingerprint
  /// matches this engine's evaluation context (dataset, model, constraint
  /// set, seed; see EvalCacheOptions::fingerprint), because outcomes are
  /// reused verbatim. Ignored when enable_eval_cache is false. Used by
  /// dfs::serve to share evaluations across jobs and daemon restarts.
  std::shared_ptr<ShardedEvalCache> shared_cache;
};

/// One evaluation in a recorded search trace: when it happened, what was
/// proposed, and how close it came (used for convergence analysis and by
/// the CLI's --trace output).
struct TracePoint {
  double seconds = 0.0;           ///< since search start
  int selected_features = 0;
  double objective = 0.0;         ///< Eq. (2) value
  double distance = 0.0;          ///< Eq. (1) value
  bool satisfied_validation = false;
  bool success = false;
};

/// Outcome of running one FS strategy on one ML scenario (one cell of the
/// benchmark).
struct RunResult {
  /// s(Z) != empty-set: a subset satisfied all constraints on validation
  /// and test within the search-time budget.
  bool success = false;
  /// The satisfying subset (success) or the best-objective subset seen.
  fs::FeatureMask selected;
  constraints::MetricValues validation_values;
  constraints::MetricValues test_values;
  /// Wall-clock seconds until success (or until the search ended).
  double search_seconds = 0.0;
  bool timed_out = false;
  /// The run was stopped by EngineOptions::stop_token before finishing.
  bool cancelled = false;
  /// Eq. (1) distances of the best subset — the Table-4 failure analysis.
  double best_distance_validation = 1e18;
  double best_distance_test = 1e18;
  /// Test F1 of the returned subset (Table 4's utility benchmark).
  double test_f1 = 0.0;
  /// The strategy ran out of search space before the deadline (used by the
  /// failure analysis in Section 6.3).
  bool search_exhausted = false;
  int evaluations = 0;
  int cache_hits = 0;
  /// Per-evaluation search trace (only when EngineOptions::record_trace).
  std::vector<TracePoint> trace;
};

/// The DFS engine: implements the Figure-2 workflow. It owns the wrapper
/// evaluation (train [+ HPO] -> validate constraints -> confirm on test),
/// the evaluation cache, the search-time deadline, and success recording;
/// strategies drive it through the fs::EvalContext interface.
///
/// Concurrency model: one strategy drives the engine from one thread.
/// EvaluateBatch fans the per-mask training/measurement out as one task
/// group, on the borrowed EngineOptions::pool or else on the engine's own
/// pool (EngineOptions::num_threads wide), and the calling thread runs the
/// group's tasks too while it waits. All result reduction — best-subset
/// tracking, success recording, cache-hit accounting, trace — happens on
/// the calling thread in submission order, so a parallel run selects
/// byte-identical masks to a serial one (DESIGN.md has the full
/// ordering/determinism contract).
class DfsEngine : public fs::EvalContext {
 public:
  /// The scenario is copied: the engine's lifetime is then independent of
  /// the caller's (temporaries are safe to pass).
  DfsEngine(MlScenario scenario, const EngineOptions& options);

  /// Runs `strategy` against the scenario and reports the outcome. Resets
  /// engine state, so one engine can race several strategies sequentially.
  RunResult Run(fs::FeatureSelectionStrategy& strategy);

  // --- fs::EvalContext ------------------------------------------------
  int num_features() const override;
  int max_feature_count() const override;
  const constraints::ConstraintSet& constraint_set() const override;
  const data::Dataset& train_data() const override;
  bool ShouldStop() const override;
  double RemainingSeconds() const override;
  Rng& rng() override;
  fs::EvalOutcome Evaluate(const fs::FeatureMask& mask) override;
  std::vector<fs::EvalOutcome> EvaluateBatch(
      std::span<const fs::FeatureMask> masks) override;
  StatusOr<std::vector<double>> FittedImportances(
      const fs::FeatureMask& mask) override;

 private:
  /// An evaluation plus the test-split values the reduction step needs for
  /// result bookkeeping (test metrics are reported, never searched over, so
  /// they stay out of the strategy-facing EvalOutcome).
  struct EvaluatedMask {
    fs::EvalOutcome outcome;
    constraints::MetricValues test_values;
    bool have_test_values = false;
  };

  /// How one slot of a parallel batch resolved; consumed by the in-order
  /// reduction. kSharedHit is a first-in-run mask served from the shared
  /// L2 cache: a cache hit for the counters, but — unlike an L1 kCacheHit,
  /// whose mask was already reduced this run — it still flows through
  /// RecordOutcome for best-subset tracking and success recording.
  enum class SlotKind {
    kSkipped,
    kEvaluated,
    kCacheHit,
    kSharedHit,
    kAbandoned,
  };

  struct BatchSlot {
    EvaluatedMask result;
    SlotKind kind = SlotKind::kSkipped;
  };

  /// Reusable per-evaluation buffers (the "evaluation memory contract",
  /// DESIGN.md §2e). One scratch is leased per in-flight evaluation;
  /// Dataset::GatherInto reshapes the matrices in place and
  /// Classifier::PredictBatch writes into `predictions`, so once every
  /// worker has seen its largest mask the steady-state evaluation path
  /// performs no heap allocation for gathers or batch predictions.
  struct EvalScratch {
    linalg::Matrix train_x;
    linalg::Matrix validation_x;
    linalg::Matrix test_x;
    std::vector<int> predictions;
    /// Set by TrainModel when the HPO loop already gathered validation_x
    /// for the current feature set; Measure then skips the second gather.
    bool validation_gathered = false;
  };

  /// RAII lease of one EvalScratch from the engine's pool. Scratches are
  /// recycled, never destroyed, for the engine's lifetime; the pool high-
  /// water mark is the batch concurrency.
  class ScratchLease {
   public:
    explicit ScratchLease(DfsEngine& engine)
        : engine_(engine), scratch_(engine.AcquireScratch()) {}
    ~ScratchLease() { engine_.ReleaseScratch(std::move(scratch_)); }
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;
    EvalScratch& operator*() { return *scratch_; }
    EvalScratch* operator->() { return scratch_.get(); }

   private:
    DfsEngine& engine_;
    std::unique_ptr<EvalScratch> scratch_;
  };

  std::unique_ptr<EvalScratch> AcquireScratch();
  void ReleaseScratch(std::unique_ptr<EvalScratch> scratch);

  /// Trains the scenario's model (DP variant when the privacy constraint is
  /// active; grid-searched by ml::FitGrid when HPO is on) on the selected
  /// columns, using `scratch` for the gathered train (and, under HPO,
  /// validation) matrices. The returned classifier owns all its state — it
  /// never borrows from `scratch`.
  // DFS_ALLOC_BOUNDARY: model construction allocates by design; §2e
  // covers gathers and predictions, not training (DESIGN.md §2k).
  StatusOr<std::unique_ptr<ml::Classifier>> TrainModel(
      const std::vector<int>& features,
      EvalScratch& scratch) DFS_ALLOC_BOUNDARY;

  /// Measures the constraint metrics of `model` on one split whose selected
  /// columns are already gathered in `x`, drawing any evaluation-side
  /// randomness (the robustness attack) from `rng`. Predictions go through
  /// scratch.predictions — no allocation on the steady-state path.
  DFS_HOT constraints::MetricValues Measure(const ml::Classifier& model,
                                            const std::vector<int>& features,
                                            const data::Dataset& split,
                                            const linalg::Matrix& x, Rng& rng,
                                            EvalScratch& scratch);

  /// Seed of the per-evaluation RNG stream: split deterministically from
  /// the run seed by mask, so an evaluation's randomness is independent of
  /// which thread runs it and of how many ran before it.
  uint64_t EvalSeed(const fs::FeatureMask& mask) const;

  /// The pure per-mask work (train + measure + confirm-on-test). Touches
  /// only immutable run state and atomic obs instruments — safe to call
  /// from batch workers concurrently.
  DFS_HOT EvaluatedMask EvaluateUncached(const fs::FeatureMask& mask,
                                         const std::vector<int>& features);

  /// The stateful reduction for one evaluated mask: evaluation counters,
  /// best-subset tracking, success recording, trace. Caller-thread only,
  /// in submission order. `charge_evaluation` is false for shared-cache
  /// hits: the outcome still drives best-subset/success bookkeeping, but no
  /// training happened, so evaluation counters and the trace stay untouched.
  void RecordOutcome(const fs::FeatureMask& mask, const EvaluatedMask& result,
                     bool charge_evaluation);

  /// Worker body of one parallel batch slot (deadline/cancel check, cache
  /// acquire, evaluate, publish).
  void EvaluateSlot(const fs::FeatureMask& mask, BatchSlot& slot);

  /// Applies one resolved slot to the per-run state (cache-hit accounting
  /// or RecordOutcome). Caller-thread only, in submission order.
  void ReduceSlot(const fs::FeatureMask& mask, const BatchSlot& slot,
                  bool parallel);

  /// The pool parallel batches run on: the borrowed EngineOptions::pool,
  /// else the engine's own, created on the first parallel batch of the
  /// engine's lifetime.
  ThreadPool& BatchPool();

  /// True once the external stop token (if any) has been flipped. Also
  /// stamps the first observation (see cancel_observed_).
  bool ExternallyCancelled() const;

  MlScenario scenario_;
  EngineOptions options_;
  Rng rng_;
  /// Resolved width of a parallel batch (>= 1; 1 = serial).
  int batch_threads_ = 1;
  /// The engine's own batch pool (unused when one is borrowed). It has
  /// batch_threads_ - 1 workers: the waiting caller is the last thread.
  std::unique_ptr<ThreadPool> own_pool_;

  /// Free list of evaluation scratches (leased via ScratchLease);
  /// survives across Runs so repeated searches stay warm.
  util::Mutex scratch_mu_;
  std::vector<std::unique_ptr<EvalScratch>> scratch_pool_
      DFS_GUARDED_BY(scratch_mu_);

  // Per-Run state.
  Deadline deadline_ = Deadline::Infinite();
  Stopwatch stopwatch_;
  bool success_found_ = false;
  RunResult result_;
  double best_objective_ = 1e18;
  ShardedEvalCache cache_;

  // dfs::obs instrumentation (see DESIGN.md §2c). Per-strategy handles are
  // looked up once per Run ("strategy.<label>.*"); null between runs.
  // cancel_observed_ stamps the first time the stop token is seen flipped,
  // so Run can report observation→return cancellation latency. Stamping is
  // guarded by cancel_mu_ (batch workers poll the token concurrently) with
  // cancel_seen_ as the lock-free fast path; Run reads the stamp only after
  // all workers have drained.
  obs::Counter* strategy_evaluations_ = nullptr;
  obs::Histogram* strategy_eval_seconds_ = nullptr;
  mutable std::atomic<bool> cancel_seen_{false};
  mutable util::Mutex cancel_mu_;
  mutable std::optional<Stopwatch> cancel_observed_
      DFS_GUARDED_BY(cancel_mu_);
};

}  // namespace dfs::core

#endif  // DFS_CORE_ENGINE_H_
