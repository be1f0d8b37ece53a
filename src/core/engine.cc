#include "core/engine.h"

#include <algorithm>

#include "metrics/classification.h"
#include "metrics/fairness.h"
#include "ml/dp/dp_classifier.h"
#include "ml/grid_search.h"
#include "ml/permutation_importance.h"
#include "obs/trace.h"

namespace dfs::core {
namespace {

/// Engine-wide instruments, resolved once (hot path then touches only
/// atomics). Per-strategy instruments are resolved per Run instead.
struct EngineMetrics {
  obs::Counter& runs;
  obs::Counter& successes;
  obs::Counter& cancellations;
  obs::Counter& evaluations;
  obs::Counter& parallel_evaluations;
  obs::Counter& cache_hits;
  obs::Counter& train_failures;
  obs::Histogram& run_seconds;
  obs::Histogram& evaluation_seconds;
  obs::Histogram& fit_seconds;
  obs::Histogram& cancel_latency_seconds;
  obs::Histogram& batch_size;

  // DFS_ALLOC_BOUNDARY: one-time static initialization of the
  // instrument references; every later call returns the same object.
  static EngineMetrics& Get() DFS_ALLOC_BOUNDARY {
    auto& registry = obs::MetricsRegistry::Global();
    static EngineMetrics* metrics = new EngineMetrics{
        registry.counter("engine.runs"),
        registry.counter("engine.successes"),
        registry.counter("engine.cancellations"),
        registry.counter("engine.evaluations"),
        registry.counter("engine.parallel_evaluations"),
        registry.counter("engine.cache_hits"),
        registry.counter("engine.train_failures"),
        registry.histogram("engine.run_seconds"),
        registry.histogram("engine.evaluation_seconds"),
        registry.histogram("engine.fit_seconds"),
        registry.histogram("engine.cancel_latency_seconds"),
        // Candidate counts, not latencies: power-of-two buckets cover the
        // sweep widths strategies actually submit.
        registry.histogram("engine.batch_size",
                           {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
    };
    return *metrics;
  }
};

}  // namespace

DfsEngine::DfsEngine(MlScenario scenario, const EngineOptions& options)
    : scenario_(std::move(scenario)),
      options_(options),
      rng_(options.seed),
      batch_threads_(options.pool != nullptr ? options.pool->num_threads()
                     : options.num_threads > 0 ? options.num_threads
                                               : HardwareThreadBudget()) {}

int DfsEngine::num_features() const {
  return scenario_.split.train.num_features();
}

int DfsEngine::max_feature_count() const {
  return scenario_.constraint_set.MaxFeatureCount(num_features());
}

const constraints::ConstraintSet& DfsEngine::constraint_set() const {
  return scenario_.constraint_set;
}

const data::Dataset& DfsEngine::train_data() const {
  return scenario_.split.train;
}

bool DfsEngine::ExternallyCancelled() const {
  const bool cancelled =
      options_.stop_token != nullptr &&
      options_.stop_token->load(std::memory_order_relaxed);
  // First observation starts the cancellation-latency clock: the serve
  // promise is "a cancelled job returns within about one evaluation", and
  // engine.cancel_latency_seconds is that promise measured. Batch workers
  // poll concurrently, so the one-time stamp is mutex-guarded behind an
  // atomic fast path.
  if (cancelled && !cancel_seen_.load(std::memory_order_acquire)) {
    util::MutexLock lock(cancel_mu_);
    if (!cancel_observed_.has_value()) cancel_observed_.emplace();
    cancel_seen_.store(true, std::memory_order_release);
  }
  return cancelled;
}

bool DfsEngine::ShouldStop() const {
  if (ExternallyCancelled()) return true;
  // In utility mode a satisfying subset does not end the search: the budget
  // is spent maximizing F1 subject to the constraints (Eq. 2).
  if (options_.maximize_f1_utility) return deadline_.Expired();
  return success_found_ || deadline_.Expired();
}

double DfsEngine::RemainingSeconds() const {
  return std::max(0.0, deadline_.RemainingSeconds());
}

Rng& DfsEngine::rng() { return rng_; }

uint64_t DfsEngine::EvalSeed(const fs::FeatureMask& mask) const {
  // SplitMix64 finalizer over (run seed, mask hash): a well-mixed stream per
  // mask, deterministic across thread counts and evaluation order, and
  // distinct from the DP-classifier seed (seed ^ hash) used in TrainModel.
  uint64_t z = options_.seed + 0x9E3779B97F4A7C15ULL * fs::MaskHash(mask);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::unique_ptr<DfsEngine::EvalScratch> DfsEngine::AcquireScratch() {
  {
    util::MutexLock lock(scratch_mu_);
    if (!scratch_pool_.empty()) {
      auto scratch = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<EvalScratch>();
}

void DfsEngine::ReleaseScratch(std::unique_ptr<EvalScratch> scratch) {
  if (scratch == nullptr) return;
  scratch->validation_gathered = false;
  util::MutexLock lock(scratch_mu_);
  scratch_pool_.push_back(std::move(scratch));
}

StatusOr<std::unique_ptr<ml::Classifier>> DfsEngine::TrainModel(
    const std::vector<int>& features, EvalScratch& scratch) {
  obs::ScopedTimer fit_timer(EngineMetrics::Get().fit_seconds);
  const auto& split = scenario_.split;
  scratch.validation_gathered = false;
  split.train.GatherInto(features, &scratch.train_x);
  const auto& train_y = split.train.labels();
  std::optional<ml::DpSetting> dp;
  if (const auto& epsilon = scenario_.constraint_set.privacy_epsilon) {
    dp = ml::DpSetting{*epsilon,
                       options_.seed ^ fs::MaskHash(fs::IndicesToMask(
                                           num_features(), features))};
  }

  const std::vector<ml::Hyperparameters> grid =
      options_.use_hpo ? ml::HyperparameterGrid(scenario_.model)
                       : std::vector<ml::Hyperparameters>{{}};
  // Validation is gathered only when the HPO loop actually scores on it;
  // the gather is then reused by Measure via scratch.validation_gathered.
  if (grid.size() > 1) {
    split.validation.GatherInto(features, &scratch.validation_x);
    scratch.validation_gathered = true;
  }

  auto fitted = ml::FitGrid(
      scenario_.model, grid, dp, scratch.train_x, train_y,
      [&](const ml::Classifier& model) {
        model.PredictBatch(scratch.validation_x, &scratch.predictions);
        return metrics::F1Score(split.validation.labels(),
                                scratch.predictions);
      });
  if (!fitted.ok()) return fitted.status();
  return std::move(fitted->best_model);
}

constraints::MetricValues DfsEngine::Measure(const ml::Classifier& model,
                                             const std::vector<int>& features,
                                             const data::Dataset& split,
                                             const linalg::Matrix& x, Rng& rng,
                                             EvalScratch& scratch) {
  constraints::MetricValues values;
  values.selected_features = static_cast<int>(features.size());
  values.total_features = num_features();
  values.feature_fraction =
      static_cast<double>(features.size()) / std::max(1, num_features());

  model.PredictBatch(x, &scratch.predictions);
  values.f1 = metrics::F1Score(split.labels(), scratch.predictions);
  if (scenario_.constraint_set.min_equal_opportunity.has_value()) {
    values.equal_opportunity = metrics::EqualOpportunity(
        split.labels(), scratch.predictions, split.groups());
  }
  if (scenario_.constraint_set.min_safety.has_value()) {
    values.safety = metrics::EmpiricalRobustness(model, x, split.labels(),
                                                 rng, options_.robustness);
  }
  return values;
}

DfsEngine::EvaluatedMask DfsEngine::EvaluateUncached(
    const fs::FeatureMask& mask, const std::vector<int>& features) {
  EngineMetrics& metrics = EngineMetrics::Get();
  EvaluatedMask result;
  fs::EvalOutcome& outcome = result.outcome;

  Stopwatch eval_stopwatch;
  ScratchLease scratch(*this);
  auto model = TrainModel(features, *scratch);
  if (!model.ok()) {
    DFS_LOG(WARNING) << "training failed: " << model.status().ToString();
    metrics.train_failures.Increment();
    return result;
  }
  // Per-evaluation RNG stream (robustness attacks): split from the run seed
  // by mask so the measured values are identical no matter which thread —
  // or how many threads — ran the evaluation.
  Rng eval_rng(EvalSeed(mask));

  outcome.evaluated = true;
  // Under HPO the TrainModel loop already gathered validation for this
  // feature set; otherwise gather it here — exactly once either way.
  if (!scratch->validation_gathered) {
    scenario_.split.validation.GatherInto(features, &scratch->validation_x);
  }
  outcome.validation = Measure(**model, features, scenario_.split.validation,
                               scratch->validation_x, eval_rng, *scratch);
  outcome.distance = scenario_.constraint_set.Distance(outcome.validation);
  outcome.objective = scenario_.constraint_set.Objective(
      outcome.validation, options_.maximize_f1_utility);
  outcome.satisfied_validation =
      scenario_.constraint_set.Satisfied(outcome.validation);

  // Figure-2 workflow: only subsets that satisfy validation are confirmed
  // on test, so the test gather happens only behind this gate. (Repeated
  // test-set checking is the paper's protocol; the test metrics are
  // reported, not searched over, except for this gate.)
  if (outcome.satisfied_validation) {
    scenario_.split.test.GatherInto(features, &scratch->test_x);
    result.test_values = Measure(**model, features, scenario_.split.test,
                                 scratch->test_x, eval_rng, *scratch);
    result.have_test_values = true;
    outcome.success = scenario_.constraint_set.Satisfied(result.test_values);
  }

  // Wall-clock of the evaluation proper (train + measure + confirm);
  // reduction-side bookkeeping is excluded, cache hits never get here.
  outcome.seconds = eval_stopwatch.ElapsedSeconds();
  metrics.evaluation_seconds.Record(outcome.seconds);
  if (strategy_eval_seconds_ != nullptr) {
    strategy_eval_seconds_->Record(outcome.seconds);
  }
  return result;
}

void DfsEngine::RecordOutcome(const fs::FeatureMask& mask,
                              const EvaluatedMask& result,
                              bool charge_evaluation) {
  const fs::EvalOutcome& outcome = result.outcome;
  if (charge_evaluation) {
    ++result_.evaluations;
    EngineMetrics::Get().evaluations.Increment();
    if (strategy_evaluations_ != nullptr) strategy_evaluations_->Increment();
  }

  // Track the best subset for result reporting / failure analysis.
  const bool improves = outcome.objective < best_objective_;
  const bool first_success = outcome.success && !success_found_;
  // After a success, the recorded subset is only replaced by *better
  // successful* subsets (relevant in utility mode, where search continues).
  if (first_success ||
      (improves && (!success_found_ ||
                    (options_.maximize_f1_utility && outcome.success)))) {
    best_objective_ = outcome.objective;
    result_.selected = mask;
    result_.validation_values = outcome.validation;
    result_.best_distance_validation = outcome.distance;
    if (result.have_test_values) {
      result_.test_values = result.test_values;
      result_.best_distance_test =
          scenario_.constraint_set.Distance(result.test_values);
      result_.test_f1 = result.test_values.f1;
    } else {
      result_.best_distance_test = 1e18;  // recomputed at end of Run
      result_.test_f1 = 0.0;
    }
  }
  if (outcome.success && !success_found_) {
    success_found_ = true;
    result_.success = true;
    result_.search_seconds = stopwatch_.ElapsedSeconds();
  }

  if (options_.record_trace && charge_evaluation) {
    TracePoint point;
    point.seconds = stopwatch_.ElapsedSeconds();
    point.selected_features = fs::CountSelected(mask);
    point.objective = outcome.objective;
    point.distance = outcome.distance;
    point.satisfied_validation = outcome.satisfied_validation;
    point.success = outcome.success;
    result_.trace.push_back(point);
  }
}

void DfsEngine::EvaluateSlot(const fs::FeatureMask& mask, BatchSlot& slot) {
  if (deadline_.Expired() || ExternallyCancelled()) {
    slot.kind = SlotKind::kSkipped;
    return;
  }
  if (static_cast<int>(mask.size()) != num_features()) {
    DFS_LOG(WARNING) << "mask size mismatch";
    slot.kind = SlotKind::kSkipped;
    return;
  }
  const std::vector<int> features = fs::MaskToIndices(mask);
  if (features.empty()) {
    slot.kind = SlotKind::kSkipped;
    return;
  }

  if (options_.enable_eval_cache) {
    switch (cache_.Acquire(mask, &slot.result.outcome)) {
      case ShardedEvalCache::Acquired::kHit:
        slot.kind = SlotKind::kCacheHit;
        return;
      case ShardedEvalCache::Acquired::kAbandoned:
        // The concurrent owner failed; training is deterministic per mask,
        // so retrying would fail the same way. Report unevaluated.
        slot.kind = SlotKind::kAbandoned;
        return;
      case ShardedEvalCache::Acquired::kOwner:
        break;
    }
    // We own the in-flight L1 slot from here: the guard abandons it if we
    // unwind without resolving, so waiters never block behind a dead owner.
    ShardedEvalCache::OwnerGuard owner(&cache_, mask);

    // L2: the shared cross-run cache, keyed to this evaluation context by
    // the serve layer. Lookup never blocks (a pending entry reads as a
    // miss), so holding L1 ownership across this probe cannot deadlock.
    ShardedEvalCache* shared = options_.shared_cache.get();
    if (shared != nullptr && shared->Lookup(mask, &slot.result.outcome)) {
      owner.Publish(slot.result.outcome);
      slot.kind = SlotKind::kSharedHit;
      return;
    }

    slot.result = EvaluateUncached(mask, features);
    if (slot.result.outcome.evaluated) {
      owner.Publish(slot.result.outcome);
      if (shared != nullptr) shared->InsertPublished(mask, slot.result.outcome);
    } else {
      owner.Abandon();  // failed trainings are not cached
    }
    slot.kind = slot.result.outcome.evaluated ? SlotKind::kEvaluated
                                              : SlotKind::kSkipped;
    return;
  }

  slot.result = EvaluateUncached(mask, features);
  slot.kind = slot.result.outcome.evaluated ? SlotKind::kEvaluated
                                            : SlotKind::kSkipped;
}

void DfsEngine::ReduceSlot(const fs::FeatureMask& mask, const BatchSlot& slot,
                           bool parallel) {
  EngineMetrics& metrics = EngineMetrics::Get();
  switch (slot.kind) {
    case SlotKind::kCacheHit:
      ++result_.cache_hits;
      metrics.cache_hits.Increment();
      break;
    case SlotKind::kSharedHit:
      // A hit for the counters, but the mask is new to this run, so the
      // outcome still drives best-subset tracking and success recording —
      // without charging an evaluation (no training happened).
      ++result_.cache_hits;
      metrics.cache_hits.Increment();
      RecordOutcome(mask, slot.result, /*charge_evaluation=*/false);
      break;
    case SlotKind::kEvaluated:
      if (parallel) metrics.parallel_evaluations.Increment();
      RecordOutcome(mask, slot.result, /*charge_evaluation=*/true);
      break;
    case SlotKind::kSkipped:
    case SlotKind::kAbandoned:
      break;
  }
}

fs::EvalOutcome DfsEngine::Evaluate(const fs::FeatureMask& mask) {
  BatchSlot slot;
  EvaluateSlot(mask, slot);
  ReduceSlot(mask, slot, /*parallel=*/false);
  return slot.result.outcome;
}

std::vector<fs::EvalOutcome> DfsEngine::EvaluateBatch(
    std::span<const fs::FeatureMask> masks) {
  EngineMetrics& metrics = EngineMetrics::Get();
  std::vector<fs::EvalOutcome> outcomes(masks.size());
  if (masks.empty()) return outcomes;
  metrics.batch_size.Record(static_cast<double>(masks.size()));

  const int threads =
      std::min(batch_threads_, static_cast<int>(masks.size()));
  if (threads <= 1) {
    for (size_t i = 0; i < masks.size(); ++i) outcomes[i] = Evaluate(masks[i]);
    return outcomes;
  }

  ThreadPool& pool = BatchPool();
  TaskGroup group;
  std::vector<BatchSlot> slots(masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    pool.Schedule(group, [this, &mask = masks[i], &slot = slots[i]] {
      EvaluateSlot(mask, slot);
    });
  }
  pool.Wait(group);

  // Reduce in submission order: the stateful bookkeeping (best-subset
  // tracking, success recording, cache-hit totals, trace) is applied
  // exactly as a serial sweep would have, so parallel runs select
  // byte-identical masks (tie-breaks unchanged).
  for (size_t i = 0; i < masks.size(); ++i) {
    ReduceSlot(masks[i], slots[i], /*parallel=*/true);
    outcomes[i] = slots[i].result.outcome;
  }
  return outcomes;
}

ThreadPool& DfsEngine::BatchPool() {
  if (options_.pool != nullptr) return *options_.pool;
  if (own_pool_ == nullptr) {
    own_pool_ = std::make_unique<ThreadPool>(batch_threads_ - 1);
  }
  return *own_pool_;
}

StatusOr<std::vector<double>> DfsEngine::FittedImportances(
    const fs::FeatureMask& mask) {
  const std::vector<int> features = fs::MaskToIndices(mask);
  if (features.empty()) return InvalidArgumentError("empty mask");
  // Default parameters: importances guide the search; HPO-quality fits are
  // not worth the cost here (matching RFE practice).
  const bool is_private = scenario_.constraint_set.privacy_epsilon.has_value();
  std::unique_ptr<ml::Classifier> model =
      is_private ? ml::CreateDpClassifier(
                       scenario_.model, ml::Hyperparameters(),
                       *scenario_.constraint_set.privacy_epsilon,
                       options_.seed)
                 : ml::CreateClassifier(scenario_.model,
                                        ml::Hyperparameters());
  ScratchLease scratch(*this);
  scenario_.split.train.GatherInto(features, &scratch->train_x);
  DFS_RETURN_IF_ERROR(
      model->Fit(scratch->train_x, scenario_.split.train.labels()));
  auto native = model->FeatureImportances();
  if (native.has_value()) return *native;
  // Fallback: permutation importance on the validation split (the costly
  // path the paper attributes to NB under RFE).
  scenario_.split.validation.GatherInto(features, &scratch->validation_x);
  return ml::PermutationImportance(*model, scratch->validation_x,
                                   scenario_.split.validation.labels(),
                                   /*repeats=*/1, rng_);
}

RunResult DfsEngine::Run(fs::FeatureSelectionStrategy& strategy) {
  // Reset per-run state.
  result_ = RunResult();
  cache_.Clear();
  success_found_ = false;
  best_objective_ = 1e18;
  cancel_observed_.reset();
  cancel_seen_.store(false, std::memory_order_release);
  deadline_ =
      Deadline::AfterSeconds(scenario_.constraint_set.max_search_seconds);
  stopwatch_.Restart();

  // Per-strategy instruments ("strategy.<label>.*") attribute evaluation
  // counts and timing to the strategy driving this run; the lookup cost is
  // once per run, not per evaluation.
  EngineMetrics& metrics = EngineMetrics::Get();
  auto& registry = obs::MetricsRegistry::Global();
  const std::string label = obs::SanitizeLabel(strategy.name());
  strategy_evaluations_ =
      &registry.counter("strategy." + label + ".evaluations");
  strategy_eval_seconds_ =
      &registry.histogram("strategy." + label + ".evaluation_seconds");
  registry.counter("strategy." + label + ".runs").Increment();
  metrics.runs.Increment();
  obs::TraceSpan run_span("engine.run", strategy.name());

  strategy.Run(*this);

  strategy_evaluations_ = nullptr;
  strategy_eval_seconds_ = nullptr;

  result_.cancelled = ExternallyCancelled();
  metrics.run_seconds.Record(stopwatch_.ElapsedSeconds());
  registry.histogram("strategy." + label + ".run_seconds")
      .Record(stopwatch_.ElapsedSeconds());
  if (result_.cancelled) {
    metrics.cancellations.Increment();
    if (cancel_observed_.has_value()) {
      metrics.cancel_latency_seconds.Record(
          cancel_observed_->ElapsedSeconds());
    }
  }
  if (!success_found_) {
    result_.search_seconds = stopwatch_.ElapsedSeconds();
    result_.timed_out = !result_.cancelled && deadline_.Expired();
    result_.search_exhausted = !result_.timed_out && !result_.cancelled;
  } else if (options_.maximize_f1_utility) {
    // Utility mode runs to the deadline; the reported time is the full
    // search time.
    result_.search_seconds = stopwatch_.ElapsedSeconds();
  }
  // Measure the best subset on test once when the search never did: the
  // Table-4 failure analysis, and successes served from a shared L2 cache
  // (only the validation-side outcome is spilled — docs/CACHE.md). A
  // cancelled run skips it — cancellation promises a prompt return, and
  // the extra training would delay it by another evaluation.
  if (!result_.cancelled && !result_.selected.empty() &&
      fs::CountSelected(result_.selected) > 0 &&
      result_.best_distance_test >= 1e17) {
    const std::vector<int> features = fs::MaskToIndices(result_.selected);
    ScratchLease scratch(*this);
    auto model = TrainModel(features, *scratch);
    if (model.ok()) {
      Rng final_rng(EvalSeed(result_.selected));
      scenario_.split.test.GatherInto(features, &scratch->test_x);
      result_.test_values =
          Measure(**model, features, scenario_.split.test, scratch->test_x,
                  final_rng, *scratch);
      result_.best_distance_test =
          scenario_.constraint_set.Distance(result_.test_values);
      result_.test_f1 = result_.test_values.f1;
    }
  }
  if (result_.success) metrics.successes.Increment();
  return result_;
}

}  // namespace dfs::core
