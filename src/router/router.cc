#include "router/router.h"

#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "router/replay.h"
#include "util/file.h"
#include "util/logging.h"

namespace dfs::router {
namespace {

/// dfs::obs instruments of the router (registry: docs/PROTOCOL.md). The
/// counters reconcile with RouterStats at quiescence; the histograms hold
/// what the counters cannot: the cost distribution of the landmark-CV
/// featurization and of the background refits.
struct RouterMetrics {
  obs::Counter& decisions;
  obs::Counter& explored;
  obs::Counter& portfolio;
  obs::Counter& outcomes;
  obs::Counter& refits;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Gauge& generation;
  obs::Gauge& buffer_depth;
  obs::Histogram& featurize_seconds;
  obs::Histogram& refit_seconds;

  static RouterMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Global();
    static RouterMetrics* metrics = new RouterMetrics{
        registry.counter("router.decisions"),
        registry.counter("router.explored"),
        registry.counter("router.portfolio"),
        registry.counter("router.outcomes"),
        registry.counter("router.refits"),
        registry.counter("router.feature_cache_hits"),
        registry.counter("router.feature_cache_misses"),
        registry.gauge("router.generation"),
        registry.gauge("router.buffer_depth"),
        registry.histogram("router.featurize_seconds"),
        registry.histogram("router.refit_seconds"),
    };
    return *metrics;
  }
};

/// %.17g round-trips doubles exactly (the snapshot must restore the exact
/// feature values the trace's probabilities were computed from).
std::string FormatDouble(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

// ---------------------------------------------------------------------------
// ReplayBuffer

ReplayBuffer::ReplayBuffer(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void ReplayBuffer::Append(core::OutcomeRecord record) {
  util::MutexLock lock(mu_);
  records_.push_back(std::move(record));
  while (records_.size() > capacity_) records_.pop_front();
  ++total_;
}

std::vector<core::OutcomeRecord> ReplayBuffer::Records() const {
  util::MutexLock lock(mu_);
  return {records_.begin(), records_.end()};
}

size_t ReplayBuffer::depth() const {
  util::MutexLock lock(mu_);
  return records_.size();
}

size_t ReplayBuffer::capacity() const {
  util::MutexLock lock(mu_);
  return capacity_;
}

uint64_t ReplayBuffer::total_appended() const {
  util::MutexLock lock(mu_);
  return total_;
}

void ReplayBuffer::Reset(size_t capacity,
                         std::vector<core::OutcomeRecord> records) {
  util::MutexLock lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  records_.assign(std::make_move_iterator(records.begin()),
                  std::make_move_iterator(records.end()));
  while (records_.size() > capacity_) records_.pop_front();
}

// ---------------------------------------------------------------------------
// FeatureCache

FeatureCache::FeatureCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

bool FeatureCache::Lookup(uint64_t fingerprint,
                          core::ScenarioFeatures* features) const {
  util::MutexLock lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  *features = it->second;
  return true;
}

bool FeatureCache::Peek(uint64_t fingerprint,
                        core::ScenarioFeatures* features) const {
  util::MutexLock lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return false;
  *features = it->second;
  return true;
}

void FeatureCache::Insert(uint64_t fingerprint,
                          const core::ScenarioFeatures& features) {
  util::MutexLock lock(mu_);
  auto [it, inserted] = entries_.try_emplace(fingerprint, features);
  if (!inserted) return;  // a concurrent featurize won; values are equal
  order_.push_back(fingerprint);
  while (entries_.size() > capacity_) {
    entries_.erase(order_.front());
    order_.pop_front();
  }
}

size_t FeatureCache::size() const {
  util::MutexLock lock(mu_);
  return entries_.size();
}

uint64_t FeatureCache::hits() const {
  util::MutexLock lock(mu_);
  return hits_;
}

uint64_t FeatureCache::misses() const {
  util::MutexLock lock(mu_);
  return misses_;
}

std::vector<std::pair<uint64_t, core::ScenarioFeatures>>
FeatureCache::Entries() const {
  util::MutexLock lock(mu_);
  std::vector<std::pair<uint64_t, core::ScenarioFeatures>> entries;
  entries.reserve(order_.size());
  for (const uint64_t fingerprint : order_) {
    auto it = entries_.find(fingerprint);
    if (it != entries_.end()) entries.emplace_back(fingerprint, it->second);
  }
  return entries;
}

void FeatureCache::Reset(
    size_t capacity,
    std::vector<std::pair<uint64_t, core::ScenarioFeatures>> entries) {
  util::MutexLock lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  entries_.clear();
  order_.clear();
  for (auto& [fingerprint, features] : entries) {
    if (entries_.try_emplace(fingerprint, std::move(features)).second) {
      order_.push_back(fingerprint);
    }
  }
  while (entries_.size() > capacity_) {
    entries_.erase(order_.front());
    order_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// StrategyRouter

StrategyRouter::StrategyRouter(RouterOptions options)
    : options_(std::move(options)),
      cache_(options_.feature_cache_capacity),
      buffer_(options_.replay_capacity) {
  auto policy = CreatePolicy(options_.policy, options_.policy_options);
  if (!policy.ok()) {
    DFS_LOG(ERROR) << "router: " << policy.status().ToString()
                   << "; falling back to the static policy";
    options_.policy = "static";
    policy = CreatePolicy(options_.policy, options_.policy_options);
  }
  policy_ = std::move(*policy);
  auto fallback = fs::StrategyIdFromString(options_.default_strategy);
  if (fallback.ok()) {
    fallback_ = *fallback;
  } else {
    DFS_LOG(ERROR) << "router: unknown default strategy '"
                   << options_.default_strategy << "'; using SFFS(NR)";
    options_.default_strategy = "SFFS(NR)";
    fallback_ = fs::StrategyId::kSffs;
  }
  refit_thread_ = std::thread([this] { RefitLoop(); });
}

StrategyRouter::~StrategyRouter() {
  {
    util::MutexLock lock(refit_mu_);
    stop_ = true;
  }
  refit_cv_.NotifyOne();
  if (refit_thread_.joinable()) refit_thread_.join();
}

uint64_t StrategyRouter::DecisionSeed(uint64_t root_seed, uint64_t sequence) {
  return SplitMix64(root_seed ^ SplitMix64(sequence + 1));
}

RouteDecision StrategyRouter::DeriveDecision(
    const RouterPolicy& policy,
    const std::shared_ptr<const core::DfsOptimizer>& optimizer,
    const RouterOptions& options, fs::StrategyId fallback,
    const core::ScenarioFeatures* features, uint64_t decision_seed) const {
  RouteDecision decision;
  decision.decision_seed = decision_seed;
  decision.policy = policy.name();
  decision.featurized = features != nullptr;

  RouteContext context;
  context.fallback = fallback;
  context.exploration =
      options.exploration.empty() ? fs::AllStrategies() : options.exploration;
  if (optimizer != nullptr && features != nullptr) {
    auto probabilities = optimizer->PredictProbabilities(*features);
    if (probabilities.ok()) {
      context.candidates = optimizer->strategies();
      context.probabilities = *std::move(probabilities);
    } else {
      DFS_LOG(WARNING) << "router: prediction failed: "
                       << probabilities.status().ToString();
    }
  }

  Rng rng(decision_seed);
  const PolicyChoice choice = policy.Decide(context, rng);
  decision.chosen = choice.chosen;
  decision.explored = choice.explored;
  decision.portfolio = choice.portfolio;
  decision.members = choice.members;
  decision.probabilities.reserve(context.candidates.size());
  for (fs::StrategyId id : context.candidates) {
    decision.probabilities.emplace_back(id, context.probabilities[id]);
  }
  return decision;
}

bool StrategyRouter::LookupOrFeaturize(
    uint64_t fingerprint, const data::Dataset& dataset, ml::ModelKind model,
    const constraints::ConstraintSet& constraint_set,
    const core::OptimizerOptions& optimizer_options,
    core::ScenarioFeatures* features) {
  RouterMetrics& metrics = RouterMetrics::Get();
  if (cache_.Lookup(fingerprint, features)) {
    metrics.cache_hits.Increment();
    return true;
  }
  metrics.cache_misses.Increment();
  // The landmark CV is the expensive part — outside every router lock.
  // FeaturizeScenario is deterministic, so a concurrent miss on the same
  // fingerprint computes the same values and Insert keeps the first.
  obs::ScopedTimer timer(metrics.featurize_seconds);
  auto featurized =
      core::FeaturizeScenario(dataset, model, constraint_set,
                              optimizer_options);
  if (!featurized.ok()) {
    timer.Cancel();
    DFS_LOG(WARNING) << "router: featurization failed: "
                     << featurized.status().ToString();
    return false;
  }
  *features = *std::move(featurized);
  cache_.Insert(fingerprint, *features);
  return true;
}

RouteDecision StrategyRouter::Route(
    const data::Dataset& dataset, const std::string& dataset_name,
    ml::ModelKind model, const constraints::ConstraintSet& constraint_set) {
  std::shared_ptr<const RouterPolicy> policy;
  std::shared_ptr<const core::DfsOptimizer> optimizer;
  RouterOptions options;
  fs::StrategyId fallback;
  uint64_t sequence, generation;
  {
    util::MutexLock lock(mu_);
    policy = policy_;
    optimizer = optimizer_;
    options = options_;
    fallback = fallback_;
    generation = generation_;
    sequence = sequence_++;
  }
  const uint64_t fingerprint = core::ScenarioFingerprint(
      dataset_name, dataset.num_rows(), dataset.num_features(), model,
      constraint_set);

  // Featurize only when someone can use the features: a loaded optimizer
  // (probabilities) or the online loop (training data). A static router
  // with learning off routes in microseconds.
  core::ScenarioFeatures features;
  bool featurized = false;
  if (optimizer != nullptr || options.refit_every > 0) {
    featurized = LookupOrFeaturize(fingerprint, dataset, model,
                                   constraint_set, options.optimizer_options,
                                   &features);
  }

  RouteDecision decision =
      DeriveDecision(*policy, optimizer, options, fallback,
                     featurized ? &features : nullptr,
                     DecisionSeed(options.seed, sequence));
  decision.sequence = sequence;
  decision.generation = generation;
  decision.fingerprint = fingerprint;
  if (featurized) decision.features = features;

  RecordDecision(decision);
  EmitTrace(decision);
  return decision;
}

void StrategyRouter::RecordDecision(const RouteDecision& decision) {
  RouterMetrics& metrics = RouterMetrics::Get();
  metrics.decisions.Increment();
  if (decision.explored) metrics.explored.Increment();
  if (decision.portfolio) metrics.portfolio.Increment();
  util::MutexLock lock(stats_mu_);
  if (decision.explored) ++explored_total_;
  if (decision.portfolio) ++portfolio_total_;
  ++routes_[decision.chosen];
  // Per-strategy route counters are a dynamic family ("router.routes.<label>"
  // in the registry); the reference is cached per strategy so the hot path
  // registers each name once.
  obs::Counter*& counter = route_counters_[decision.chosen];
  if (counter == nullptr) {
    counter = &obs::MetricsRegistry::Global().counter(
        "router.routes." +
        obs::SanitizeLabel(fs::StrategyIdToString(decision.chosen)));
  }
  counter->Increment();
}

void StrategyRouter::EmitTrace(const RouteDecision& decision) const {
  if (!obs::TraceWriter::enabled()) return;
  obs::TraceSpan span("router.decision", DecisionDetail(decision));
}

void StrategyRouter::ReportOutcome(const RouteDecision& decision,
                                   fs::StrategyId ran, bool success) {
  // No features → nothing to train on; portfolio → the outcome is the
  // race's, not attributable to one member.
  if (!decision.featurized || decision.portfolio) return;
  RouterMetrics& metrics = RouterMetrics::Get();
  buffer_.Append({decision.fingerprint, decision.features, ran, success});
  metrics.outcomes.Increment();
  metrics.buffer_depth.Set(static_cast<int64_t>(buffer_.depth()));

  int refit_every;
  {
    util::MutexLock lock(mu_);
    refit_every = options_.refit_every;
  }
  if (refit_every <= 0) return;
  bool fire = false;
  {
    util::MutexLock lock(refit_mu_);
    if (++outcomes_since_refit_ >= refit_every) {
      outcomes_since_refit_ = 0;
      refit_pending_ = true;
      fire = true;
    }
  }
  if (fire) refit_cv_.NotifyOne();
}

void StrategyRouter::InstallOptimizer(core::DfsOptimizer optimizer) {
  util::MutexLock lock(mu_);
  optimizer_ =
      std::make_shared<const core::DfsOptimizer>(std::move(optimizer));
  ++generation_;
  RouterMetrics::Get().generation.Set(static_cast<int64_t>(generation_));
}

void StrategyRouter::RefitLoop() {
  while (true) {
    {
      util::MutexLock lock(refit_mu_);
      while (!refit_pending_ && !stop_) refit_cv_.Wait(lock);
      if (stop_) return;
      refit_pending_ = false;
      refit_inflight_ = true;
    }
    const bool trained = DoRefit();
    {
      util::MutexLock lock(refit_mu_);
      refit_inflight_ = false;
      if (trained) ++refits_done_;
    }
    // Every attempt (even a failed one) wakes waiters: WaitForRefits
    // re-checks its count and DrainRefits re-checks quiescence.
    refit_done_cv_.NotifyAll();
  }
}

bool StrategyRouter::DoRefit() {
  RouterMetrics& metrics = RouterMetrics::Get();
  const std::vector<core::OutcomeRecord> records = buffer_.Records();
  if (records.empty()) return false;
  std::set<fs::StrategyId> seen;
  for (const core::OutcomeRecord& record : records) {
    seen.insert(record.strategy);
  }
  // Train only over strategies with observed outcomes: Train scores a
  // strategy missing from an example as a failure, so including never-run
  // strategies would poison them with fabricated negatives.
  const std::vector<fs::StrategyId> strategies(seen.begin(), seen.end());
  const std::vector<core::DfsOptimizer::TrainingExample> examples =
      core::ExamplesFromOutcomeRecords(records);

  core::OptimizerOptions optimizer_options;
  {
    util::MutexLock lock(mu_);
    optimizer_options = options_.optimizer_options;
  }
  obs::ScopedTimer timer(metrics.refit_seconds, &metrics.refits);
  core::DfsOptimizer optimizer(optimizer_options);
  if (Status status = optimizer.Train(examples, strategies); !status.ok()) {
    timer.Cancel();
    DFS_LOG(WARNING) << "router: refit failed: " << status.ToString();
    return false;
  }
  {
    util::MutexLock lock(mu_);
    optimizer_ =
        std::make_shared<const core::DfsOptimizer>(std::move(optimizer));
    ++generation_;
    metrics.generation.Set(static_cast<int64_t>(generation_));
  }
  return true;
}

RouterStats StrategyRouter::Stats() const {
  RouterStats stats;
  {
    util::MutexLock lock(mu_);
    stats.policy = policy_->name();
    stats.decisions = sequence_;
    stats.generation = generation_;
    stats.optimizer_loaded = optimizer_ != nullptr;
  }
  {
    util::MutexLock lock(stats_mu_);
    stats.explored = explored_total_;
    stats.portfolio = portfolio_total_;
    for (const auto& [id, count] : routes_) {
      stats.routes[fs::StrategyIdToString(id)] = count;
    }
  }
  {
    util::MutexLock lock(refit_mu_);
    stats.refits = refits_done_;
  }
  stats.outcomes = buffer_.total_appended();
  stats.buffer_depth = buffer_.depth();
  stats.buffer_capacity = buffer_.capacity();
  stats.feature_cache_size = cache_.size();
  stats.feature_cache_hits = cache_.hits();
  stats.feature_cache_misses = cache_.misses();
  return stats;
}

bool StrategyRouter::WaitForRefits(uint64_t count,
                                   double timeout_seconds) const {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  util::MutexLock lock(refit_mu_);
  while (refits_done_ < count) {
    if (!refit_done_cv_.WaitUntil(lock, deadline)) {
      return refits_done_ >= count;
    }
  }
  return true;
}

bool StrategyRouter::DrainRefits(double timeout_seconds) const {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  util::MutexLock lock(refit_mu_);
  while (refit_pending_ || refit_inflight_) {
    if (!refit_done_cv_.WaitUntil(lock, deadline)) {
      return !refit_pending_ && !refit_inflight_;
    }
  }
  return true;
}

StatusOr<RouteDecision> StrategyRouter::ReplayDecision(
    uint64_t fingerprint, uint64_t decision_seed, bool featurized) const {
  std::shared_ptr<const RouterPolicy> policy;
  std::shared_ptr<const core::DfsOptimizer> optimizer;
  RouterOptions options;
  fs::StrategyId fallback;
  uint64_t generation;
  {
    util::MutexLock lock(mu_);
    policy = policy_;
    optimizer = optimizer_;
    options = options_;
    fallback = fallback_;
    generation = generation_;
  }
  core::ScenarioFeatures features;
  const core::ScenarioFeatures* features_ptr = nullptr;
  if (featurized) {
    // Peek, not Lookup: replay must not perturb the cache statistics.
    if (!cache_.Peek(fingerprint, &features)) {
      return NotFoundError("fingerprint " + std::to_string(fingerprint) +
                           " is not in the snapshot's feature cache");
    }
    features_ptr = &features;
  }
  RouteDecision decision = DeriveDecision(*policy, optimizer, options,
                                          fallback, features_ptr,
                                          decision_seed);
  decision.fingerprint = fingerprint;
  decision.generation = generation;
  return decision;
}

RouterOptions StrategyRouter::options() const {
  util::MutexLock lock(mu_);
  return options_;
}

// ---------------------------------------------------------------------------
// Snapshot / restore

StatusOr<std::string> StrategyRouter::Serialize() const {
  RouterOptions options;
  std::shared_ptr<const core::DfsOptimizer> optimizer;
  uint64_t sequence, generation;
  {
    util::MutexLock lock(mu_);
    options = options_;
    optimizer = optimizer_;
    sequence = sequence_;
    generation = generation_;
  }
  std::ostringstream out;
  out << "dfs-router v1\n";
  out << "policy " << options.policy << "\n";
  out << "epsilon " << FormatDouble(options.policy_options.epsilon) << "\n";
  out << "confidence_threshold "
      << FormatDouble(options.policy_options.confidence_threshold) << "\n";
  out << "portfolio_top_k " << options.policy_options.portfolio_top_k << "\n";
  out << "refit_every " << options.refit_every << "\n";
  out << "replay_capacity " << options.replay_capacity << "\n";
  out << "feature_cache_capacity " << options.feature_cache_capacity << "\n";
  out << "seed " << options.seed << "\n";
  out << "sequence " << sequence << "\n";
  out << "generation " << generation << "\n";
  out << "default_strategy " << options.default_strategy << "\n";
  out << "exploration";
  for (fs::StrategyId id : options.exploration) {
    out << " " << static_cast<int>(id);
  }
  out << "\n";

  const auto entries = cache_.Entries();
  out << "cache " << entries.size() << "\n";
  for (const auto& [fingerprint, features] : entries) {
    out << fingerprint << " " << features.values.size();
    for (const double value : features.values) {
      out << " " << FormatDouble(value);
    }
    out << "\n";
  }

  const auto records = buffer_.Records();
  out << "buffer " << records.size() << "\n";
  for (const core::OutcomeRecord& record : records) {
    out << record.fingerprint << " " << static_cast<int>(record.strategy)
        << " " << (record.success ? 1 : 0) << " "
        << record.features.values.size();
    for (const double value : record.features.values) {
      out << " " << FormatDouble(value);
    }
    out << "\n";
  }

  if (optimizer != nullptr) {
    DFS_ASSIGN_OR_RETURN(const std::string blob, optimizer->Serialize());
    out << "optimizer " << blob.size() << "\n" << blob << "\n";
  } else {
    out << "optimizer none\n";
  }
  return out.str();
}

Status StrategyRouter::RestoreState(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "dfs-router v1") {
    return InvalidArgumentError("not a serialized dfs::router snapshot");
  }
  RouterOptions options;
  options.exploration.clear();
  uint64_t sequence = 0, generation = 0;
  std::vector<std::pair<uint64_t, core::ScenarioFeatures>> cache_entries;
  std::vector<core::OutcomeRecord> records;
  std::shared_ptr<const core::DfsOptimizer> optimizer;

  const auto corrupt = [](const std::string& what) {
    return InvalidArgumentError("corrupt router snapshot: " + what);
  };

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "policy") {
      fields >> options.policy;
    } else if (key == "epsilon") {
      fields >> options.policy_options.epsilon;
    } else if (key == "confidence_threshold") {
      fields >> options.policy_options.confidence_threshold;
    } else if (key == "portfolio_top_k") {
      fields >> options.policy_options.portfolio_top_k;
    } else if (key == "refit_every") {
      fields >> options.refit_every;
    } else if (key == "replay_capacity") {
      fields >> options.replay_capacity;
    } else if (key == "feature_cache_capacity") {
      fields >> options.feature_cache_capacity;
    } else if (key == "seed") {
      fields >> options.seed;
    } else if (key == "sequence") {
      fields >> sequence;
    } else if (key == "generation") {
      fields >> generation;
    } else if (key == "default_strategy") {
      std::string rest;
      std::getline(fields, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      options.default_strategy = rest;
    } else if (key == "exploration") {
      int index;
      while (fields >> index) {
        DFS_ASSIGN_OR_RETURN(fs::StrategyId id, StrategyFromIndex(index));
        options.exploration.push_back(id);
      }
      continue;  // an empty exploration list leaves `fields` failed
    } else if (key == "cache") {
      size_t count = 0;
      fields >> count;
      if (!fields || count > (1u << 20)) return corrupt("cache count");
      for (size_t i = 0; i < count; ++i) {
        if (!std::getline(in, line)) return corrupt("truncated cache");
        std::istringstream entry(line);
        uint64_t fingerprint = 0;
        size_t dims = 0;
        entry >> fingerprint >> dims;
        if (!entry || dims > 4096) return corrupt("cache entry");
        core::ScenarioFeatures features;
        features.values.resize(dims);
        for (size_t d = 0; d < dims; ++d) entry >> features.values[d];
        if (!entry) return corrupt("cache entry values");
        cache_entries.emplace_back(fingerprint, std::move(features));
      }
    } else if (key == "buffer") {
      size_t count = 0;
      fields >> count;
      if (!fields || count > (1u << 20)) return corrupt("buffer count");
      for (size_t i = 0; i < count; ++i) {
        if (!std::getline(in, line)) return corrupt("truncated buffer");
        std::istringstream entry(line);
        uint64_t fingerprint = 0;
        int strategy = 0, success = 0;
        size_t dims = 0;
        entry >> fingerprint >> strategy >> success >> dims;
        if (!entry || dims > 4096) return corrupt("buffer record");
        core::OutcomeRecord record;
        record.fingerprint = fingerprint;
        DFS_ASSIGN_OR_RETURN(record.strategy, StrategyFromIndex(strategy));
        record.success = success != 0;
        record.features.values.resize(dims);
        for (size_t d = 0; d < dims; ++d) entry >> record.features.values[d];
        if (!entry) return corrupt("buffer record values");
        records.push_back(std::move(record));
      }
    } else if (key == "optimizer") {
      std::string token;
      fields >> token;
      if (token == "none") {
        optimizer = nullptr;
      } else {
        size_t bytes = 0;
        std::istringstream size_in(token);
        size_in >> bytes;
        if (!size_in || bytes > (1u << 28)) return corrupt("optimizer size");
        std::string blob(bytes, '\0');
        in.read(blob.data(), static_cast<std::streamsize>(bytes));
        if (!in) return corrupt("truncated optimizer blob");
        std::getline(in, line);  // consume the blob's trailing newline
        DFS_ASSIGN_OR_RETURN(core::DfsOptimizer deserialized,
                             core::DfsOptimizer::Deserialize(blob));
        optimizer = std::make_shared<const core::DfsOptimizer>(
            std::move(deserialized));
      }
    } else {
      return corrupt("unknown key '" + key + "'");
    }
    if (key != "policy" && key != "default_strategy" && !fields &&
        key != "cache" && key != "buffer" && key != "optimizer") {
      return corrupt("unreadable value for '" + key + "'");
    }
  }

  DFS_ASSIGN_OR_RETURN(auto policy,
                       CreatePolicy(options.policy, options.policy_options));
  DFS_ASSIGN_OR_RETURN(fs::StrategyId fallback,
                       fs::StrategyIdFromString(options.default_strategy));
  {
    util::MutexLock lock(mu_);
    // optimizer_options is deployment config, not snapshot state.
    options.optimizer_options = options_.optimizer_options;
    options_ = std::move(options);
    policy_ = std::move(policy);
    fallback_ = fallback;
    optimizer_ = std::move(optimizer);
    sequence_ = sequence;
    generation_ = generation;
  }
  cache_.Reset(options_.feature_cache_capacity, std::move(cache_entries));
  buffer_.Reset(options_.replay_capacity, std::move(records));
  return OkStatus();
}

Status StrategyRouter::SaveToFile(const std::string& path) const {
  DFS_ASSIGN_OR_RETURN(const std::string text, Serialize());
  return util::WriteFile(path, text);
}

Status StrategyRouter::LoadFromFile(const std::string& path) {
  DFS_ASSIGN_OR_RETURN(const std::string text, util::ReadFile(path));
  return RestoreState(text);
}

}  // namespace dfs::router
