#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "core/suite_version.h"
#include "data/benchmark_suite.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace dfs::core {
namespace {

uint64_t HashMix(uint64_t hash, uint64_t value) {
  hash ^= value + 0x9E3779B97F4A7C15ULL + (hash << 6) + (hash >> 2);
  return hash;
}

uint64_t HashDouble(uint64_t hash, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return HashMix(hash, bits);
}

ml::ModelKind ModelFromString(const std::string& name) {
  if (name == "LR") return ml::ModelKind::kLogisticRegression;
  if (name == "NB") return ml::ModelKind::kNaiveBayes;
  if (name == "DT") return ml::ModelKind::kDecisionTree;
  return ml::ModelKind::kLinearSvm;
}

std::string OptToString(const std::optional<double>& value) {
  return value.has_value() ? FormatDouble(*value, 9) : "-";
}

std::optional<double> OptFromString(const std::string& text) {
  if (text == "-") return std::nullopt;
  return std::atof(text.c_str());
}

}  // namespace

ExperimentConfig::ExperimentConfig() {
  strategies = fs::AllStrategiesWithBaseline();
  // Scaled-down attack so safety-constrained evaluations stay interactive.
  robustness.max_attacked_rows = 12;
  robustness.attack.max_queries = 120;
}

uint64_t ExperimentConfig::Hash() const {
  uint64_t hash = 0xDF5DF5DF5ULL + kSuiteVersion;
  hash = HashMix(hash, static_cast<uint64_t>(num_scenarios));
  hash = HashMix(hash, use_hpo ? 1 : 0);
  hash = HashMix(hash, utility_mode ? 1 : 0);
  hash = HashMix(hash, seed);
  hash = HashDouble(hash, time_scale);
  hash = HashDouble(hash, row_scale);
  hash = HashDouble(hash, sampler.min_search_seconds);
  hash = HashDouble(hash, sampler.max_search_seconds);
  hash = HashDouble(hash, sampler.optional_probability);
  hash = HashMix(hash, static_cast<uint64_t>(robustness.max_attacked_rows));
  hash = HashMix(hash, static_cast<uint64_t>(robustness.attack.max_queries));
  for (fs::StrategyId id : strategies) {
    hash = HashMix(hash, static_cast<uint64_t>(id) + 1);
  }
  return hash;
}

bool ScenarioRecord::Satisfiable() const {
  for (const auto& outcome : outcomes) {
    if (outcome.success) return true;
  }
  return false;
}

const StrategyOutcome* ScenarioRecord::OutcomeOf(fs::StrategyId id) const {
  for (const auto& outcome : outcomes) {
    if (outcome.id == id) return &outcome;
  }
  return nullptr;
}

StatusOr<ExperimentPool> ExperimentPool::Run(const ExperimentConfig& config,
                                             bool verbose) {
  ExperimentPool pool;
  pool.config_ = config;

  // Phase 1 (serial): sample every scenario from the shared sampler RNG and
  // generate each benchmark dataset exactly once. Sampling order is the
  // contract that keeps scenario s identical regardless of parallelism.
  Rng sampler_rng(config.seed);
  std::vector<std::optional<data::Dataset>> datasets(data::BenchmarkSize());
  std::vector<SampledScenario> sampled_scenarios;
  sampled_scenarios.reserve(config.num_scenarios);
  for (int s = 0; s < config.num_scenarios; ++s) {
    SamplerOptions sampler = config.sampler;
    sampler.min_search_seconds *= config.time_scale;
    sampler.max_search_seconds *= config.time_scale;
    SampledScenario sampled =
        SampleScenario(data::BenchmarkSize(), sampler, sampler_rng);
    auto& dataset_slot = datasets[sampled.dataset_index];
    if (!dataset_slot.has_value()) {
      DFS_ASSIGN_OR_RETURN(
          auto dataset,
          data::GenerateBenchmarkDataset(sampled.dataset_index, config.seed,
                                         config.row_scale));
      dataset_slot = std::move(dataset);
    }
    sampled_scenarios.push_back(std::move(sampled));
  }

  // Phase 2 (parallel): each scenario runs independently — it has its own
  // derived seeds and its own engine — as one task on a pool of the
  // process thread budget. Every engine borrows that same pool for its
  // EvaluateBatch sweeps, so the budget is shared, never multiplied: while
  // scenarios are still queued, free threads start them, and once the
  // queue drains they run the batches of the scenarios still going (the
  // heavy tail). Records land in a pre-sized vector indexed by scenario
  // id, so results are positionally identical to the serial order no
  // matter which scenario finishes first.
  ThreadPool threads(HardwareThreadBudget());
  pool.records_.resize(config.num_scenarios);
  std::vector<Status> statuses(config.num_scenarios, OkStatus());

  const auto run_scenario = [&](int s) {
    const SampledScenario& sampled = sampled_scenarios[s];
    const data::Dataset& dataset = *datasets[sampled.dataset_index];

    ScenarioRecord record;
    record.scenario_id = s;
    record.dataset_index = sampled.dataset_index;
    record.dataset_name = dataset.name();
    record.model = sampled.model;
    record.constraint_set = sampled.constraint_set;
    record.rows = dataset.num_rows();
    record.features = dataset.num_features();

    Rng split_rng(config.seed * 7919 + s);
    auto scenario = MakeScenario(dataset, sampled.model,
                                 sampled.constraint_set, split_rng);
    if (!scenario.ok()) {
      statuses[s] = scenario.status();
      return;
    }

    EngineOptions engine_options;
    engine_options.use_hpo = config.use_hpo;
    engine_options.maximize_f1_utility = config.utility_mode;
    engine_options.robustness = config.robustness;
    engine_options.seed = config.seed * 104729 + s;
    engine_options.pool = &threads;
    DfsEngine engine(*scenario, engine_options);

    for (size_t i = 0; i < config.strategies.size(); ++i) {
      const fs::StrategyId id = config.strategies[i];
      auto strategy =
          fs::CreateStrategy(id, engine_options.seed * 31 + i + 1);
      const RunResult result = engine.Run(*strategy);
      StrategyOutcome outcome;
      outcome.id = id;
      outcome.success = result.success;
      outcome.seconds = result.search_seconds;
      outcome.distance_validation = result.best_distance_validation;
      outcome.distance_test = result.best_distance_test;
      outcome.test_f1 = result.test_f1;
      outcome.timed_out = result.timed_out;
      outcome.search_exhausted = result.search_exhausted;
      outcome.evaluations = result.evaluations;
      record.outcomes.push_back(outcome);
    }
    if (verbose) {
      int successes = 0;
      for (const auto& outcome : record.outcomes) {
        successes += outcome.success ? 1 : 0;
      }
      // Completion order scrambles under parallelism; the scenario id keeps
      // the lines attributable.
      DFS_LOG(ERROR) << "scenario " << s + 1 << "/" << config.num_scenarios
                     << " [" << record.dataset_name << ", "
                     << ml::ModelKindToString(record.model) << ", "
                     << record.constraint_set.ToString() << "] solved by "
                     << successes << "/" << record.outcomes.size();
    }
    pool.records_[s] = std::move(record);
  };
  for (int s = 0; s < config.num_scenarios; ++s) {
    threads.Schedule([&run_scenario, s] { run_scenario(s); });
  }
  threads.Wait();  // blocks without helping: the workers are the budget

  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return pool;
}

StatusOr<ExperimentPool> ExperimentPool::RunOrLoad(
    const ExperimentConfig& config, const std::string& cache_path,
    bool verbose) {
  if (std::filesystem::exists(cache_path)) {
    auto loaded = LoadCsv(cache_path, config);
    if (loaded.ok()) return loaded;
    DFS_LOG(WARNING) << "stale cache " << cache_path << " ("
                     << loaded.status().ToString() << "), recomputing";
  }
  DFS_ASSIGN_OR_RETURN(ExperimentPool pool, Run(config, verbose));
  std::filesystem::path path(cache_path);
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  DFS_RETURN_IF_ERROR(pool.SaveCsv(cache_path));
  return pool;
}

Status ExperimentPool::SaveCsv(const std::string& path) const {
  CsvTable table;
  table.header = {"config_hash", "scenario_id", "dataset_index",
                  "dataset_name", "model", "min_f1", "max_search_seconds",
                  "max_feature_fraction", "min_eo", "min_safety",
                  "privacy_epsilon", "rows", "features", "strategy",
                  "success", "seconds", "distance_validation",
                  "distance_test", "test_f1", "timed_out",
                  "search_exhausted", "evaluations"};
  const std::string hash = std::to_string(config_.Hash());
  for (const auto& record : records_) {
    for (const auto& outcome : record.outcomes) {
      table.rows.push_back({
          hash,
          std::to_string(record.scenario_id),
          std::to_string(record.dataset_index),
          record.dataset_name,
          ml::ModelKindToString(record.model),
          FormatDouble(record.constraint_set.min_f1, 9),
          FormatDouble(record.constraint_set.max_search_seconds, 9),
          OptToString(record.constraint_set.max_feature_fraction),
          OptToString(record.constraint_set.min_equal_opportunity),
          OptToString(record.constraint_set.min_safety),
          OptToString(record.constraint_set.privacy_epsilon),
          std::to_string(record.rows),
          std::to_string(record.features),
          fs::StrategyIdToString(outcome.id),
          outcome.success ? "1" : "0",
          FormatDouble(outcome.seconds, 9),
          FormatDouble(outcome.distance_validation, 9),
          FormatDouble(outcome.distance_test, 9),
          FormatDouble(outcome.test_f1, 9),
          outcome.timed_out ? "1" : "0",
          outcome.search_exhausted ? "1" : "0",
          std::to_string(outcome.evaluations),
      });
    }
  }
  return WriteCsvFile(table, path);
}

StatusOr<ExperimentPool> ExperimentPool::LoadCsv(
    const std::string& path, const ExperimentConfig& config) {
  DFS_ASSIGN_OR_RETURN(CsvTable table, ReadCsvFile(path));
  const std::string expected_hash = std::to_string(config.Hash());

  ExperimentPool pool;
  pool.config_ = config;
  ScenarioRecord* current = nullptr;
  for (const auto& row : table.rows) {
    if (row[0] != expected_hash) {
      return FailedPreconditionError("cache config hash mismatch");
    }
    const int scenario_id = std::atoi(row[1].c_str());
    if (current == nullptr || current->scenario_id != scenario_id) {
      ScenarioRecord record;
      record.scenario_id = scenario_id;
      record.dataset_index = std::atoi(row[2].c_str());
      record.dataset_name = row[3];
      record.model = ModelFromString(row[4]);
      record.constraint_set.min_f1 = std::atof(row[5].c_str());
      record.constraint_set.max_search_seconds = std::atof(row[6].c_str());
      record.constraint_set.max_feature_fraction = OptFromString(row[7]);
      record.constraint_set.min_equal_opportunity = OptFromString(row[8]);
      record.constraint_set.min_safety = OptFromString(row[9]);
      record.constraint_set.privacy_epsilon = OptFromString(row[10]);
      record.rows = std::atoi(row[11].c_str());
      record.features = std::atoi(row[12].c_str());
      pool.records_.push_back(std::move(record));
      current = &pool.records_.back();
    }
    StrategyOutcome outcome;
    DFS_ASSIGN_OR_RETURN(outcome.id, fs::StrategyIdFromString(row[13]));
    outcome.success = row[14] == "1";
    outcome.seconds = std::atof(row[15].c_str());
    outcome.distance_validation = std::atof(row[16].c_str());
    outcome.distance_test = std::atof(row[17].c_str());
    outcome.test_f1 = std::atof(row[18].c_str());
    outcome.timed_out = row[19] == "1";
    outcome.search_exhausted = row[20] == "1";
    outcome.evaluations = std::atoi(row[21].c_str());
    current->outcomes.push_back(outcome);
  }
  if (static_cast<int>(pool.records_.size()) != config.num_scenarios) {
    return FailedPreconditionError("cache scenario count mismatch");
  }
  return pool;
}

void ApplyEnvironmentOverrides(ExperimentConfig& config) {
  if (const char* env = std::getenv("DFS_SCENARIOS")) {
    const int value = std::atoi(env);
    if (value > 0) config.num_scenarios = value;
  }
  if (const char* env = std::getenv("DFS_TIME_SCALE")) {
    const double value = std::atof(env);
    if (value > 0) config.time_scale = value;
  }
  if (const char* env = std::getenv("DFS_DATA_SCALE")) {
    const double value = std::atof(env);
    if (value > 0) config.row_scale = value;
  }
  if (const char* env = std::getenv("DFS_SEED")) {
    config.seed = static_cast<uint64_t>(std::atoll(env));
  }
}

}  // namespace dfs::core
