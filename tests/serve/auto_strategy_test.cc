// "auto" resolution in the job service: a served "auto" job runs the
// installed DfsOptimizer's argmax over the job's scenario features (the two
// calls of DeclarativeFeatureSelection::SelectWithOptimizer), resolved on
// the worker, or SFFS(NR) without a usable optimizer. The suite names
// predate this design and are kept as the test inventory.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/dfs.h"
#include "core/optimizer.h"
#include "fs/registry.h"
#include "serve/server.h"
#include "testing/test_util.h"

namespace dfs::serve {
namespace {

constexpr char kDataset[] = "auto-lin";

data::Dataset AutoDataset() {
  return testing::MakeLinearDataset(200, 4, 1234);
}

std::unique_ptr<DfsServer> MakeServer(int workers = 1) {
  ServerOptions options;
  options.num_workers = workers;
  options.queue_capacity = 64;
  auto server = std::make_unique<DfsServer>(options);
  server->RegisterDataset(kDataset, AutoDataset());
  return server;
}

constraints::ConstraintSet MinF1(double min_f1) {
  constraints::ConstraintSet set;
  set.min_f1 = min_f1;
  set.max_search_seconds = 10.0;
  return set;
}

JobRequest AutoJob(double min_f1, uint64_t seed = 42) {
  JobRequest request;
  request.dataset = kDataset;
  request.strategy = "auto";
  request.constraint_set = MinF1(min_f1);
  request.seed = seed;
  return request;
}

JobResult RunJob(DfsServer& server, const JobRequest& request) {
  auto id = server.Submit(request);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  if (!id.ok()) return {};
  EXPECT_TRUE(server.WaitForTerminal(*id, 120.0).ok());
  auto result = server.GetResult(*id);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : JobResult{};
}

/// What the server computes for an "auto" job: the optimizer's argmax over
/// the job's scenario features at the default featurization settings.
fs::StrategyId ExpectedChoice(const core::DfsOptimizer& optimizer,
                              const JobRequest& request) {
  auto features = core::FeaturizeScenario(AutoDataset(), request.model,
                                          request.constraint_set,
                                          core::OptimizerOptions{});
  EXPECT_TRUE(features.ok());
  auto chosen = optimizer.Choose(*features);
  EXPECT_TRUE(chosen.ok());
  return *chosen;
}

/// An optimizer with constant labels per strategy (constant probabilities,
/// no forests): cheap enough to train in a loop.
core::DfsOptimizer ConstantOptimizer(
    const std::map<fs::StrategyId, bool>& outcomes) {
  std::vector<core::DfsOptimizer::TrainingExample> examples;
  for (int i = 0; i < 4; ++i) {
    core::DfsOptimizer::TrainingExample example;
    example.features.values.assign(core::ScenarioFeatures::Names().size(),
                                   0.1 * i);
    example.outcomes = outcomes;
    examples.push_back(std::move(example));
  }
  std::vector<fs::StrategyId> strategies;
  for (const auto& [id, success] : outcomes) strategies.push_back(id);
  core::DfsOptimizer optimizer;
  EXPECT_TRUE(optimizer.Train(examples, strategies).ok());
  return optimizer;
}

/// An optimizer whose argmax depends on the scenario: trained on this
/// file's dataset, where SFS succeeds under loose F1 floors and SBS under
/// strict ones.
core::DfsOptimizer ThresholdOptimizer() {
  const data::Dataset dataset = AutoDataset();
  std::vector<core::DfsOptimizer::TrainingExample> examples;
  for (int i = 0; i < 12; ++i) {
    const double min_f1 = 0.2 + 0.06 * i;
    core::DfsOptimizer::TrainingExample example;
    auto features = core::FeaturizeScenario(
        dataset, ml::ModelKind::kLogisticRegression, MinF1(min_f1),
        core::OptimizerOptions{});
    EXPECT_TRUE(features.ok());
    example.features = *features;
    example.outcomes[fs::StrategyId::kSfs] = min_f1 < 0.5;
    example.outcomes[fs::StrategyId::kSbs] = min_f1 >= 0.5;
    examples.push_back(std::move(example));
  }
  core::DfsOptimizer optimizer;
  EXPECT_TRUE(
      optimizer.Train(examples, {fs::StrategyId::kSfs, fs::StrategyId::kSbs})
          .ok());
  return optimizer;
}

core::DfsOptimizer Reload(const core::DfsOptimizer& optimizer) {
  auto text = optimizer.Serialize();
  EXPECT_TRUE(text.ok());
  auto loaded = core::DfsOptimizer::Deserialize(*text);
  EXPECT_TRUE(loaded.ok());
  return std::move(loaded).value();
}

std::string Name(fs::StrategyId id) { return fs::StrategyIdToString(id); }

const double kMinF1Sweep[] = {0.3, 0.45, 0.7, 0.85};

// An "auto" job on a server with an installed optimizer runs exactly the
// strategy DeclarativeFeatureSelection::SelectWithOptimizer chooses.
TEST(StaticPolicyTest, MatchesOptimizerChooseBitForBit) {
  const core::DfsOptimizer optimizer = ThresholdOptimizer();
  auto server = MakeServer();
  server->SetOptimizer(Reload(optimizer));
  std::set<std::string> served;
  for (const double min_f1 : kMinF1Sweep) {
    const JobRequest request = AutoJob(min_f1);
    const JobResult result = RunJob(*server, request);
    EXPECT_EQ(result.strategy, Name(ExpectedChoice(optimizer, request)))
        << "min_f1 " << min_f1;

    // The facade featurizes with its own seed; the server with the default
    // featurization settings.
    core::DeclarativeFeatureSelection facade(AutoDataset(),
                                             core::OptimizerOptions{}.seed);
    facade.SetConstraints(request.constraint_set);
    auto selected = facade.SelectWithOptimizer(optimizer);
    ASSERT_TRUE(selected.ok());
    EXPECT_EQ(result.strategy, selected->strategy) << "min_f1 " << min_f1;
    served.insert(result.strategy);
  }
  // The sweep crosses the optimizer's decision boundary.
  EXPECT_EQ(served, (std::set<std::string>{"SFS(NR)", "SBS(NR)"}));
}

// An installed optimizer that cannot predict (untrained) falls back to
// SFFS(NR) instead of failing the job.
TEST(StaticPolicyTest, FallsBackWithoutProbabilities) {
  auto server = MakeServer();
  server->SetOptimizer(core::DfsOptimizer{});
  const JobResult result = RunJob(*server, AutoJob(0.5));
  EXPECT_EQ(result.strategy, Name(kAutoFallback));
  EXPECT_EQ(result.strategy, "SFFS(NR)");
}

// A confident optimizer's argmax runs.
TEST(ConfidencePolicyTest, ArgmaxWhenConfident) {
  auto server = MakeServer();
  server->SetOptimizer(ConstantOptimizer(
      {{fs::StrategyId::kSfs, false}, {fs::StrategyId::kSbs, true}}));
  EXPECT_EQ(RunJob(*server, AutoJob(0.5)).strategy, "SBS(NR)");
}

// A low-confidence optimizer still runs its single argmax: the result is
// the explicit run of that one strategy, never a portfolio.
TEST(ConfidencePolicyTest, LowConfidenceRacesTopK) {
  const core::DfsOptimizer optimizer =
      ConstantOptimizer({{fs::StrategyId::kSbs, false},
                         {fs::StrategyId::kSfs, false},
                         {fs::StrategyId::kTpeChi2, false}});
  const JobRequest request = AutoJob(0.5);
  auto features = core::FeaturizeScenario(AutoDataset(), request.model,
                                          request.constraint_set,
                                          core::OptimizerOptions{});
  ASSERT_TRUE(features.ok());
  auto probabilities = optimizer.PredictProbabilities(*features);
  ASSERT_TRUE(probabilities.ok());
  for (const auto& [id, probability] : *probabilities) {
    ASSERT_LT(probability, 0.5) << Name(id);
  }

  auto server = MakeServer();
  server->SetOptimizer(Reload(optimizer));
  const JobResult served = RunJob(*server, request);
  const std::string expected = Name(ExpectedChoice(optimizer, request));
  EXPECT_EQ(served.strategy, expected);
  EXPECT_EQ(served.strategy.find("Portfolio"), std::string::npos);

  // A fresh server: a second job on this one would hit the shared cache.
  JobRequest explicit_request = request;
  explicit_request.strategy = expected;
  const JobResult explicit_result = RunJob(*MakeServer(), explicit_request);
  EXPECT_EQ(served.features, explicit_result.features);
  EXPECT_EQ(served.evaluations, explicit_result.evaluations);
}

TEST(ConfidencePolicyTest, NeverRacesASingleCandidate) {
  auto server = MakeServer();
  server->SetOptimizer(ConstantOptimizer({{fs::StrategyId::kSbs, false}}));
  EXPECT_EQ(RunJob(*server, AutoJob(0.5)).strategy, "SBS(NR)");
}

// Resolution never explores: the same request resolves, and selects, the
// same way every time, also with several workers racing.
TEST(EpsilonGreedyPolicyTest, EpsilonZeroIsStatic) {
  const core::DfsOptimizer optimizer = ThresholdOptimizer();
  auto server = MakeServer(/*workers=*/2);
  server->SetOptimizer(Reload(optimizer));
  const JobRequest request = AutoJob(0.7);
  std::vector<JobId> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = server->Submit(request);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const std::string expected = Name(ExpectedChoice(optimizer, request));
  std::vector<int> first_features;
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(server->WaitForTerminal(ids[i], 120.0).ok());
    auto result = server->GetResult(ids[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->strategy, expected);
    if (i == 0) first_features = result->features;
    EXPECT_EQ(result->features, first_features);
  }
}

// Resolution draws nothing from the job seed: requests that differ only in
// seed resolve to the same strategy.
TEST(EpsilonGreedyPolicyTest, EpsilonOneAlwaysExploresDeterministically) {
  const core::DfsOptimizer optimizer = ThresholdOptimizer();
  auto server = MakeServer();
  server->SetOptimizer(Reload(optimizer));
  const std::string expected =
      Name(ExpectedChoice(optimizer, AutoJob(0.3)));
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(RunJob(*server, AutoJob(0.3, seed)).strategy, expected)
        << "seed " << seed;
  }
}

// "auto" is the only strategy name outside the registry: the names of the
// deleted routing policies are rejected at submit.
TEST(PolicyRegistryTest, CreatePolicyByWireName) {
  auto server = MakeServer();
  for (const char* name : {"static", "confidence", "epsilon-greedy"}) {
    JobRequest request = AutoJob(0.5);
    request.strategy = name;
    auto id = server->Submit(request);
    ASSERT_FALSE(id.ok()) << name;
    EXPECT_EQ(id.status().code(), StatusCode::kNotFound) << name;
  }
  EXPECT_TRUE(server->Submit(AutoJob(0.5)).ok());
}

// Without an optimizer an "auto" job is the explicit SFFS(NR) job.
TEST(StrategyRouterTest, UnroutedDefaultMatchesServingFallback) {
  auto server = MakeServer();
  const JobRequest request = AutoJob(0.5);
  const JobResult served = RunJob(*server, request);
  JobRequest explicit_request = request;
  explicit_request.strategy = "SFFS(NR)";
  const JobResult explicit_result = RunJob(*MakeServer(), explicit_request);
  EXPECT_EQ(served.strategy, "SFFS(NR)");
  EXPECT_EQ(served.features, explicit_result.features);
  EXPECT_EQ(served.evaluations, explicit_result.evaluations);
  EXPECT_EQ(served.success, explicit_result.success);
}

// SetOptimizer takes effect for the jobs that start after it, and a second
// install replaces the first.
TEST(StrategyRouterTest, InstalledOptimizerDrivesArgmaxBitForBit) {
  auto server = MakeServer();
  EXPECT_EQ(RunJob(*server, AutoJob(0.5)).strategy, "SFFS(NR)");
  server->SetOptimizer(ConstantOptimizer(
      {{fs::StrategyId::kSfs, false}, {fs::StrategyId::kSbs, true}}));
  EXPECT_EQ(RunJob(*server, AutoJob(0.5)).strategy, "SBS(NR)");
  server->SetOptimizer(ConstantOptimizer(
      {{fs::StrategyId::kSfs, true}, {fs::StrategyId::kSbs, false}}));
  EXPECT_EQ(RunJob(*server, AutoJob(0.5)).strategy, "SFS(NR)");
}

// Outcomes never change later resolutions: satisfied and unsatisfied jobs
// interleave, and every scenario keeps resolving to the optimizer's choice.
TEST(StrategyRouterTest, OnlineLoopLearnsFromOutcomes) {
  const core::DfsOptimizer optimizer = ThresholdOptimizer();
  auto server = MakeServer();
  server->SetOptimizer(Reload(optimizer));
  const JobRequest easy = AutoJob(0.3);
  const JobRequest hard = AutoJob(0.999);
  const std::string easy_choice = Name(ExpectedChoice(optimizer, easy));
  const std::string hard_choice = Name(ExpectedChoice(optimizer, hard));
  bool saw_success = false, saw_failure = false;
  for (int round = 0; round < 3; ++round) {
    const JobResult easy_result = RunJob(*server, easy);
    const JobResult hard_result = RunJob(*server, hard);
    EXPECT_EQ(easy_result.strategy, easy_choice) << "round " << round;
    EXPECT_EQ(hard_result.strategy, hard_choice) << "round " << round;
    saw_success |= easy_result.success;
    saw_failure |= !hard_result.success;
  }
  EXPECT_TRUE(saw_success);
  EXPECT_TRUE(saw_failure);
}

// An optimizer shipped through Serialize/Deserialize re-serializes
// byte-identically, predicts the same probabilities, and resolves the same
// jobs to the same strategies.
TEST(StrategyRouterTest, SnapshotRoundTripIsByteIdentical) {
  const core::DfsOptimizer optimizer = ThresholdOptimizer();
  auto text = optimizer.Serialize();
  ASSERT_TRUE(text.ok());
  auto loaded = core::DfsOptimizer::Deserialize(*text);
  ASSERT_TRUE(loaded.ok());
  auto again = loaded->Serialize();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*text, *again);

  auto original_server = MakeServer();
  original_server->SetOptimizer(Reload(optimizer));
  auto loaded_server = MakeServer();
  loaded_server->SetOptimizer(std::move(loaded).value());
  for (const double min_f1 : kMinF1Sweep) {
    const JobRequest request = AutoJob(min_f1);
    auto features = core::FeaturizeScenario(AutoDataset(), request.model,
                                            request.constraint_set,
                                            core::OptimizerOptions{});
    ASSERT_TRUE(features.ok());
    auto reloaded = core::DfsOptimizer::Deserialize(*text);
    ASSERT_TRUE(reloaded.ok());
    EXPECT_EQ(*optimizer.PredictProbabilities(*features),
              *reloaded->PredictProbabilities(*features));
    EXPECT_EQ(RunJob(*original_server, request).strategy,
              RunJob(*loaded_server, request).strategy)
        << "min_f1 " << min_f1;
  }
}

// The same "auto" request on two fresh servers resolves to the same
// strategy and selects the same features, with and without an optimizer.
// ctest also runs this case as router.replay_selfcheck.
TEST(StrategyRouterTest, ReplayDecisionMatchesLiveTrace) {
  const core::DfsOptimizer optimizer = ThresholdOptimizer();
  for (const bool with_optimizer : {false, true}) {
    auto first = MakeServer();
    auto second = MakeServer();
    if (with_optimizer) {
      first->SetOptimizer(Reload(optimizer));
      second->SetOptimizer(Reload(optimizer));
    }
    for (const double min_f1 : {0.3, 0.7}) {
      const JobResult a = RunJob(*first, AutoJob(min_f1));
      const JobResult b = RunJob(*second, AutoJob(min_f1));
      EXPECT_EQ(a.strategy, b.strategy) << with_optimizer << " " << min_f1;
      EXPECT_EQ(a.features, b.features) << with_optimizer << " " << min_f1;
    }
  }
}

// Concurrent "auto" submits race SetOptimizer (runs under TSan via
// scripts/check.sh --sanitize): every job completes and runs the fallback
// or one of the installed optimizers' choices.
TEST(StrategyRouterChurnTest, ConcurrentRouteFeedbackRefitSnapshot) {
  auto server = MakeServer(/*workers=*/4);
  std::atomic<bool> stop{false};
  std::thread installer([&server, &stop] {
    bool prefer_sbs = false;
    while (!stop.load()) {
      server->SetOptimizer(ConstantOptimizer(
          {{fs::StrategyId::kSfs, !prefer_sbs},
           {fs::StrategyId::kSbs, prefer_sbs}}));
      prefer_sbs = !prefer_sbs;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::vector<JobId>> ids(4);
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&server, &ids, t] {
      for (int i = 0; i < 6; ++i) {
        auto id = server->Submit(AutoJob(i % 2 == 0 ? 0.3 : 0.7, 42 + t));
        ASSERT_TRUE(id.ok());
        ids[t].push_back(*id);
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  for (const auto& thread_ids : ids) {
    for (const JobId id : thread_ids) {
      ASSERT_TRUE(server->WaitForTerminal(id, 120.0).ok());
      auto result = server->GetResult(id);
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(result->strategy == "SFFS(NR)" ||
                  result->strategy == "SFS(NR)" ||
                  result->strategy == "SBS(NR)")
          << result->strategy;
    }
  }
  stop.store(true);
  installer.join();
  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.accepted, 24u);
  EXPECT_EQ(stats.completed, 24u);
}

}  // namespace
}  // namespace dfs::serve
