// Micro-benchmarks (google-benchmark): per-component costs that explain the
// macro results — ranking computation (why MCFS times out on large data),
// model training (why LR affords more evaluations than DT), the evaluation
// kernels, and two DESIGN.md ablations (evaluation cache, TPE gamma).
//
// `scripts/check.sh --bench-smoke` runs the gated subset (filter
// EvaluateUncached|EvalCache|MatVec|SquaredDistanceSpan) into the
// committed BENCH_results.json: one uncached evaluation, the eval-cache
// hit and miss rows, and the AVX2 kernel shapes. Every other row is
// measured on demand and cited from EXPERIMENTS.md or DESIGN.md.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/eval_cache.h"
#include "core/scenario.h"
#include "data/benchmark_suite.h"
#include "fs/rankings/ranking.h"
#include "fs/registry.h"
#include "fs/search/tpe.h"
#include "linalg/kernels.h"
#include "ml/classifier.h"

namespace dfs {
namespace {

const data::Dataset& TelcoDataset() {
  static const data::Dataset& dataset = *new data::Dataset([] {
    auto d = data::GenerateBenchmarkDataset(/*Telco=*/5, 3, 0.5);
    DFS_CHECK(d.ok());
    return std::move(d).value();
  }());
  return dataset;
}

// ---- Rankings -------------------------------------------------------

void BM_Ranking(benchmark::State& state) {
  const auto kind = static_cast<fs::RankerKind>(state.range(0));
  const auto ranker = fs::CreateRanker(kind);
  state.SetLabel(ranker->name());
  for (auto _ : state) {
    Rng rng(7);
    auto scores = ranker->Rank(TelcoDataset(), rng);
    benchmark::DoNotOptimize(scores);
  }
}
BENCHMARK(BM_Ranking)
    ->DenseRange(0, 6)  // all RankerKind values
    ->Unit(benchmark::kMillisecond);

// ---- Model training -------------------------------------------------

void BM_ModelFit(benchmark::State& state) {
  const auto kind = static_cast<ml::ModelKind>(state.range(0));
  state.SetLabel(ml::ModelKindToString(kind));
  const auto& dataset = TelcoDataset();
  const auto x = dataset.ToMatrix(dataset.AllFeatures());
  for (auto _ : state) {
    auto model = ml::CreateClassifier(kind, ml::Hyperparameters());
    const Status status = model->Fit(x, dataset.labels());
    benchmark::DoNotOptimize(status);
  }
}
BENCHMARK(BM_ModelFit)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

// ---- Ablation: evaluation cache (DESIGN.md) --------------------------

core::MlScenario MicroScenario() {
  Rng rng(11);
  auto scenario = core::MakeScenario(TelcoDataset(),
                                     ml::ModelKind::kLogisticRegression,
                                     constraints::ConstraintSet(), rng);
  DFS_CHECK(scenario.ok());
  return std::move(scenario).value();
}

void BM_EngineEvalCache(benchmark::State& state) {
  const bool cache = state.range(0) != 0;
  state.SetLabel(cache ? "cache on" : "cache off");
  core::MlScenario scenario = MicroScenario();
  scenario.constraint_set.min_f1 = 0.99;  // never succeed, keep evaluating
  scenario.constraint_set.max_search_seconds = 3600;
  core::EngineOptions options;
  options.enable_eval_cache = cache;

  // SFS revisits many overlapping masks through its floating evaluation
  // pattern; emulate by cycling a fixed set of masks.
  core::DfsEngine engine(scenario, options);
  class WarmupStrategy : public fs::FeatureSelectionStrategy {
   public:
    std::string name() const override { return "warmup"; }
    fs::StrategyInfo info() const override { return {}; }
    void Run(fs::EvalContext&) override {}
  } warmup;
  engine.Run(warmup);  // arms the deadline/state
  std::vector<fs::FeatureMask> masks;
  for (int f = 0; f < 8; ++f) {
    masks.push_back(fs::IndicesToMask(TelcoDataset().num_features(), {f}));
  }
  int i = 0;
  for (auto _ : state) {
    auto outcome = engine.Evaluate(masks[i++ % masks.size()]);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_EngineEvalCache)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// ---- Shared eval-cache miss path -------------------------------------

fs::FeatureMask CacheBenchMask(uint32_t id, bool resident) {
  // Unique mask per id: the id's bits select among features 1..32;
  // feature 0 tags the resident population so probe masks are disjoint
  // from it (every Lookup below is a genuine miss).
  fs::FeatureMask mask(64, 0);
  if (resident) mask[0] = 1;
  for (int b = 0; b < 32; ++b) {
    if ((id >> b) & 1u) mask[b + 1] = 1;
  }
  return mask;
}

// Cost of one negative Lookup against a populated cache — the dominant
// shared-cache operation under a served workload (most masks are new):
// the shard mutex plus one map probe.
void BM_EvalCacheMiss(benchmark::State& state) {
  core::ShardedEvalCache cache;
  fs::EvalOutcome outcome;
  outcome.evaluated = true;
  for (uint32_t id = 0; id < 4096; ++id) {
    cache.InsertPublished(CacheBenchMask(id, /*resident=*/true), outcome);
  }
  constexpr uint32_t kProbes = 1024;
  std::vector<fs::FeatureMask> probes;
  probes.reserve(kProbes);
  for (uint32_t id = 0; id < kProbes; ++id) {
    probes.push_back(CacheBenchMask(id, /*resident=*/false));
  }
  uint32_t i = 0;
  fs::EvalOutcome hit;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(probes[i++ % kProbes], &hit));
  }
}
BENCHMARK(BM_EvalCacheMiss);

// ---- One uncached wrapper evaluation --------------------------------

// Cost of a single wrapper evaluation (train + measure on validation),
// cache disabled, masks rotating so every call is fresh work. This is the
// unit the whole benchmark's wall-clock is made of, and the gated row that
// guards the warm gather/fit/predict path (scripts/bench_diff.py against
// the committed snapshot).
void BM_EvaluateUncached(benchmark::State& state) {
  core::MlScenario scenario = MicroScenario();
  scenario.constraint_set.min_f1 = 0.99;  // never succeed, keep evaluating
  scenario.constraint_set.max_search_seconds = 3600;
  core::EngineOptions options;
  options.enable_eval_cache = false;
  options.num_threads = 1;

  core::DfsEngine engine(scenario, options);
  class WarmupStrategy : public fs::FeatureSelectionStrategy {
   public:
    std::string name() const override { return "warmup"; }
    fs::StrategyInfo info() const override { return {}; }
    void Run(fs::EvalContext&) override {}
  } warmup;
  engine.Run(warmup);  // arms the deadline/state

  const int n = TelcoDataset().num_features();
  std::vector<fs::FeatureMask> masks;
  for (int f = 0; f < n; ++f) {
    masks.push_back(fs::IndicesToMask(n, {f, (f + 1) % n, (f + 3) % n}));
  }
  int i = 0;
  for (auto _ : state) {
    auto outcome = engine.Evaluate(masks[i++ % masks.size()]);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_EvaluateUncached)->Unit(benchmark::kMicrosecond);

// ---- Blocked kernels at S/L/XL shapes (DESIGN.md §2i) ----------------

// XL-tier dataset for the chunked-gather bench: Traffic Violations XL at a
// reduced row_scale — full 1261-column encoded width (the property the
// tiling is judged on), rows trimmed so a run stays short.
const data::Dataset& XlDataset() {
  static const data::Dataset& dataset = *new data::Dataset([] {
    auto d = data::GenerateXlBenchmarkDataset(/*Traffic XL=*/0, 3, 0.08);
    DFS_CHECK(d.ok());
    return std::move(d).value();
  }());
  return dataset;
}

std::vector<double> BenchVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.Uniform(-1.0, 1.0);
  return v;
}

// The GEMV-style decision-function kernel: one batched margin pass, the
// inner loop of every LR/SVM PredictBatch. Shapes: S (a narrow mask on a
// small split), L (a wide mask on a large split), XL (paper-scale width).
void BM_MatVec(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int cols = static_cast<int>(state.range(1));
  const auto x = BenchVector(static_cast<size_t>(rows) * cols, 3);
  const auto w = BenchVector(cols, 4);
  std::vector<double> out(rows);
  for (auto _ : state) {
    linalg::kernels::MatVec(x.data(), rows, cols, w.data(), 0.1, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(rows) * cols *
                          static_cast<int64_t>(sizeof(double)));
}
BENCHMARK(BM_MatVec)
    ->Args({512, 32})      // S
    ->Args({2048, 256})    // L
    ->Args({12000, 1261})  // XL (Traffic XL width at bench row count)
    ->Unit(benchmark::kMicrosecond);

// One logistic-regression gradient pass (an LR Fit runs up to 100) on a
// COMPAS-sized split: 180 rows at a narrow (7) and a full (20) mask.
// BM_LogisticGradient is the dispatched kernel Fit calls; the Reference
// variant is the scalar per-row loop it must match bit for bit.
using GradientKernel = void (*)(const double*, int, int, const double*,
                                double, const int*, double*, double*);

void RunLogisticGradient(benchmark::State& state, GradientKernel gradient) {
  const int rows = static_cast<int>(state.range(0));
  const int cols = static_cast<int>(state.range(1));
  const auto x = BenchVector(static_cast<size_t>(rows) * cols, 7);
  const auto w = BenchVector(cols, 8);
  std::vector<double> g(cols);
  std::vector<int> y(rows);
  for (int r = 0; r < rows; ++r) y[r] = r % 3 == 0 ? 1 : 0;
  for (auto _ : state) {
    double bias_grad = 0.0;
    gradient(x.data(), rows, cols, w.data(), 0.1, y.data(), g.data(),
             &bias_grad);
    benchmark::DoNotOptimize(g.data());
    benchmark::DoNotOptimize(bias_grad);
  }
}

void BM_LogisticGradient(benchmark::State& state) {
  RunLogisticGradient(state, linalg::kernels::LogisticGradient);
}
BENCHMARK(BM_LogisticGradient)->Args({180, 7})->Args({180, 20});

void BM_LogisticGradientReference(benchmark::State& state) {
  RunLogisticGradient(state, linalg::kernels::reference::LogisticGradient);
}
BENCHMARK(BM_LogisticGradientReference)->Args({180, 7})->Args({180, 20});

// The kNN / robustness-attack distance kernel at S/L/XL vector widths.
void BM_SquaredDistanceSpan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = BenchVector(n, 5);
  const auto b = BenchVector(n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        linalg::kernels::SquaredDistance(a.data(), b.data(), n));
  }
}
BENCHMARK(BM_SquaredDistanceSpan)->Arg(32)->Arg(256)->Arg(1261);

// Chunked gather on the XL dataset: Arg 0 is the gathered mask width,
// Arg 1 selects the tiling (0 = auto 1 MiB window, 1 = monolithic single
// block). Both produce identical bytes (kernels_test proves it); the
// bench shows what the bounded scratch window costs or saves at scale.
void BM_GatherIntoChunked(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const bool monolithic = state.range(1) != 0;
  state.SetLabel(monolithic ? "monolithic" : "auto window");
  const auto& dataset = XlDataset();
  const int n = dataset.num_features();
  DFS_CHECK(k <= n);
  std::vector<std::vector<int>> feature_sets;
  for (int s = 0; s < 8; ++s) {
    std::vector<int> features(k);
    for (int j = 0; j < k; ++j) features[j] = (s * 97 + j) % n;
    feature_sets.push_back(std::move(features));
  }
  linalg::Matrix scratch;
  const int block = monolithic ? dataset.num_rows() : 0;
  int i = 0;
  for (auto _ : state) {
    dataset.GatherInto(feature_sets[i++ % feature_sets.size()], &scratch,
                       block);
    benchmark::DoNotOptimize(scratch.MutableData());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.num_rows()) * k *
                          static_cast<int64_t>(sizeof(double)));
}
BENCHMARK(BM_GatherIntoChunked)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMicrosecond);

// ---- Ablation: TPE gamma quantile (DESIGN.md) ------------------------

void BM_TpeGammaConvergence(benchmark::State& state) {
  const double gamma = state.range(0) / 100.0;
  state.SetLabel("gamma=" + std::to_string(gamma));
  // Counter metric: evaluations needed to reach the optimum k on a
  // deterministic objective; reported as a custom counter.
  double total_evals = 0.0;
  int runs = 0;
  for (auto _ : state) {
    fs::TpeOptions options;
    options.gamma = gamma;
    fs::TpeIntegerOptimizer optimizer(1, 100, options,
                                      42 + static_cast<uint64_t>(runs));
    int evals = 0;
    for (; evals < 200; ++evals) {
      const int k = optimizer.Propose();
      if (k == 30) break;
      optimizer.Record(k, std::abs(k - 30.0));
    }
    total_evals += evals;
    ++runs;
    benchmark::DoNotOptimize(evals);
  }
  state.counters["evals_to_opt"] = total_evals / std::max(1, runs);
}
BENCHMARK(BM_TpeGammaConvergence)->Arg(10)->Arg(25)->Arg(50);

}  // namespace
}  // namespace dfs

// BENCHMARK_MAIN plus one context entry. google-benchmark's own
// "library_build_type" describes the system libbenchmark (Debian ships it
// without NDEBUG, so it always says "debug"); dfs_build_type records how
// *this* code was compiled, and scripts/check.sh --bench-smoke refuses to
// snapshot unless it says "release".
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("dfs_build_type", "release");
#else
  benchmark::AddCustomContext("dfs_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
