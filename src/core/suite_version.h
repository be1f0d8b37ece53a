#ifndef DFS_CORE_SUITE_VERSION_H_
#define DFS_CORE_SUITE_VERSION_H_

#include <cstdint>

namespace dfs::core {

/// Version of the synthetic benchmark suite / engine evaluation semantics:
/// bump when generated data or evaluation behavior changes so stale caches
/// are rejected even though the configuration fields look identical. Keyed
/// into ExperimentConfig::Hash() (the bench result cache) and into the
/// eval-cache spill header (docs/CACHE.md), so both artifact families are
/// invalidated together.
/// v5: DiscreteMutualInformation / DiscreteEntropy accumulate in sorted
/// key order (previously unordered_map iteration order), so MI-based
/// rankings may differ by an ULP across the bump.
/// v6: DfsEngine::Run reseeds the strategy-facing rng() per run, so a
/// strategy raced after others on one engine (ExperimentPool's multi-
/// strategy pools) draws what a fresh engine would.
inline constexpr uint64_t kSuiteVersion = 6;

}  // namespace dfs::core

#endif  // DFS_CORE_SUITE_VERSION_H_
