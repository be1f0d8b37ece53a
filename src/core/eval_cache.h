#ifndef DFS_CORE_EVAL_CACHE_H_
#define DFS_CORE_EVAL_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fs/eval_context.h"
#include "fs/feature_subset.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace dfs::core {

/// Version of the binary spill format written by ShardedEvalCache::Serialize
/// and EvalCacheRegistry::SaveToFile. Bump on any layout change; readers
/// reject other versions. docs/CACHE.md specifies the byte-level layout and
/// states this same number — scripts/check_docs.py keeps the two in sync.
inline constexpr uint32_t kEvalCacheFormatVersion = 1;

/// Construction-time configuration of a ShardedEvalCache.
struct EvalCacheOptions {
  /// Mutex stripes; lookups/inserts for different masks rarely contend.
  int num_shards = 16;
  /// Fingerprint of the evaluation context whose outcomes this cache may
  /// hold (dataset + model + constraint set + seed + engine semantics —
  /// the serve layer computes it per job). Stamped into the spill header;
  /// RestoreState rejects a blob whose fingerprint differs.
  uint64_t fingerprint = 0;
};

/// Snapshot of one cache's (or, aggregated, a registry's) activity.
/// Counters cover the shared-surface operations (Lookup/InsertPublished,
/// LookupImportances and spill/restore); the in-flight dedup path
/// (Acquire/Publish/Abandon) keeps its accounting in the engine
/// ("engine.cache_hits").
struct EvalCacheStats {
  uint64_t hits = 0;      ///< Lookup served a published entry
  uint64_t misses = 0;    ///< Lookup found nothing published
  uint64_t inserts = 0;   ///< published entries added via InsertPublished
  uint64_t importance_hits = 0;    ///< LookupImportances found a vector
  uint64_t importance_misses = 0;  ///< LookupImportances found none
  uint64_t spills = 0;    ///< serialize/save operations (registry level)
  uint64_t restores = 0;  ///< restore/load operations (registry level)
  size_t caches = 0;      ///< caches in the registry (registry level)
  size_t entries = 0;     ///< resident entries, published or in flight
  std::vector<size_t> shard_entries;  ///< per-shard occupancy
};

/// Concurrent memo table for wrapper evaluations, mutex-striped into N
/// shards keyed by fs::MaskHash so parallel batch workers rarely contend on
/// the same lock.
///
/// The cache also deduplicates *in-flight* work: the first thread to ask
/// for an unseen mask becomes its owner (Acquire returns kOwner) and must
/// later Publish the outcome or Abandon the entry; any thread asking for
/// the same mask meanwhile blocks until the owner resolves it. That
/// preserves the serial engine's hit accounting — when one batch contains
/// a mask twice, the duplicate is a cache hit, never a second training —
/// which is what keeps parallel runs' cache-hit totals byte-identical to
/// num_threads=1 runs.
///
/// Failed evaluations are not cached (Abandon removes the pending entry),
/// matching the serial engine: a failed training is retried if the mask
/// comes back later. Wrap ownership in an OwnerGuard so an owner that
/// unwinds without resolving (a throwing evaluation) abandons eagerly
/// instead of leaving waiters blocked behind a dead owner forever.
///
/// A published entry may also carry the mask's native feature importances
/// (AttachImportances/LookupImportances), so RFE's per-step importance fit
/// is served from a shared cache like its wrapper evaluations. They are
/// memory-only: the spill format does not carry them (DESIGN.md §2h).
///
/// Persistence: Serialize/RestoreState (and the SaveToFile/LoadFromFile
/// convenience pair) spill the published entries to the versioned,
/// checksummed binary format specified in docs/CACHE.md. Stale blobs —
/// wrong suite version or wrong context fingerprint — are rejected loudly
/// with a non-OK Status, never silently merged.
class ShardedEvalCache {
 public:
  enum class Acquired {
    kOwner,      ///< Not present: caller must evaluate, then Publish/Abandon.
    kHit,        ///< Present (possibly after waiting): *outcome filled in.
    kAbandoned,  ///< The in-flight owner abandoned it; not a hit, not cached.
  };

  explicit ShardedEvalCache(EvalCacheOptions options = {});

  ShardedEvalCache(const ShardedEvalCache&) = delete;
  ShardedEvalCache& operator=(const ShardedEvalCache&) = delete;

  /// Looks up `mask`. kHit fills `*outcome` (blocking first if the entry is
  /// still being computed by another thread). kOwner registers a pending
  /// entry owned by the caller, which must Publish() or Abandon() it —
  /// other threads block on the entry until then.
  [[nodiscard]] Acquired Acquire(const fs::FeatureMask& mask,
                                 fs::EvalOutcome* outcome);

  /// Resolves a pending entry with its outcome and wakes waiters.
  void Publish(const fs::FeatureMask& mask, const fs::EvalOutcome& outcome);

  /// Removes a pending entry (evaluation failed or was skipped); waiters
  /// observe kAbandoned. The mask can be re-acquired afterwards.
  void Abandon(const fs::FeatureMask& mask);

  /// RAII ownership of an in-flight entry: construct after Acquire returned
  /// kOwner, then resolve through the guard. If the guard is destroyed
  /// unresolved — the owner unwound without publishing — the entry is
  /// abandoned so a retry of the same mask becomes the new owner instead of
  /// serializing behind a dead one.
  class OwnerGuard {
   public:
    OwnerGuard(ShardedEvalCache* cache, const fs::FeatureMask& mask)
        : cache_(cache), mask_(&mask) {}
    ~OwnerGuard() {
      if (cache_ != nullptr) cache_->Abandon(*mask_);
    }
    OwnerGuard(const OwnerGuard&) = delete;
    OwnerGuard& operator=(const OwnerGuard&) = delete;

    void Publish(const fs::EvalOutcome& outcome) {
      cache_->Publish(*mask_, outcome);
      cache_ = nullptr;
    }
    void Abandon() {
      cache_->Abandon(*mask_);
      cache_ = nullptr;
    }

   private:
    ShardedEvalCache* cache_;
    const fs::FeatureMask* mask_;
  };

  /// Non-blocking read-only probe for a *published* entry: one map probe
  /// under the shard mutex. A pending (in-flight) entry reads as a miss:
  /// Lookup never waits, so a shared cache consulted from inside another
  /// cache's ownership window cannot deadlock.
  bool Lookup(const fs::FeatureMask& mask, fs::EvalOutcome* outcome);

  /// Inserts an already-computed outcome (the restore path, and the engine
  /// publishing into a shared cache). First writer wins: returns false and
  /// changes nothing when the mask is already resident (published or in
  /// flight) — with a shared evaluation context every writer would insert
  /// byte-identical values anyway (DESIGN.md §2d/§2h).
  bool InsertPublished(const fs::FeatureMask& mask,
                       const fs::EvalOutcome& outcome);

  /// Non-blocking probe for the importance vector attached to `mask`'s
  /// published entry: one map probe under the shard mutex, like Lookup.
  /// Misses when the mask is absent, pending, or has none attached.
  bool LookupImportances(const fs::FeatureMask& mask,
                         std::vector<double>* importances);

  /// Attaches `importances` to `mask`'s published entry. First writer wins:
  /// returns false and changes nothing when the entry already carries a
  /// vector, or when the mask has no published entry (an importance vector
  /// is only kept beside the outcome of the same mask).
  bool AttachImportances(const fs::FeatureMask& mask,
                         const std::vector<double>& importances);

  /// Drops every entry. Must not race Acquire/Publish (the engine clears
  /// only between runs, when no batch is in flight).
  void Clear();

  /// Number of entries, published or still in flight (linearizes per shard
  /// only; test helper).
  size_t size() const;

  uint64_t fingerprint() const { return options_.fingerprint; }

  EvalCacheStats Stats() const;

  /// Spills every published entry to the binary format in docs/CACHE.md.
  /// Pending entries are skipped (their outcome does not exist yet). Each
  /// shard is locked in turn, so a concurrent writer may land in or miss
  /// the blob — serialize at quiescence for a consistent cut.
  std::string Serialize() const;

  /// Merges a spilled blob's entries into this cache (first writer wins).
  /// Rejects, without touching the cache: wrong magic/format version or a
  /// truncated or checksum-corrupt blob (InvalidArgument), and stale blobs
  /// whose suite version or context fingerprint differ from this cache's
  /// (FailedPrecondition).
  Status RestoreState(const std::string& blob);

  Status SaveToFile(const std::string& path) const;
  /// NotFound when `path` does not exist (callers start cold); otherwise
  /// RestoreState's rejection rules apply.
  Status LoadFromFile(const std::string& path);

 private:
  /// Entry fields are protected by the owning Shard's mu (held across
  /// every access, including the post-wait reads in Acquire). That
  /// relationship crosses a shared_ptr, which GUARDED_BY cannot express —
  /// the TSan fleet covers what the static analysis cannot see here.
  struct Entry {
    bool ready = false;
    bool abandoned = false;
    fs::EvalOutcome outcome;
    /// The mask's native feature importances (AttachImportances); null
    /// until attached, never spilled. Most entries never carry one, so a
    /// pointer keeps them one word larger rather than four.
    std::unique_ptr<const std::vector<double>> importances;
  };

  struct Shard {
    mutable util::Mutex mu;
    util::CondVar resolved;
    std::unordered_map<fs::FeatureMask, std::shared_ptr<Entry>,
                       fs::MaskHasher>
        entries DFS_GUARDED_BY(mu);
  };

  Shard& ShardFor(const fs::FeatureMask& mask) {
    return shards_[fs::MaskHash(mask) % shards_.size()];
  }
  const Shard& ShardFor(const fs::FeatureMask& mask) const {
    return shards_[fs::MaskHash(mask) % shards_.size()];
  }

  EvalCacheOptions options_;
  std::vector<Shard> shards_;

  // Shared-surface accounting (see EvalCacheStats). Relaxed: totals, not
  // synchronization.
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> inserts_{0};
  mutable std::atomic<uint64_t> importance_hits_{0};
  mutable std::atomic<uint64_t> importance_misses_{0};
};

/// Process-level collection of shared eval caches, one per evaluation-
/// context fingerprint, plus the container-file spill that lets the whole
/// collection survive a daemon restart (dfs_serverd --eval-cache-state).
class EvalCacheRegistry {
 public:
  explicit EvalCacheRegistry(EvalCacheOptions defaults = {});

  EvalCacheRegistry(const EvalCacheRegistry&) = delete;
  EvalCacheRegistry& operator=(const EvalCacheRegistry&) = delete;

  /// The shared cache for `fingerprint`, created on first use from the
  /// registry's default options.
  std::shared_ptr<ShardedEvalCache> GetOrCreate(uint64_t fingerprint);

  /// Writes every cache's spill blob into one container file (docs/CACHE.md
  /// "Registry container"). Call at quiescence for a consistent cut.
  Status SaveToFile(const std::string& path) const;

  /// Restores a container file, creating caches as needed and merging
  /// entries (first writer wins). Returns the number of entries restored.
  /// NotFound when the file does not exist; any stale or corrupt member
  /// blob rejects the whole file (nothing before it is kept half-merged —
  /// every member is decoded before any merge happens).
  StatusOr<size_t> LoadFromFile(const std::string& path);

  /// LoadFromFile's decode/validate/merge core over an in-memory
  /// container (`source` labels error messages). Exposed so tests and
  /// the fuzz harnesses can drive the decoder without touching disk.
  StatusOr<size_t> RestoreFromString(const std::string& container,
                                     const std::string& source = "<memory>");

  /// Aggregated stats: counters summed over caches, shard occupancy summed
  /// elementwise, plus the registry-level cache count and spill/restore
  /// operation counters.
  EvalCacheStats Stats() const;

  size_t size() const;

 private:
  EvalCacheOptions defaults_;
  mutable util::Mutex mu_;
  std::map<uint64_t, std::shared_ptr<ShardedEvalCache>> caches_
      DFS_GUARDED_BY(mu_);
  mutable std::atomic<uint64_t> spills_{0};
  mutable std::atomic<uint64_t> restores_{0};
};

}  // namespace dfs::core

#endif  // DFS_CORE_EVAL_CACHE_H_
