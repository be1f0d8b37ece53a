#include "core/eval_cache.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "core/suite_version.h"
#include "obs/metrics.h"
#include "util/file.h"
#include "util/logging.h"

namespace dfs::core {
namespace {

/// Shared-cache-surface instruments (docs/PROTOCOL.md instrument registry,
/// "cache.*"). Resolved once; the lookup hot path then touches atomics only.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& inserts;
  obs::Counter& spills;
  obs::Counter& restores;
  obs::Counter& restored_entries;

  static CacheMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Global();
    static CacheMetrics* metrics = new CacheMetrics{
        registry.counter("cache.hits"),
        registry.counter("cache.misses"),
        registry.counter("cache.inserts"),
        registry.counter("cache.spills"),
        registry.counter("cache.restores"),
        registry.counter("cache.restored_entries"),
    };
    return *metrics;
  }
};

// ---------------------------------------------------------------------------
// Binary spill encoding (docs/CACHE.md). Little-endian on every supported
// target; the fixed-width append/read helpers keep the layout explicit.

constexpr char kCacheMagic[8] = {'D', 'F', 'S', 'C', 'A', 'C', 'H', 'E'};
constexpr char kRegistryMagic[8] = {'D', 'F', 'S', 'C', 'R', 'E', 'G', '1'};
constexpr uint64_t kChecksumSeed = 0xCBF29CE484222325ULL;  // FNV-1a offset

void AppendU32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void AppendF64(std::string* out, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  AppendU64(out, bits);
}

/// Bounds-checked little-endian reader over a blob.
class Reader {
 public:
  explicit Reader(const std::string& blob) : blob_(blob) {}

  bool ReadBytes(void* out, size_t n) {
    if (offset_ + n > blob_.size()) return false;
    std::memcpy(out, blob_.data() + offset_, n);
    offset_ += n;
    return true;
  }
  bool ReadU32(uint32_t* out) {
    unsigned char bytes[4];
    if (!ReadBytes(bytes, 4)) return false;
    *out = 0;
    for (int i = 0; i < 4; ++i) *out |= static_cast<uint32_t>(bytes[i]) << (8 * i);
    return true;
  }
  bool ReadU64(uint64_t* out) {
    unsigned char bytes[8];
    if (!ReadBytes(bytes, 8)) return false;
    *out = 0;
    for (int i = 0; i < 8; ++i) *out |= static_cast<uint64_t>(bytes[i]) << (8 * i);
    return true;
  }
  bool ReadF64(double* out) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(out, &bits, sizeof(bits));
    return true;
  }
  bool Skip(size_t n) {
    if (offset_ + n > blob_.size()) return false;
    offset_ += n;
    return true;
  }
  size_t offset() const { return offset_; }
  size_t remaining() const { return blob_.size() - offset_; }

 private:
  const std::string& blob_;
  size_t offset_ = 0;
};

uint64_t Fnv1a(const char* data, size_t size) {
  uint64_t hash = kChecksumSeed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// One entry: bit-packed mask (LSB-first within each byte) + the
/// fs::EvalOutcome fields in declaration order.
void AppendEntry(std::string* out, const fs::FeatureMask& mask,
                 const fs::EvalOutcome& outcome) {
  AppendU32(out, static_cast<uint32_t>(mask.size()));
  const size_t bytes = (mask.size() + 7) / 8;
  for (size_t b = 0; b < bytes; ++b) {
    unsigned char packed = 0;
    for (size_t bit = 0; bit < 8; ++bit) {
      const size_t index = b * 8 + bit;
      if (index < mask.size() && mask[index]) packed |= (1u << bit);
    }
    out->push_back(static_cast<char>(packed));
  }
  unsigned char flags = 0;
  if (outcome.evaluated) flags |= 1u;
  if (outcome.satisfied_validation) flags |= 2u;
  if (outcome.success) flags |= 4u;
  out->push_back(static_cast<char>(flags));
  AppendF64(out, outcome.seconds);
  AppendF64(out, outcome.distance);
  AppendF64(out, outcome.objective);
  AppendF64(out, outcome.validation.f1);
  AppendF64(out, outcome.validation.equal_opportunity);
  AppendF64(out, outcome.validation.safety);
  AppendF64(out, outcome.validation.feature_fraction);
  AppendU32(out, static_cast<uint32_t>(outcome.validation.selected_features));
  AppendU32(out, static_cast<uint32_t>(outcome.validation.total_features));
}

bool ReadEntry(Reader* reader, fs::FeatureMask* mask,
               fs::EvalOutcome* outcome) {
  uint32_t mask_bits;
  if (!reader->ReadU32(&mask_bits)) return false;
  // A mask wider than the blob is left to hold cannot be legitimate; the
  // cap turns a corrupt width into a clean "truncated" rejection instead
  // of a giant allocation.
  if (mask_bits > 8 * reader->remaining()) return false;
  mask->assign(mask_bits, 0);
  const size_t bytes = (mask_bits + 7) / 8;
  for (size_t b = 0; b < bytes; ++b) {
    unsigned char packed;
    if (!reader->ReadBytes(&packed, 1)) return false;
    for (size_t bit = 0; bit < 8; ++bit) {
      const size_t index = b * 8 + bit;
      if (index < mask_bits) (*mask)[index] = (packed >> bit) & 1u;
    }
  }
  unsigned char flags;
  if (!reader->ReadBytes(&flags, 1)) return false;
  outcome->evaluated = (flags & 1u) != 0;
  outcome->satisfied_validation = (flags & 2u) != 0;
  outcome->success = (flags & 4u) != 0;
  uint32_t selected, total;
  if (!reader->ReadF64(&outcome->seconds) ||
      !reader->ReadF64(&outcome->distance) ||
      !reader->ReadF64(&outcome->objective) ||
      !reader->ReadF64(&outcome->validation.f1) ||
      !reader->ReadF64(&outcome->validation.equal_opportunity) ||
      !reader->ReadF64(&outcome->validation.safety) ||
      !reader->ReadF64(&outcome->validation.feature_fraction) ||
      !reader->ReadU32(&selected) || !reader->ReadU32(&total)) {
    return false;
  }
  outcome->validation.selected_features = static_cast<int>(selected);
  outcome->validation.total_features = static_cast<int>(total);
  return true;
}

/// One decoded spill blob: the header's context fingerprint and every
/// entry, in spill order.
struct DecodedSpill {
  uint64_t fingerprint = 0;
  std::vector<std::pair<fs::FeatureMask, fs::EvalOutcome>> entries;
};

/// Decodes one spill blob (docs/CACHE.md) without touching any cache, so a
/// caller can reject a bad blob before it merges anything. Checks, in
/// order: magic, format version, suite version, context fingerprint
/// (skipped when `expected_fingerprint` is empty), payload checksum, then
/// every entry and the absence of trailing bytes.
StatusOr<DecodedSpill> DecodeSpill(
    const std::string& blob, std::optional<uint64_t> expected_fingerprint) {
  Reader reader(blob);
  char magic[8];
  if (!reader.ReadBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kCacheMagic, sizeof(magic)) != 0) {
    return InvalidArgumentError("not an eval-cache spill (bad magic)");
  }
  uint32_t version, reserved;
  uint64_t suite, fingerprint, entry_count, checksum;
  if (!reader.ReadU32(&version) || !reader.ReadU32(&reserved) ||
      !reader.ReadU64(&suite) || !reader.ReadU64(&fingerprint) ||
      !reader.ReadU64(&entry_count) || !reader.ReadU64(&checksum)) {
    return InvalidArgumentError("truncated eval-cache spill header");
  }
  if (version != kEvalCacheFormatVersion) {
    return InvalidArgumentError(
        "unsupported eval-cache format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kEvalCacheFormatVersion) + ")");
  }
  if (suite != kSuiteVersion) {
    return FailedPreconditionError(
        "stale eval-cache spill: suite version " + std::to_string(suite) +
        " != current " + std::to_string(kSuiteVersion) +
        " (evaluation semantics changed; delete the spill)");
  }
  if (expected_fingerprint.has_value() &&
      fingerprint != *expected_fingerprint) {
    return FailedPreconditionError(
        "stale eval-cache spill: context fingerprint mismatch (spill " +
        std::to_string(fingerprint) + ", cache " +
        std::to_string(*expected_fingerprint) +
        "); outcomes from a different dataset/model/constraint context "
        "must not be merged");
  }
  const size_t payload_offset = reader.offset();
  if (Fnv1a(blob.data() + payload_offset, blob.size() - payload_offset) !=
      checksum) {
    return InvalidArgumentError(
        "corrupt eval-cache spill: payload checksum mismatch");
  }
  // The entry count lives in the header, OUTSIDE the checksum (which
  // covers the payload only), so it must be sanity-checked before it sizes
  // an allocation: every entry is at least kMinEntryBytes, so a count the
  // remaining bytes cannot hold is corrupt no matter what the payload
  // says.
  constexpr uint64_t kMinEntryBytes = 69;  // u32 mask width + flags +
                                           // 7 f64 + 2 u32, empty mask
  if (entry_count > reader.remaining() / kMinEntryBytes) {
    return InvalidArgumentError(
        "corrupt eval-cache spill: header claims " +
        std::to_string(entry_count) + " entries but only " +
        std::to_string(reader.remaining()) + " payload bytes follow");
  }
  DecodedSpill decoded;
  decoded.fingerprint = fingerprint;
  decoded.entries.reserve(entry_count);
  for (uint64_t i = 0; i < entry_count; ++i) {
    fs::FeatureMask mask;
    fs::EvalOutcome outcome;
    if (!ReadEntry(&reader, &mask, &outcome)) {
      return InvalidArgumentError(
          "truncated eval-cache spill: entry " + std::to_string(i) + " of " +
          std::to_string(entry_count) + " is cut short");
    }
    decoded.entries.emplace_back(std::move(mask), outcome);
  }
  if (reader.remaining() != 0) {
    return InvalidArgumentError(
        "corrupt eval-cache spill: " + std::to_string(reader.remaining()) +
        " trailing bytes after the last entry");
  }
  return decoded;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardedEvalCache

ShardedEvalCache::ShardedEvalCache(EvalCacheOptions options)
    : options_(options),
      shards_(std::max(1, options.num_shards)) {
  options_.num_shards = static_cast<int>(shards_.size());
}

ShardedEvalCache::Acquired ShardedEvalCache::Acquire(
    const fs::FeatureMask& mask, fs::EvalOutcome* outcome) {
  Shard& shard = ShardFor(mask);
  util::MutexLock lock(shard.mu);
  auto it = shard.entries.find(mask);
  if (it == shard.entries.end()) {
    shard.entries.emplace(mask, std::make_shared<Entry>());
    return Acquired::kOwner;
  }
  // Hold our own reference: Abandon() erases the map slot while we wait.
  std::shared_ptr<Entry> entry = it->second;
  while (!entry->ready && !entry->abandoned) shard.resolved.Wait(lock);
  if (entry->abandoned) return Acquired::kAbandoned;
  *outcome = entry->outcome;
  return Acquired::kHit;
}

void ShardedEvalCache::Publish(const fs::FeatureMask& mask,
                               const fs::EvalOutcome& outcome) {
  Shard& shard = ShardFor(mask);
  {
    util::MutexLock lock(shard.mu);
    auto it = shard.entries.find(mask);
    DFS_CHECK(it != shard.entries.end()) << "Publish without Acquire";
    DFS_CHECK(!it->second->ready) << "Publish twice";
    it->second->outcome = outcome;
    it->second->ready = true;
  }
  shard.resolved.NotifyAll();
}

void ShardedEvalCache::Abandon(const fs::FeatureMask& mask) {
  Shard& shard = ShardFor(mask);
  {
    util::MutexLock lock(shard.mu);
    auto it = shard.entries.find(mask);
    DFS_CHECK(it != shard.entries.end()) << "Abandon without Acquire";
    it->second->abandoned = true;
    shard.entries.erase(it);
  }
  shard.resolved.NotifyAll();
}

bool ShardedEvalCache::Lookup(const fs::FeatureMask& mask,
                              fs::EvalOutcome* outcome) {
  const Shard& shard = ShardFor(mask);
  bool hit = false;
  {
    util::MutexLock lock(shard.mu);
    auto it = shard.entries.find(mask);
    // Pending entries read as a miss: Lookup never blocks.
    if (it != shard.entries.end() && it->second->ready) {
      *outcome = it->second->outcome;
      hit = true;
    }
  }
  CacheMetrics& metrics = CacheMetrics::Get();
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    metrics.hits.Increment();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    metrics.misses.Increment();
  }
  return hit;
}

bool ShardedEvalCache::InsertPublished(const fs::FeatureMask& mask,
                                       const fs::EvalOutcome& outcome) {
  Shard& shard = ShardFor(mask);
  bool inserted = false;
  {
    util::MutexLock lock(shard.mu);
    auto [it, fresh] = shard.entries.try_emplace(mask);
    if (fresh) {
      auto entry = std::make_shared<Entry>();
      entry->ready = true;
      entry->outcome = outcome;
      it->second = std::move(entry);
      inserted = true;
    }
  }
  if (inserted) {
    inserts_.fetch_add(1, std::memory_order_relaxed);
    CacheMetrics::Get().inserts.Increment();
  }
  return inserted;
}

void ShardedEvalCache::Clear() {
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    shard.entries.clear();
  }
}

size_t ShardedEvalCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

bool ShardedEvalCache::LookupImportances(const fs::FeatureMask& mask,
                                         std::vector<double>* importances) {
  const Shard& shard = ShardFor(mask);
  bool hit = false;
  {
    util::MutexLock lock(shard.mu);
    auto it = shard.entries.find(mask);
    if (it != shard.entries.end() && it->second->ready &&
        it->second->importances != nullptr) {
      *importances = *it->second->importances;
      hit = true;
    }
  }
  (hit ? importance_hits_ : importance_misses_)
      .fetch_add(1, std::memory_order_relaxed);
  return hit;
}

bool ShardedEvalCache::AttachImportances(
    const fs::FeatureMask& mask, const std::vector<double>& importances) {
  Shard& shard = ShardFor(mask);
  util::MutexLock lock(shard.mu);
  auto it = shard.entries.find(mask);
  if (it == shard.entries.end() || !it->second->ready ||
      it->second->importances != nullptr) {
    return false;
  }
  it->second->importances =
      std::make_unique<const std::vector<double>>(importances);
  return true;
}

EvalCacheStats ShardedEvalCache::Stats() const {
  EvalCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.importance_hits = importance_hits_.load(std::memory_order_relaxed);
  stats.importance_misses =
      importance_misses_.load(std::memory_order_relaxed);
  stats.caches = 1;
  stats.shard_entries.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    stats.shard_entries.push_back(shard.entries.size());
    stats.entries += shard.entries.size();
  }
  return stats;
}

std::string ShardedEvalCache::Serialize() const {
  // Payload first (the checksum covers exactly these bytes), header after.
  std::string payload;
  uint64_t entry_count = 0;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    for (const auto& [mask, entry] : shard.entries) {
      if (!entry->ready) continue;  // pending: no outcome to spill yet
      AppendEntry(&payload, mask, entry->outcome);
      ++entry_count;
    }
  }
  std::string blob;
  blob.reserve(48 + payload.size());
  blob.append(kCacheMagic, sizeof(kCacheMagic));
  AppendU32(&blob, kEvalCacheFormatVersion);
  AppendU32(&blob, 0);  // reserved
  AppendU64(&blob, kSuiteVersion);
  AppendU64(&blob, options_.fingerprint);
  AppendU64(&blob, entry_count);
  AppendU64(&blob, Fnv1a(payload.data(), payload.size()));
  blob += payload;
  return blob;
}

Status ShardedEvalCache::RestoreState(const std::string& blob) {
  // Decode everything before merging anything, so a truncated payload
  // cannot leave the cache half-restored.
  DFS_ASSIGN_OR_RETURN(const DecodedSpill spill,
                       DecodeSpill(blob, options_.fingerprint));
  uint64_t restored = 0;
  for (const auto& [mask, outcome] : spill.entries) {
    if (InsertPublished(mask, outcome)) ++restored;
  }
  CacheMetrics& metrics = CacheMetrics::Get();
  metrics.restores.Increment();
  metrics.restored_entries.Increment(restored);
  return OkStatus();
}

Status ShardedEvalCache::SaveToFile(const std::string& path) const {
  DFS_RETURN_IF_ERROR(util::WriteFile(path, Serialize()));
  CacheMetrics::Get().spills.Increment();
  return OkStatus();
}

Status ShardedEvalCache::LoadFromFile(const std::string& path) {
  DFS_ASSIGN_OR_RETURN(const std::string blob, util::ReadFile(path));
  return RestoreState(blob);
}

// ---------------------------------------------------------------------------
// EvalCacheRegistry

EvalCacheRegistry::EvalCacheRegistry(EvalCacheOptions defaults)
    : defaults_(defaults) {}

std::shared_ptr<ShardedEvalCache> EvalCacheRegistry::GetOrCreate(
    uint64_t fingerprint) {
  util::MutexLock lock(mu_);
  auto it = caches_.find(fingerprint);
  if (it != caches_.end()) return it->second;
  EvalCacheOptions options = defaults_;
  options.fingerprint = fingerprint;
  auto cache = std::make_shared<ShardedEvalCache>(options);
  caches_.emplace(fingerprint, cache);
  return cache;
}

Status EvalCacheRegistry::SaveToFile(const std::string& path) const {
  std::vector<std::shared_ptr<ShardedEvalCache>> caches;
  {
    util::MutexLock lock(mu_);
    caches.reserve(caches_.size());
    for (const auto& [fingerprint, cache] : caches_) caches.push_back(cache);
  }
  std::string container;
  container.append(kRegistryMagic, sizeof(kRegistryMagic));
  AppendU32(&container, kEvalCacheFormatVersion);
  AppendU32(&container, static_cast<uint32_t>(caches.size()));
  for (const auto& cache : caches) {
    const std::string blob = cache->Serialize();
    AppendU64(&container, blob.size());
    container += blob;
  }
  DFS_RETURN_IF_ERROR(util::WriteFile(path, container));
  spills_.fetch_add(1, std::memory_order_relaxed);
  CacheMetrics::Get().spills.Increment();
  return OkStatus();
}

StatusOr<size_t> EvalCacheRegistry::LoadFromFile(const std::string& path) {
  DFS_ASSIGN_OR_RETURN(const std::string container, util::ReadFile(path));
  return RestoreFromString(container, path);
}

StatusOr<size_t> EvalCacheRegistry::RestoreFromString(
    const std::string& container, const std::string& source) {
  Reader reader(container);
  char magic[8];
  if (!reader.ReadBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kRegistryMagic, sizeof(magic)) != 0) {
    return InvalidArgumentError(
        "not an eval-cache registry container (bad magic): " + source);
  }
  uint32_t version, cache_count;
  if (!reader.ReadU32(&version) || !reader.ReadU32(&cache_count)) {
    return InvalidArgumentError("truncated registry container header: " +
                                source);
  }
  if (version != kEvalCacheFormatVersion) {
    return InvalidArgumentError(
        "unsupported eval-cache format version " + std::to_string(version) +
        " in " + source);
  }
  // The member count is not covered by any checksum; cap it by what the
  // remaining bytes could possibly hold (each member costs at least its
  // u64 length prefix) before it sizes an allocation.
  if (cache_count > reader.remaining() / sizeof(uint64_t)) {
    return InvalidArgumentError(
        "corrupt registry container: header claims " +
        std::to_string(cache_count) + " member blobs but only " +
        std::to_string(reader.remaining()) + " bytes follow in " + source);
  }
  // Decode every member before merging any, so one stale or corrupt
  // member rejects the whole file instead of leaving it half-merged. Each
  // member restores into the cache its own header names, so there is no
  // fingerprint to check it against.
  std::vector<DecodedSpill> members;
  members.reserve(cache_count);
  for (uint32_t i = 0; i < cache_count; ++i) {
    uint64_t length = 0;
    if (!reader.ReadU64(&length) || length > reader.remaining()) {
      return InvalidArgumentError("truncated registry container: " + source);
    }
    DFS_ASSIGN_OR_RETURN(
        DecodedSpill member,
        DecodeSpill(container.substr(reader.offset(),
                                     static_cast<size_t>(length)),
                    std::nullopt));
    members.push_back(std::move(member));
    reader.Skip(static_cast<size_t>(length));  // bounds-checked above
  }
  if (reader.remaining() != 0) {
    return InvalidArgumentError(
        "corrupt registry container: trailing bytes in " + source);
  }
  size_t restored = 0;
  for (const DecodedSpill& member : members) {
    auto cache = GetOrCreate(member.fingerprint);
    for (const auto& [mask, outcome] : member.entries) {
      if (cache->InsertPublished(mask, outcome)) ++restored;
    }
  }
  CacheMetrics& metrics = CacheMetrics::Get();
  metrics.restores.Increment();
  metrics.restored_entries.Increment(restored);
  restores_.fetch_add(1, std::memory_order_relaxed);
  return restored;
}

EvalCacheStats EvalCacheRegistry::Stats() const {
  std::vector<std::shared_ptr<ShardedEvalCache>> caches;
  {
    util::MutexLock lock(mu_);
    caches.reserve(caches_.size());
    for (const auto& [fingerprint, cache] : caches_) caches.push_back(cache);
  }
  EvalCacheStats total;
  total.caches = caches.size();
  total.spills = spills_.load(std::memory_order_relaxed);
  total.restores = restores_.load(std::memory_order_relaxed);
  for (const auto& cache : caches) {
    const EvalCacheStats stats = cache->Stats();
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.inserts += stats.inserts;
    total.importance_hits += stats.importance_hits;
    total.importance_misses += stats.importance_misses;
    total.entries += stats.entries;
    if (total.shard_entries.size() < stats.shard_entries.size()) {
      total.shard_entries.resize(stats.shard_entries.size(), 0);
    }
    for (size_t i = 0; i < stats.shard_entries.size(); ++i) {
      total.shard_entries[i] += stats.shard_entries[i];
    }
  }
  return total;
}

size_t EvalCacheRegistry::size() const {
  util::MutexLock lock(mu_);
  return caches_.size();
}

}  // namespace dfs::core
