// Shared-eval-cache tests: spill/restore round-trip byte-identity,
// rejection of corrupt/truncated/stale spills, the non-blocking Lookup
// contract, the OwnerGuard dead-owner regression, registry persistence
// and its counter accounting, engine L2 integration (outcomes and RFE
// importances), and a concurrent lookup/insert/spill churn test for the
// TSan fleet.

#include "core/eval_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/scenario.h"
#include "core/suite_version.h"
#include "fs/registry.h"
#include "obs/metrics.h"
#include "testing/test_util.h"

namespace dfs::core {
namespace {

// Unique mask per id over 64 features: the id's bits select among
// features 1..32; feature 0 tags the resident population so absent-mask
// probes are guaranteed disjoint from it.
fs::FeatureMask MaskFor(uint32_t id, bool resident = true) {
  fs::FeatureMask mask(64, 0);
  if (resident) mask[0] = 1;
  for (int b = 0; b < 32; ++b) {
    if ((id >> b) & 1u) mask[b + 1] = 1;
  }
  return mask;
}

// Varied, exactly-representable-and-not field values so round-trip
// comparisons are meaningful bit-for-bit.
fs::EvalOutcome OutcomeFor(uint32_t id) {
  fs::EvalOutcome outcome;
  outcome.evaluated = true;
  outcome.seconds = 0.1 + id / 3.0;
  outcome.distance = id == 0 ? 0.0 : 1.0 / id;
  outcome.objective = -static_cast<double>(id) / 7.0;
  outcome.satisfied_validation = (id % 2) == 0;
  outcome.success = (id % 3) == 0;
  outcome.validation.f1 = id / 1000.0;
  outcome.validation.equal_opportunity = 1.0 - id / 2000.0;
  outcome.validation.safety = 0.5 + id / 4000.0;
  outcome.validation.feature_fraction = id / 64.0;
  outcome.validation.selected_features = static_cast<int>(id % 64);
  outcome.validation.total_features = 64;
  return outcome;
}

// A distinct importance vector per id (the churn test's attach payload).
std::vector<double> ImportancesFor(uint32_t id) {
  return {id / 3.0, -static_cast<double>(id), 0.5};
}

void ExpectOutcomeEq(const fs::EvalOutcome& want, const fs::EvalOutcome& got,
                     uint32_t id) {
  EXPECT_EQ(want.evaluated, got.evaluated) << "entry " << id;
  EXPECT_EQ(want.seconds, got.seconds) << "entry " << id;
  EXPECT_EQ(want.distance, got.distance) << "entry " << id;
  EXPECT_EQ(want.objective, got.objective) << "entry " << id;
  EXPECT_EQ(want.satisfied_validation, got.satisfied_validation)
      << "entry " << id;
  EXPECT_EQ(want.success, got.success) << "entry " << id;
  EXPECT_EQ(want.validation.f1, got.validation.f1) << "entry " << id;
  EXPECT_EQ(want.validation.equal_opportunity,
            got.validation.equal_opportunity)
      << "entry " << id;
  EXPECT_EQ(want.validation.safety, got.validation.safety) << "entry " << id;
  EXPECT_EQ(want.validation.feature_fraction, got.validation.feature_fraction)
      << "entry " << id;
  EXPECT_EQ(want.validation.selected_features,
            got.validation.selected_features)
      << "entry " << id;
  EXPECT_EQ(want.validation.total_features, got.validation.total_features)
      << "entry " << id;
}

// Byte offsets of the spill header fields (docs/CACHE.md).
constexpr size_t kVersionOffset = 8;
constexpr size_t kSuiteOffset = 16;
constexpr size_t kEntryCountOffset = 32;

void PatchU64(std::string* blob, size_t offset, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    (*blob)[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

void PatchU32(std::string* blob, size_t offset, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    (*blob)[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

TEST(EvalCacheSpillTest, RoundTripIsByteIdentical) {
  ShardedEvalCache source(EvalCacheOptions{.fingerprint = 0xFEEDULL});
  constexpr uint32_t kEntries = 257;
  for (uint32_t id = 0; id < kEntries; ++id) {
    EXPECT_TRUE(source.InsertPublished(MaskFor(id), OutcomeFor(id)));
  }
  const std::string blob = source.Serialize();

  ShardedEvalCache restored(EvalCacheOptions{.fingerprint = 0xFEEDULL});
  ASSERT_TRUE(restored.RestoreState(blob).ok());
  EXPECT_EQ(restored.size(), kEntries);
  for (uint32_t id = 0; id < kEntries; ++id) {
    fs::EvalOutcome got;
    ASSERT_TRUE(restored.Lookup(MaskFor(id), &got)) << "entry " << id;
    ExpectOutcomeEq(OutcomeFor(id), got, id);
  }
}

TEST(EvalCacheSpillTest, PendingEntriesAreNotSpilled) {
  ShardedEvalCache cache;
  EXPECT_TRUE(cache.InsertPublished(MaskFor(1), OutcomeFor(1)));
  fs::EvalOutcome scratch;
  ASSERT_EQ(cache.Acquire(MaskFor(2), &scratch),
            ShardedEvalCache::Acquired::kOwner);  // left pending

  ShardedEvalCache restored;
  ASSERT_TRUE(restored.RestoreState(cache.Serialize()).ok());
  EXPECT_EQ(restored.size(), 1u);
  cache.Abandon(MaskFor(2));
}

TEST(EvalCacheSpillTest, RejectsBadMagic) {
  ShardedEvalCache cache;
  std::string blob = cache.Serialize();
  blob[0] = 'X';
  const Status status = cache.RestoreState(blob);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(EvalCacheSpillTest, RejectsUnsupportedFormatVersion) {
  ShardedEvalCache cache;
  std::string blob = cache.Serialize();
  PatchU32(&blob, kVersionOffset, kEvalCacheFormatVersion + 1);
  const Status status = cache.RestoreState(blob);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST(EvalCacheSpillTest, RejectsStaleSuiteVersion) {
  ShardedEvalCache cache;
  std::string blob = cache.Serialize();
  PatchU64(&blob, kSuiteOffset, kSuiteVersion + 1);
  const Status status = cache.RestoreState(blob);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("suite version"), std::string::npos);
}

TEST(EvalCacheSpillTest, RejectsFingerprintMismatch) {
  ShardedEvalCache source(EvalCacheOptions{.fingerprint = 1});
  EXPECT_TRUE(source.InsertPublished(MaskFor(0), OutcomeFor(0)));
  ShardedEvalCache other(EvalCacheOptions{.fingerprint = 2});
  const Status status = other.RestoreState(source.Serialize());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos);
  EXPECT_EQ(other.size(), 0u);
}

TEST(EvalCacheSpillTest, RejectsTruncatedBlob) {
  ShardedEvalCache cache;
  for (uint32_t id = 0; id < 5; ++id) {
    EXPECT_TRUE(cache.InsertPublished(MaskFor(id), OutcomeFor(id)));
  }
  const std::string blob = cache.Serialize();
  ShardedEvalCache restored;
  // Header-level truncation and payload-level truncation both reject.
  EXPECT_EQ(restored.RestoreState(blob.substr(0, 20)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(restored.RestoreState(blob.substr(0, blob.size() - 3)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(restored.size(), 0u);  // nothing half-merged
}

TEST(EvalCacheSpillTest, RejectsChecksumCorruption) {
  ShardedEvalCache cache;
  EXPECT_TRUE(cache.InsertPublished(MaskFor(3), OutcomeFor(3)));
  std::string blob = cache.Serialize();
  blob[blob.size() - 1] ^= 0x5A;  // flip payload bits, header intact
  ShardedEvalCache restored;
  const Status status = restored.RestoreState(blob);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
}

TEST(EvalCacheSpillTest, RejectsTrailingBytes) {
  ShardedEvalCache cache;
  EXPECT_TRUE(cache.InsertPublished(MaskFor(1), OutcomeFor(1)));
  EXPECT_TRUE(cache.InsertPublished(MaskFor(2), OutcomeFor(2)));
  std::string blob = cache.Serialize();
  // Claim one entry while the (checksummed) payload holds two: the decoder
  // must notice the leftover bytes instead of silently dropping an entry.
  PatchU64(&blob, kEntryCountOffset, 1);
  ShardedEvalCache restored;
  const Status status = restored.RestoreState(blob);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("trailing"), std::string::npos);
  EXPECT_EQ(restored.size(), 0u);
}

TEST(EvalCacheSpillTest, RejectsOverclaimedEntryCount) {
  ShardedEvalCache cache;
  EXPECT_TRUE(cache.InsertPublished(MaskFor(1), OutcomeFor(1)));
  std::string blob = cache.Serialize();
  // The entry count lives in the header, outside the payload checksum, so
  // a hostile value passes the checksum test unchanged. A count the
  // remaining bytes cannot possibly hold must be rejected BEFORE it sizes
  // the decode buffer (a naive reserve of 2^60 entries is an OOM bomb).
  PatchU64(&blob, kEntryCountOffset, uint64_t{1} << 60);
  ShardedEvalCache restored;
  const Status status = restored.RestoreState(blob);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("header claims"), std::string::npos);
  EXPECT_EQ(restored.size(), 0u);
}

TEST(EvalCacheSpillTest, RejectsEntryCountJustPastPayload) {
  ShardedEvalCache cache;
  EXPECT_TRUE(cache.InsertPublished(MaskFor(1), OutcomeFor(1)));
  std::string blob = cache.Serialize();
  // One real entry in the payload, header claiming two: the smallest
  // possible over-claim must reject at the count cap or the decode loop,
  // never half-merge.
  PatchU64(&blob, kEntryCountOffset, 2);
  ShardedEvalCache restored;
  EXPECT_EQ(restored.RestoreState(blob).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(restored.size(), 0u);
}

TEST(EvalCacheSpillTest, LoadFromMissingFileIsNotFound) {
  ShardedEvalCache cache;
  EXPECT_EQ(cache.LoadFromFile("/nonexistent/dfs-eval-cache.spill").code(),
            StatusCode::kNotFound);
}

TEST(EvalCacheSpillTest, SaveAndLoadFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/eval_cache.spill";
  ShardedEvalCache source;
  for (uint32_t id = 0; id < 32; ++id) {
    EXPECT_TRUE(source.InsertPublished(MaskFor(id), OutcomeFor(id)));
  }
  ASSERT_TRUE(source.SaveToFile(path).ok());
  ShardedEvalCache restored;
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  EXPECT_EQ(restored.size(), 32u);
  std::remove(path.c_str());
}

// ---- Lookup -------------------------------------------------------------

// The cache has no membership filter: every Lookup is one locked map
// probe. These two keep the answers a filter used to short-cut, so a
// probe that once passed (or skipped) the filter still ends correctly.

// Absent masks next to a populated cache always fall through to a miss —
// no phantom hits — and every miss is counted.
TEST(EvalCacheFilterTest, FalsePositivesFallThroughToMissing) {
  ShardedEvalCache cache;
  constexpr uint32_t kResident = 512;
  for (uint32_t id = 0; id < kResident; ++id) {
    EXPECT_TRUE(cache.InsertPublished(MaskFor(id, true), OutcomeFor(id)));
  }
  fs::EvalOutcome got;
  uint32_t misses = 0;
  for (uint32_t id = 0; id < kResident; ++id) {
    if (!cache.Lookup(MaskFor(id, /*resident=*/false), &got)) ++misses;
  }
  EXPECT_EQ(misses, kResident);  // no phantom hits, ever
  const EvalCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, kResident);
  EXPECT_EQ(stats.hits, 0u);
}

// With no filter in front of the map, an inserted mask hits and its
// neighbour misses, each counted once.
TEST(EvalCacheFilterTest, DisabledFilterStillAnswersCorrectly) {
  ShardedEvalCache cache;
  EXPECT_TRUE(cache.InsertPublished(MaskFor(7), OutcomeFor(7)));
  fs::EvalOutcome got;
  EXPECT_TRUE(cache.Lookup(MaskFor(7), &got));
  EXPECT_EQ(got.objective, OutcomeFor(7).objective);
  EXPECT_FALSE(cache.Lookup(MaskFor(8), &got));
  const EvalCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(EvalCacheLookupTest, PublishedMasksAlwaysHit) {
  ShardedEvalCache cache;
  constexpr uint32_t kResident = 2048;
  for (uint32_t id = 0; id < kResident; ++id) {
    EXPECT_TRUE(cache.InsertPublished(MaskFor(id), OutcomeFor(id)));
  }
  fs::EvalOutcome got;
  for (uint32_t id = 0; id < kResident; ++id) {
    ASSERT_TRUE(cache.Lookup(MaskFor(id), &got)) << "entry " << id;
    EXPECT_EQ(got.objective, OutcomeFor(id).objective);
  }
  const EvalCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, kResident);
  EXPECT_EQ(stats.inserts, kResident);
}

// A pending (in-flight) entry reads as a miss through Lookup — the
// non-blocking contract — and as a blocking hit through Acquire.
TEST(EvalCacheLookupTest, PendingEntryReadsAsLookupMiss) {
  ShardedEvalCache cache;
  fs::EvalOutcome scratch;
  ASSERT_EQ(cache.Acquire(MaskFor(1), &scratch),
            ShardedEvalCache::Acquired::kOwner);
  fs::EvalOutcome got;
  EXPECT_FALSE(cache.Lookup(MaskFor(1), &got));
  cache.Publish(MaskFor(1), OutcomeFor(1));
  EXPECT_TRUE(cache.Lookup(MaskFor(1), &got));
}

// ---- OwnerGuard (dead-owner regression) -------------------------------

// An owner that unwinds without resolving must abandon its in-flight slot
// eagerly: the next Acquire of the same mask becomes a fresh owner
// instead of serializing behind (or deadlocking on) a dead one.
TEST(EvalCacheOwnerGuardTest, UnresolvedGuardAbandonsEagerly) {
  ShardedEvalCache cache;
  const fs::FeatureMask mask = MaskFor(5);
  fs::EvalOutcome scratch;
  ASSERT_EQ(cache.Acquire(mask, &scratch),
            ShardedEvalCache::Acquired::kOwner);
  { ShardedEvalCache::OwnerGuard guard(&cache, mask); }  // owner "dies"
  // Retry is a fresh owner, and the entry can be published normally.
  ASSERT_EQ(cache.Acquire(mask, &scratch),
            ShardedEvalCache::Acquired::kOwner);
  ShardedEvalCache::OwnerGuard guard(&cache, mask);
  guard.Publish(OutcomeFor(5));
  EXPECT_EQ(cache.Acquire(mask, &scratch),
            ShardedEvalCache::Acquired::kHit);
  EXPECT_EQ(scratch.objective, OutcomeFor(5).objective);
}

TEST(EvalCacheOwnerGuardTest, DeadOwnerReleasesBlockedWaiter) {
  ShardedEvalCache cache;
  const fs::FeatureMask mask = MaskFor(9);
  fs::EvalOutcome scratch;
  ASSERT_EQ(cache.Acquire(mask, &scratch),
            ShardedEvalCache::Acquired::kOwner);
  auto guard =
      std::make_unique<ShardedEvalCache::OwnerGuard>(&cache, mask);

  std::atomic<int> observed{-1};
  std::thread waiter([&] {
    fs::EvalOutcome out;
    observed.store(static_cast<int>(cache.Acquire(mask, &out)));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  guard.reset();  // dead owner: destructor abandons
  waiter.join();
  EXPECT_EQ(observed.load(),
            static_cast<int>(ShardedEvalCache::Acquired::kAbandoned));
  // The slot is free again.
  EXPECT_EQ(cache.Acquire(mask, &scratch),
            ShardedEvalCache::Acquired::kOwner);
  cache.Abandon(mask);
}

TEST(EvalCacheOwnerGuardTest, ExplicitResolveDisarmsDestructor) {
  ShardedEvalCache cache;
  const fs::FeatureMask mask = MaskFor(11);
  fs::EvalOutcome scratch;
  ASSERT_EQ(cache.Acquire(mask, &scratch),
            ShardedEvalCache::Acquired::kOwner);
  {
    ShardedEvalCache::OwnerGuard guard(&cache, mask);
    guard.Publish(OutcomeFor(11));
  }  // destructor must NOT abandon the published entry
  EXPECT_EQ(cache.Acquire(mask, &scratch), ShardedEvalCache::Acquired::kHit);
}

// ---- Registry ---------------------------------------------------------

TEST(EvalCacheRegistryTest, GetOrCreateIsKeyedByFingerprint) {
  EvalCacheRegistry registry;
  auto a = registry.GetOrCreate(1);
  auto b = registry.GetOrCreate(2);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(registry.GetOrCreate(1).get(), a.get());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(a->fingerprint(), 1u);
}

TEST(EvalCacheRegistryTest, ContainerRoundTripAcrossCaches) {
  const std::string path = ::testing::TempDir() + "/eval_caches.spill";
  EvalCacheRegistry registry;
  auto a = registry.GetOrCreate(10);
  auto b = registry.GetOrCreate(20);
  for (uint32_t id = 0; id < 8; ++id) {
    EXPECT_TRUE(a->InsertPublished(MaskFor(id), OutcomeFor(id)));
  }
  EXPECT_TRUE(b->InsertPublished(MaskFor(100), OutcomeFor(100)));
  ASSERT_TRUE(registry.SaveToFile(path).ok());

  EvalCacheRegistry restored;
  auto count = restored.LoadFromFile(path);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 9u);
  EXPECT_EQ(restored.size(), 2u);
  fs::EvalOutcome got;
  EXPECT_TRUE(restored.GetOrCreate(10)->Lookup(MaskFor(3), &got));
  ExpectOutcomeEq(OutcomeFor(3), got, 3);
  EXPECT_TRUE(restored.GetOrCreate(20)->Lookup(MaskFor(100), &got));
  const EvalCacheStats stats = restored.Stats();
  EXPECT_EQ(stats.entries, 9u);
  EXPECT_EQ(stats.restores, 1u);
  std::remove(path.c_str());
}

// A registry load counts each restored entry once in the process-wide
// cache.* counters, and one load is one cache.restores tick — the same
// totals the "cache" verb reports from the registry's own stats.
TEST(EvalCacheRegistryTest, LoadCountsEachEntryOnceInGlobalCounters) {
  const std::string path = ::testing::TempDir() + "/eval_caches_count.spill";
  constexpr uint32_t kPerCache = 50;
  {
    EvalCacheRegistry registry;
    for (uint32_t id = 0; id < kPerCache; ++id) {
      EXPECT_TRUE(registry.GetOrCreate(1)->InsertPublished(MaskFor(id),
                                                           OutcomeFor(id)));
      EXPECT_TRUE(registry.GetOrCreate(2)->InsertPublished(
          MaskFor(id + kPerCache), OutcomeFor(id + kPerCache)));
    }
    ASSERT_TRUE(registry.SaveToFile(path).ok());
  }
  auto& metrics = obs::MetricsRegistry::Global();
  const uint64_t inserts = metrics.counter("cache.inserts").value();
  const uint64_t restores = metrics.counter("cache.restores").value();
  const uint64_t restored_entries =
      metrics.counter("cache.restored_entries").value();

  EvalCacheRegistry restored;
  const auto count = restored.LoadFromFile(path);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 2 * kPerCache);
  const EvalCacheStats stats = restored.Stats();
  EXPECT_EQ(stats.inserts, 2 * kPerCache);
  EXPECT_EQ(stats.restores, 1u);
  EXPECT_EQ(metrics.counter("cache.inserts").value() - inserts,
            2 * kPerCache);
  EXPECT_EQ(metrics.counter("cache.restored_entries").value() -
                restored_entries,
            2 * kPerCache);
  EXPECT_EQ(metrics.counter("cache.restores").value() - restores,
            stats.restores);
  std::remove(path.c_str());
}

TEST(EvalCacheRegistryTest, StaleMemberRejectsWholeContainer) {
  const std::string path = ::testing::TempDir() + "/eval_caches_stale.spill";
  EvalCacheRegistry registry;
  EXPECT_TRUE(
      registry.GetOrCreate(7)->InsertPublished(MaskFor(0), OutcomeFor(0)));
  ASSERT_TRUE(registry.SaveToFile(path).ok());

  // Corrupt the member blob's suite-version field in place: container
  // header (16) + member length prefix (8) + member magic/version/reserved
  // (16) = offset 40.
  std::string container;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      container.append(buffer, n);
    }
    std::fclose(f);
  }
  PatchU64(&container, 40, kSuiteVersion + 1);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(container.data(), 1, container.size(), f);
    std::fclose(f);
  }

  EvalCacheRegistry restored;
  const auto count = restored.LoadFromFile(path);
  EXPECT_EQ(count.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(restored.size(), 0u);  // nothing half-merged
  std::remove(path.c_str());
}

TEST(EvalCacheRegistryTest, MissingContainerIsNotFound) {
  EvalCacheRegistry registry;
  EXPECT_EQ(registry.LoadFromFile("/nonexistent/registry.spill")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(EvalCacheRegistryTest, RestoreFromStringRoundTrip) {
  EvalCacheRegistry registry;
  EXPECT_TRUE(
      registry.GetOrCreate(5)->InsertPublished(MaskFor(0), OutcomeFor(0)));
  EXPECT_TRUE(
      registry.GetOrCreate(6)->InsertPublished(MaskFor(1), OutcomeFor(1)));
  const std::string path = ::testing::TempDir() + "/eval_caches_mem.spill";
  ASSERT_TRUE(registry.SaveToFile(path).ok());
  std::string container;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      container.append(buffer, n);
    }
    std::fclose(f);
  }
  std::remove(path.c_str());

  EvalCacheRegistry restored;
  const auto count = restored.RestoreFromString(container);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 2u);
  EXPECT_EQ(restored.size(), 2u);
}

TEST(EvalCacheRegistryTest, RejectsOverclaimedCacheCount) {
  EvalCacheRegistry registry;
  EXPECT_TRUE(
      registry.GetOrCreate(7)->InsertPublished(MaskFor(0), OutcomeFor(0)));
  const std::string path = ::testing::TempDir() + "/eval_caches_claim.spill";
  ASSERT_TRUE(registry.SaveToFile(path).ok());
  std::string container;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      container.append(buffer, n);
    }
    std::fclose(f);
  }
  std::remove(path.c_str());

  // The container header carries no checksum at all: a hostile member
  // count (offset 12: magic 8 + version 4) must be capped by what the
  // remaining bytes could hold before it sizes the blob vector.
  PatchU32(&container, 12, 0xFFFFFFFFu);
  EvalCacheRegistry restored;
  const auto count = restored.RestoreFromString(container, "test-blob");
  EXPECT_EQ(count.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(count.status().message().find("header claims"),
            std::string::npos);
  EXPECT_NE(count.status().message().find("test-blob"), std::string::npos);
  EXPECT_EQ(restored.size(), 0u);
}

TEST(EvalCacheRegistryTest, RejectsTruncatedMemberLength) {
  EvalCacheRegistry registry;
  EXPECT_TRUE(
      registry.GetOrCreate(8)->InsertPublished(MaskFor(0), OutcomeFor(0)));
  const std::string path = ::testing::TempDir() + "/eval_caches_trunc.spill";
  ASSERT_TRUE(registry.SaveToFile(path).ok());
  std::string container;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      container.append(buffer, n);
    }
    std::fclose(f);
  }
  std::remove(path.c_str());

  // A member length prefix pointing past the end of the container
  // (offset 16 is the first member's u64 length) must reject cleanly.
  PatchU64(&container, 16, container.size());
  EvalCacheRegistry restored;
  const auto count = restored.RestoreFromString(container);
  EXPECT_EQ(count.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(count.status().message().find("truncated"), std::string::npos);
  EXPECT_EQ(restored.size(), 0u);
}

// ---- Engine L2 integration --------------------------------------------

MlScenario CacheTestScenario(
    ml::ModelKind model = ml::ModelKind::kLogisticRegression,
    std::optional<double> privacy_epsilon = {}) {
  constraints::ConstraintSet set;
  set.min_f1 = 0.999;  // unreachable: full search sweep, many evaluations
  set.max_search_seconds = 60.0;
  set.privacy_epsilon = privacy_epsilon;
  Rng rng(301);
  auto scenario = MakeScenario(testing::MakeLinearDataset(200, 3, 300), model,
                               set, rng);
  DFS_CHECK(scenario.ok());
  return std::move(scenario).value();
}

// A second engine sharing the L2 cache must select the byte-identical
// subset while recomputing nothing: shared hits replay the same outcomes
// through the same reduction (DESIGN.md §2h preserves §2d).
TEST(EngineSharedCacheTest, WarmRunSelectsIdenticallyWithoutEvaluating) {
  const MlScenario scenario = CacheTestScenario();
  auto shared = std::make_shared<ShardedEvalCache>();
  EngineOptions options;
  options.seed = 77;
  options.num_threads = 1;
  options.shared_cache = shared;

  auto strategy = fs::CreateStrategy(fs::StrategyId::kSfs, /*seed=*/5);
  DfsEngine cold_engine(scenario, options);
  const RunResult cold = cold_engine.Run(*strategy);
  ASSERT_GT(cold.evaluations, 0);
  EXPECT_EQ(shared->size(), static_cast<size_t>(cold.evaluations));

  auto strategy2 = fs::CreateStrategy(fs::StrategyId::kSfs, /*seed=*/5);
  DfsEngine warm_engine(scenario, options);
  const RunResult warm = warm_engine.Run(*strategy2);

  EXPECT_EQ(warm.selected, cold.selected);
  EXPECT_EQ(warm.success, cold.success);
  EXPECT_EQ(warm.best_distance_validation, cold.best_distance_validation);
  EXPECT_EQ(warm.validation_values.f1, cold.validation_values.f1);
  // Every wrapper evaluation was served from the shared cache.
  EXPECT_EQ(warm.evaluations, 0);
  EXPECT_EQ(warm.cache_hits, cold.evaluations + cold.cache_hits);
}

// The shared cache must not change what a run selects — only what it
// recomputes. A run with the L2 attached and a run without must agree.
TEST(EngineSharedCacheTest, SharedCacheDoesNotChangeSelection) {
  const MlScenario scenario = CacheTestScenario();
  EngineOptions options;
  options.seed = 77;
  options.num_threads = 1;

  auto strategy = fs::CreateStrategy(fs::StrategyId::kSfs, /*seed=*/5);
  DfsEngine plain_engine(scenario, options);
  const RunResult plain = plain_engine.Run(*strategy);

  options.shared_cache = std::make_shared<ShardedEvalCache>();
  auto strategy2 = fs::CreateStrategy(fs::StrategyId::kSfs, /*seed=*/5);
  DfsEngine shared_engine(scenario, options);
  const RunResult with_shared = shared_engine.Run(*strategy2);

  EXPECT_EQ(with_shared.selected, plain.selected);
  EXPECT_EQ(with_shared.success, plain.success);
  EXPECT_EQ(with_shared.evaluations, plain.evaluations);
  EXPECT_EQ(with_shared.best_distance_validation,
            plain.best_distance_validation);
}

// Spill the shared cache, restore it into a fresh one (the daemon restart
// path), and verify a run against the restored cache is still fully warm.
TEST(EngineSharedCacheTest, WarmRestartServesFromRestoredSpill) {
  const MlScenario scenario = CacheTestScenario();
  auto shared = std::make_shared<ShardedEvalCache>();
  EngineOptions options;
  options.seed = 77;
  options.num_threads = 1;
  options.shared_cache = shared;

  auto strategy = fs::CreateStrategy(fs::StrategyId::kSfs, /*seed=*/5);
  DfsEngine cold_engine(scenario, options);
  const RunResult cold = cold_engine.Run(*strategy);
  ASSERT_GT(cold.evaluations, 0);

  auto restored = std::make_shared<ShardedEvalCache>();
  ASSERT_TRUE(restored->RestoreState(shared->Serialize()).ok());
  options.shared_cache = restored;

  auto strategy2 = fs::CreateStrategy(fs::StrategyId::kSfs, /*seed=*/5);
  DfsEngine warm_engine(scenario, options);
  const RunResult warm = warm_engine.Run(*strategy2);
  EXPECT_EQ(warm.selected, cold.selected);
  EXPECT_EQ(warm.evaluations, 0);
}

// ---- Importances in the shared cache ----------------------------------

EngineOptions ImportanceTestOptions(
    std::shared_ptr<ShardedEvalCache> shared = nullptr) {
  EngineOptions options;
  options.seed = 77;
  options.num_threads = 1;
  options.shared_cache = std::move(shared);
  return options;
}

RunResult RunRfe(const MlScenario& scenario, const EngineOptions& options) {
  auto strategy = fs::CreateStrategy(fs::StrategyId::kRfe, /*seed=*/5);
  DfsEngine engine(scenario, options);
  return engine.Run(*strategy);
}

void ExpectSameRun(const RunResult& want, const RunResult& got) {
  EXPECT_EQ(want.selected, got.selected);
  EXPECT_EQ(want.best_distance_validation, got.best_distance_validation);
  EXPECT_EQ(want.best_distance_test, got.best_distance_test);
  EXPECT_EQ(want.test_f1, got.test_f1);
}

// Every non-empty mask over `n` features, in index order.
std::vector<fs::FeatureMask> AllMasks(int n) {
  std::vector<fs::FeatureMask> masks;
  for (uint32_t bits = 1; bits < (1u << n); ++bits) {
    fs::FeatureMask mask(n, 0);
    for (int f = 0; f < n; ++f) mask[f] = (bits >> f) & 1u;
    masks.push_back(std::move(mask));
  }
  return masks;
}

class EngineImportanceCacheTest
    : public ::testing::TestWithParam<ml::ModelKind> {};

// A cold RFE run attaches the native importances of every subset it ranks;
// a warm run in the same context then ranks from the cache without one
// importance fit, and both select exactly what a run without L2 selects.
TEST_P(EngineImportanceCacheTest, WarmRfeRefitsNothingAndSelectsIdentically) {
  const MlScenario scenario = CacheTestScenario(GetParam());
  const RunResult plain = RunRfe(scenario, ImportanceTestOptions());
  ASSERT_GT(plain.evaluations, 0);

  auto shared = std::make_shared<ShardedEvalCache>();
  const RunResult cold = RunRfe(scenario, ImportanceTestOptions(shared));
  ExpectSameRun(plain, cold);
  EXPECT_EQ(cold.evaluations, plain.evaluations);
  const EvalCacheStats after_cold = shared->Stats();
  EXPECT_EQ(after_cold.importance_hits, 0u);
  ASSERT_GT(after_cold.importance_misses, 0u);

  const RunResult warm = RunRfe(scenario, ImportanceTestOptions(shared));
  ExpectSameRun(plain, warm);
  EXPECT_EQ(warm.evaluations, 0);
  const EvalCacheStats after_warm = shared->Stats();
  EXPECT_EQ(after_warm.importance_misses, after_cold.importance_misses);
  EXPECT_EQ(after_warm.importance_hits, after_cold.importance_misses);
}

// A cached vector is the one a fresh engine would fit for that mask, to
// the bit.
TEST_P(EngineImportanceCacheTest, CachedVectorEqualsFreshFit) {
  const MlScenario scenario = CacheTestScenario(GetParam());
  auto shared = std::make_shared<ShardedEvalCache>();
  RunRfe(scenario, ImportanceTestOptions(shared));

  DfsEngine fresh(scenario, ImportanceTestOptions());
  int attached = 0;
  for (const fs::FeatureMask& mask : AllMasks(fresh.num_features())) {
    std::vector<double> cached;
    if (!shared->LookupImportances(mask, &cached)) continue;
    ++attached;
    auto fitted = fresh.FittedImportances(mask);
    ASSERT_TRUE(fitted.ok());
    ASSERT_EQ(cached.size(), fitted->size());
    for (size_t i = 0; i < cached.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(cached[i]),
                std::bit_cast<uint64_t>((*fitted)[i]))
          << "feature " << i;
    }
  }
  // RFE ranks the full set and every kept subset down to two features.
  EXPECT_EQ(attached, fresh.num_features() - 1);
}

// The spill carries outcomes only: a restored cache has no importances, a
// run against it still selects identically, and it re-attaches them.
TEST_P(EngineImportanceCacheTest, RestoredSpillHasNoImportances) {
  const MlScenario scenario = CacheTestScenario(GetParam());
  auto shared = std::make_shared<ShardedEvalCache>();
  const RunResult cold = RunRfe(scenario, ImportanceTestOptions(shared));

  auto restored = std::make_shared<ShardedEvalCache>();
  ASSERT_TRUE(restored->RestoreState(shared->Serialize()).ok());
  const int n = scenario.split.train.num_features();
  std::vector<double> cached;
  for (const fs::FeatureMask& mask : AllMasks(n)) {
    EXPECT_FALSE(restored->LookupImportances(mask, &cached));
  }

  const RunResult warm = RunRfe(scenario, ImportanceTestOptions(restored));
  ExpectSameRun(cold, warm);
  EXPECT_EQ(warm.evaluations, 0);
  EXPECT_TRUE(restored->LookupImportances(fs::FullMask(n), &cached));
}

INSTANTIATE_TEST_SUITE_P(NativeImportances, EngineImportanceCacheTest,
                         ::testing::Values(ml::ModelKind::kLogisticRegression,
                                           ml::ModelKind::kDecisionTree),
                         [](const auto& info) {
                           return info.param ==
                                          ml::ModelKind::kLogisticRegression
                                      ? std::string("LR")
                                      : std::string("DT");
                         });

// Models without native importances (NB, DP-NB, DP-DT) rank by permutation
// importance drawn from the run's RNG: never attached, always recomputed,
// and the run matches one without L2.
TEST(EngineImportanceFallbackTest, PermutationFallbackIsNeverAttached) {
  const std::vector<MlScenario> scenarios = {
      CacheTestScenario(ml::ModelKind::kNaiveBayes),
      CacheTestScenario(ml::ModelKind::kDecisionTree, /*privacy_epsilon=*/1.0),
  };
  for (const MlScenario& scenario : scenarios) {
    const RunResult plain = RunRfe(scenario, ImportanceTestOptions());
    auto shared = std::make_shared<ShardedEvalCache>();
    const RunResult with_shared =
        RunRfe(scenario, ImportanceTestOptions(shared));
    ExpectSameRun(plain, with_shared);
    EXPECT_EQ(with_shared.evaluations, plain.evaluations);

    int visited = 0;
    fs::EvalOutcome outcome;
    std::vector<double> cached;
    for (const fs::FeatureMask& mask :
         AllMasks(scenario.split.train.num_features())) {
      if (!shared->Lookup(mask, &outcome)) continue;
      ++visited;
      EXPECT_FALSE(shared->LookupImportances(mask, &cached));
    }
    EXPECT_GT(visited, 0);
  }
}

// ---- Concurrent churn (TSan fleet) ------------------------------------

// Lookups, inserts, importance attaches and lookups, acquire/publish/
// abandon, spills, restores and stats reads all race on one cache. Run under TSan by scripts/check.sh
// --sanitize.
TEST(EvalCacheChurnTest, ConcurrentLookupInsertSpillChurn) {
  ShardedEvalCache cache(EvalCacheOptions{.num_shards = 4});
  constexpr int kThreads = 8;
  constexpr uint32_t kMasks = 1024;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> wrong{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      fs::EvalOutcome got;
      std::vector<double> importances;
      for (uint32_t round = 0; round < 400 && !stop.load(); ++round) {
        const uint32_t id = (round * 17 + t * 131) % kMasks;
        switch (t % 4) {
          case 0:  // insert-publish, then attach importances
            cache.InsertPublished(MaskFor(id), OutcomeFor(id));
            cache.AttachImportances(MaskFor(id), ImportancesFor(id));
            break;
          case 1:  // non-blocking lookups: a hit must carry the right value
            if (cache.Lookup(MaskFor(id), &got) &&
                got.objective != OutcomeFor(id).objective) {
              wrong.fetch_add(1);
            }
            if (cache.LookupImportances(MaskFor(id), &importances) &&
                importances != ImportancesFor(id)) {
              wrong.fetch_add(1);
            }
            break;
          case 2:  // in-flight dedup traffic, including abandons
            switch (cache.Acquire(MaskFor(id), &got)) {
              case ShardedEvalCache::Acquired::kOwner:
                if (id % 5 == 0) {
                  cache.Abandon(MaskFor(id));
                } else {
                  cache.Publish(MaskFor(id), OutcomeFor(id));
                  cache.AttachImportances(MaskFor(id), ImportancesFor(id));
                }
                break;
              case ShardedEvalCache::Acquired::kHit:
                if (got.objective != OutcomeFor(id).objective) {
                  wrong.fetch_add(1);
                }
                break;
              case ShardedEvalCache::Acquired::kAbandoned:
                break;
            }
            break;
          case 3:  // spill/restore + stats under load
            if (round % 16 == 0) {
              ShardedEvalCache scratch_cache;
              if (!scratch_cache.RestoreState(cache.Serialize()).ok()) {
                wrong.fetch_add(1);
              }
            } else {
              const EvalCacheStats stats = cache.Stats();
              if (stats.shard_entries.size() != 4) wrong.fetch_add(1);
            }
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(cache.size(), 0u);
}

}  // namespace
}  // namespace dfs::core
