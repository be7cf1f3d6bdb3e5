// Content-addressed result cache: warm serving for repeated ranking work.
//
// Every completed job is keyed by a stable 128-bit content hash of
// everything that can change its output — the vote batch (order included:
// the engine consumes votes in batch order), the object/worker universe,
// the seed, the hardening policy, and the output-affecting subset of the
// inference config (core/config_hash.hpp). A resubmission of the same
// work hits the cache and returns the stored `RankedResult` without
// touching validate→harden→infer; the determinism contract (results
// depend only on job + seed) is exactly what makes the stored answer
// bitwise-identical to a recomputation, and tests/core/test_determinism
// pins that.
//
// Two tiers:
//  * Memory: bounded LRU (capacity entries, strict), O(log n) lookup.
//  * Disk (optional): every insertion also lands as a framed artifact
//    `<dir>/<key-hex>.crart` through service/artifact.hpp, and a memory
//    miss falls through to the disk before counting as a miss — this is
//    what survives process restarts and what `crowdrank index` /
//    `crowdrank query` share. Corrupted or version-mismatched disk
//    entries are rejected by the artifact reader and simply miss.
//
// Eviction drops memory entries only; the disk tier is the persistent
// record and is never garbage-collected here. All operations are
// thread-safe (the service's executors share one cache) and all metrics
// land on the optional `metrics::Registry` as `service.cache.*` counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "core/pipeline.hpp"
#include "crowd/vote.hpp"
#include "service/artifact.hpp"
#include "service/hardening.hpp"
#include "service/job.hpp"
#include "util/hash.hpp"
#include "util/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace crowdrank::service {

/// The cache key is a StableHash digest; its hex() form is the artifact
/// key callers see in responses and on disk.
using CacheKey = HashDigest;

/// What a hit returns: the deterministic deliverable of a finished job.
using CachedResult = artifact::RankedResult;

/// Bump when the key derivation below changes shape (the config subset
/// has its own schema constant in core/config_hash.hpp).
/// v2: the hardening policy enters the hash only when `repair` is true —
/// the strict path never consults it, so it is not content there.
/// v3: bounded-horizon SpectralLimit results may come from the row-blocked
/// engine, whose closures differ from the doubling's in the last bits, so
/// entries cached under v2 are not the answers this engine gives.
inline constexpr std::uint64_t kCacheKeySchema = 3;

/// Derives the content key. Votes are hashed in batch order — the engine
/// is order-sensitive, so reordered batches are different work, not the
/// same entry. `policy` is required when `repair` is true and ignored
/// (may be null) otherwise: hardening does not run on the strict path,
/// so it cannot affect the output there.
CacheKey compute_cache_key(const VoteBatch& votes, std::size_t object_count,
                           std::size_t worker_count, std::uint64_t seed,
                           const InferenceConfig& inference, bool repair,
                           const HardeningPolicy* policy);

struct ResultCacheConfig {
  /// Memory-tier bound (entries, >= 1). Exceeding it evicts strict LRU.
  std::size_t capacity = 64;
  /// Disk tier directory; empty = memory-only. Created if missing.
  std::string disk_dir;
  /// Optional metrics plane: `service.cache.{hit,miss,eviction,insert,
  /// disk_hit,disk_write,disk_error}` counters land here.
  metrics::Registry* metrics = nullptr;
};

/// Monotonic operation counters, readable at any time.
struct CacheStats {
  std::uint64_t hits = 0;        ///< memory-tier hits
  std::uint64_t misses = 0;      ///< both tiers missed
  std::uint64_t evictions = 0;   ///< memory entries dropped by the bound
  std::uint64_t insertions = 0;  ///< entries stored (insert + disk promote)
  std::uint64_t disk_hits = 0;   ///< memory missed, disk served
  std::uint64_t disk_writes = 0; ///< artifacts persisted
  std::uint64_t disk_errors = 0; ///< unreadable/corrupt/unwritable artifacts
};

class ResultCache {
 public:
  explicit ResultCache(ResultCacheConfig config = {});
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  const ResultCacheConfig& config() const { return config_; }

  /// Memory tier first (refreshing LRU order), then the disk tier (a disk
  /// hit is promoted into memory). Disengaged = miss on both. Disk reads
  /// happen outside the cache mutex, so one cold lookup never stalls
  /// concurrent executors.
  std::optional<CachedResult> lookup(const CacheKey& key);

  /// Stores (or overwrites) the entry, evicting LRU past capacity, and
  /// persists it to the disk tier when one is configured (the disk write
  /// also runs outside the mutex).
  void insert(const CacheKey& key, const CachedResult& result);

  /// Entries currently resident in the memory tier.
  std::size_t size() const;

  CacheStats stats() const;

  /// Where a key's artifact lives on the disk tier: `<dir>/<hex>.crart`.
  static std::string artifact_path(const std::string& dir,
                                   const CacheKey& key);

 private:
  void count(const char* event);
  void store_in_memory(const CacheKey& key, const CachedResult& result)
      CR_REQUIRES(mutex_);

  using LruList = std::list<std::pair<CacheKey, CachedResult>>;

  const ResultCacheConfig config_;
  mutable Mutex mutex_;
  LruList lru_ CR_GUARDED_BY(mutex_);  ///< front = most recent
  std::map<CacheKey, LruList::iterator> index_ CR_GUARDED_BY(mutex_);
  CacheStats stats_ CR_GUARDED_BY(mutex_);
};

}  // namespace crowdrank::service
