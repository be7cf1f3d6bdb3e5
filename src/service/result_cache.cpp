#include "service/result_cache.hpp"

#include <algorithm>

#include "core/config_hash.hpp"
#include "util/error.hpp"

namespace crowdrank::service {

namespace {

/// Separates cache keys from frame checksums and any other StableHash use.
constexpr std::uint64_t kCacheKeySeed = 0x43414348;  // "CACH"

/// A vote's key bytes: u64 worker, u64 i, u64 j, u8 prefers_i.
constexpr std::size_t kVoteKeyBytes = 25;
/// Votes staged per add_bytes call (a 3.2 KB stack buffer).
constexpr std::size_t kVotesPerChunk = 128;

}  // namespace

const char* cache_control_name(CacheControl control) {
  switch (control) {
    case CacheControl::Default:
      return "default";
    case CacheControl::Bypass:
      return "bypass";
    case CacheControl::Refresh:
      return "refresh";
    case CacheControl::RequireHit:
      return "require_hit";
  }
  return "unknown";
}

CacheKey compute_cache_key(const VoteBatch& votes, std::size_t object_count,
                           std::size_t worker_count, std::uint64_t seed,
                           const InferenceConfig& inference, bool repair,
                           const HardeningPolicy* policy) {
  StableHash hash(kCacheKeySeed);
  hash.add_u64(kCacheKeySchema);
  hash.add_u64(votes.size());
  // Byte-for-byte what add_u64(worker), add_u64(i), add_u64(j),
  // add_bool(prefers_i) per vote would append, handed to the hash a chunk
  // at a time so it consumes whole blocks instead of 8-byte pieces.
  std::uint8_t chunk[kVotesPerChunk * kVoteKeyBytes];
  for (std::size_t first = 0; first < votes.size(); first += kVotesPerChunk) {
    const std::size_t last = std::min(votes.size(), first + kVotesPerChunk);
    std::uint8_t* out = chunk;
    for (std::size_t v = first; v < last; ++v) {
      const Vote vote = votes[v];  // read before the stores may alias it
      out = StableHash::put_u64(out, vote.worker);
      out = StableHash::put_u64(out, vote.i);
      out = StableHash::put_u64(out, vote.j);
      *out++ = vote.prefers_i ? 1 : 0;
    }
    hash.add_bytes(chunk, static_cast<std::size_t>(out - chunk));
  }
  hash.add_u64(object_count);
  hash.add_u64(worker_count);
  hash.add_u64(seed);
  hash.add_bool(repair);
  // The policy only shapes the repair path; strict-path keys ignore it so
  // callers there need not supply one (RankParams documents hardening as
  // required only when repair).
  if (repair) {
    CR_EXPECTS(policy != nullptr,
               "compute_cache_key: repair = true requires a hardening policy");
    hash.add_bool(policy->drop_out_of_range);
    hash.add_bool(policy->drop_self_votes);
    hash.add_bool(policy->drop_duplicates);
    hash.add_bool(policy->drop_conflicting);
    hash.add_bool(policy->restrict_to_largest_component);
  }
  hash_append(hash, inference);
  return hash.digest();
}

ResultCache::ResultCache(ResultCacheConfig config)
    : config_(std::move(config)) {
  CR_EXPECTS(config_.capacity >= 1,
             "ResultCache capacity must be at least 1");
  if (!config_.disk_dir.empty()) {
    // Best-effort: an uncreatable directory degrades to memory-only
    // behavior, surfacing as disk_errors on every write attempt.
    artifact::ensure_directory(config_.disk_dir);
  }
}

std::string ResultCache::artifact_path(const std::string& dir,
                                       const CacheKey& key) {
  return dir + "/" + key.hex() + ".crart";
}

void ResultCache::count(const char* event) {
  if (config_.metrics != nullptr) {
    config_.metrics->counter(std::string("service.cache.") + event).add(1);
  }
}

void ResultCache::store_in_memory(const CacheKey& key,
                                  const CachedResult& result) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = result;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.emplace_front(key, result);
    index_.emplace(key, lru_.begin());
  }
  ++stats_.insertions;
  while (lru_.size() > config_.capacity) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    count("eviction");
  }
}

std::optional<CachedResult> ResultCache::lookup(const CacheKey& key) {
  {
    MutexLock lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      count("hit");
      return it->second->second;
    }
    if (config_.disk_dir.empty()) {
      ++stats_.misses;
      count("miss");
      return std::nullopt;
    }
  }
  // The disk read + decode run unlocked: a cold lookup must not serialize
  // every other executor behind one thread's IO. Keys are content hashes,
  // so a racing insert/promote of the same key stores the identical value
  // and the re-acquired store below harmlessly overwrites it.
  const artifact::Result<std::string> bytes =
      artifact::read_file(artifact_path(config_.disk_dir, key));
  artifact::Result<CachedResult> decoded;
  if (bytes.ok()) {
    decoded = artifact::decode_result(*bytes.value);
  }
  MutexLock lock(mutex_);
  if (decoded.ok()) {
    store_in_memory(key, *decoded.value);
    ++stats_.disk_hits;
    count("disk_hit");
    return std::move(decoded.value);
  }
  if (bytes.ok()) {
    // Unreadable artifact (corruption, schema drift): a miss, counted.
    ++stats_.disk_errors;
    count("disk_error");
  }
  ++stats_.misses;
  count("miss");
  return std::nullopt;
}

void ResultCache::insert(const CacheKey& key, const CachedResult& result) {
  {
    MutexLock lock(mutex_);
    store_in_memory(key, result);
    count("insert");
  }
  if (config_.disk_dir.empty()) {
    return;
  }
  // Encode + write outside the mutex (same reasoning as lookup); only the
  // stats update re-acquires it. write_file is tmp-then-rename, so two
  // racing writers of one key both leave a complete artifact behind.
  const std::optional<artifact::ArtifactError> error = artifact::write_file(
      artifact_path(config_.disk_dir, key), artifact::encode(result));
  MutexLock lock(mutex_);
  if (error.has_value()) {
    ++stats_.disk_errors;
    count("disk_error");
  } else {
    ++stats_.disk_writes;
    count("disk_write");
  }
}

std::size_t ResultCache::size() const {
  MutexLock lock(mutex_);
  return lru_.size();
}

CacheStats ResultCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace crowdrank::service
