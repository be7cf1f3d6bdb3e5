// StableHash: a deterministic, platform-stable 128-bit content hash.
//
// The artifact store and the service result cache key everything by
// content: a cache entry written on one machine (or in a previous process)
// must be found by any other, and an artifact checksum must verify years
// after it was written. That rules out std::hash (unspecified, per-process
// salted for strings on some standard libraries) and anything touching
// pointers, locales, or build stamps. StableHash is a streaming
// MurmurHash3-x64-128 variant over an explicit little-endian byte
// encoding: callers append primitives through the typed `add_*` methods
// (doubles go in as their IEEE-754 bit pattern, so +0.0 and -0.0 hash
// differently and NaN payloads are preserved), and the digest depends only
// on the appended byte sequence. Pure integer arithmetic — identical
// output on every platform, compiler, and optimization level.
//
// Not cryptographic: keys are for deduplication and corruption detection,
// not authentication.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace crowdrank {

/// 128-bit digest. Ordered so it can key a std::map deterministically.
struct HashDigest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const HashDigest&, const HashDigest&) = default;
  friend auto operator<=>(const HashDigest&, const HashDigest&) = default;

  /// 32 lowercase hex characters, hi first — the canonical on-disk key.
  std::string hex() const;
};

class StableHash {
 public:
  /// `seed` separates key spaces (e.g. frame checksums vs. cache keys).
  explicit StableHash(std::uint64_t seed = 0);

  /// Whole 16-byte blocks are mixed straight from `data`; only a partial
  /// block is buffered, so one large call costs what the hash costs.
  void add_bytes(const void* data, std::size_t size);
  void add_u8(std::uint8_t value);
  void add_u32(std::uint32_t value);
  void add_u64(std::uint64_t value);
  void add_bool(bool value) { add_u8(value ? 1 : 0); }
  /// IEEE-754 bit pattern, not numeric value.
  void add_double(double value);
  /// Length-prefixed, so {"ab","c"} and {"a","bc"} hash differently.
  void add_string(std::string_view value);

  /// Writes the 8 bytes add_u64(value) appends to `out` and returns
  /// `out + 8`: callers hashing many fields stage them in a buffer and
  /// pass it to add_bytes in one call.
  static std::uint8_t* put_u64(std::uint8_t* out, std::uint64_t value) {
    if constexpr (std::endian::native == std::endian::big) {
      value = __builtin_bswap64(value);
    }
    std::memcpy(out, &value, sizeof(value));
    return out + sizeof(value);
  }

  /// Finalizes a copy of the state: the hasher stays usable, and digests
  /// taken at different prefixes are all valid.
  HashDigest digest() const;
  /// `digest().lo` — the 64-bit truncation used for frame checksums.
  std::uint64_t digest64() const { return digest().lo; }

 private:
  std::uint64_t h1_;
  std::uint64_t h2_;
  std::uint8_t tail_[16] = {};
  std::size_t tail_size_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace crowdrank
