// StableHash (util/hash.hpp): the content-addressing primitive under the
// artifact checksums and the result-cache keys. The tests pin the actual
// digest values — the hash is a persistence format, so any change to its
// output is a breaking format change and must fail here first.
#include "util/hash.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace crowdrank {
namespace {

/// Bytewise reference for StableHash: records the appended bytes exactly
/// as the documented encoding defines them (little-endian integers, IEEE
/// bit patterns, length-prefixed strings) and runs textbook
/// MurmurHash3-x64-128 over the whole sequence at digest time, one byte
/// at a time. Independent of StableHash's buffering, so any divergence in
/// how StableHash streams its input shows up as a digest mismatch.
class ReferenceHash {
 public:
  explicit ReferenceHash(std::uint64_t seed) : seed_(seed) {}

  void add_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }
  void add_u8(std::uint8_t value) { bytes_.push_back(value); }
  void add_u32(std::uint32_t value) { add_le(value, 4); }
  void add_u64(std::uint64_t value) { add_le(value, 8); }
  void add_bool(bool value) { add_u8(value ? 1 : 0); }
  void add_double(double value) {
    add_u64(std::bit_cast<std::uint64_t>(value));
  }
  void add_string(const std::string& value) {
    add_u64(value.size());
    add_bytes(value.data(), value.size());
  }

  HashDigest digest() const {
    constexpr std::uint64_t c1 = 0x87c37b91114253d5ULL;
    constexpr std::uint64_t c2 = 0x4cf5ad432745937fULL;
    const std::size_t blocks = bytes_.size() / 16;
    std::uint64_t h1 = seed_;
    std::uint64_t h2 = seed_;
    for (std::size_t b = 0; b < blocks; ++b) {
      std::uint64_t k1 = word(16 * b, 8);
      std::uint64_t k2 = word(16 * b + 8, 8);
      k1 *= c1;
      k1 = std::rotl(k1, 31);
      k1 *= c2;
      h1 ^= k1;
      h1 = std::rotl(h1, 27);
      h1 += h2;
      h1 = h1 * 5 + 0x52dce729;
      k2 *= c2;
      k2 = std::rotl(k2, 33);
      k2 *= c1;
      h2 ^= k2;
      h2 = std::rotl(h2, 31);
      h2 += h1;
      h2 = h2 * 5 + 0x38495ab5;
    }
    const std::size_t tail = 16 * blocks;
    const std::size_t rest = bytes_.size() - tail;
    if (rest > 8) {
      std::uint64_t k2 = word(tail + 8, rest - 8);
      k2 *= c2;
      k2 = std::rotl(k2, 33);
      k2 *= c1;
      h2 ^= k2;
    }
    if (rest > 0) {
      std::uint64_t k1 = word(tail, rest < 8 ? rest : 8);
      k1 *= c1;
      k1 = std::rotl(k1, 31);
      k1 *= c2;
      h1 ^= k1;
    }
    h1 ^= bytes_.size();
    h2 ^= bytes_.size();
    h1 += h2;
    h2 += h1;
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 += h2;
    h2 += h1;
    return {h1, h2};
  }

 private:
  void add_le(std::uint64_t value, int width) {
    for (int b = 0; b < width; ++b) {
      bytes_.push_back(static_cast<std::uint8_t>(value >> (8 * b)));
    }
  }

  /// Little-endian word from `width` (1..8) bytes at `offset`.
  std::uint64_t word(std::size_t offset, std::size_t width) const {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < width; ++b) {
      v |= static_cast<std::uint64_t>(bytes_[offset + b]) << (8 * b);
    }
    return v;
  }

  static std::uint64_t fmix64(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
  }

  std::uint64_t seed_;
  std::vector<std::uint8_t> bytes_;
};

TEST(StableHash, EmptyInputDigestIsPinned) {
  // Murmur3 x64-128 of zero bytes with seed 0. Pinned forever: if this
  // moves, every artifact checksum and cache key on disk is invalidated.
  EXPECT_EQ(StableHash(0).digest().hex(), "00000000000000000000000000000000");
}

TEST(StableHash, KnownAnswerIsPinned) {
  // Golden value pinned at the format's introduction; guards byte order,
  // tail handling, and finalization across platforms and compilers.
  StableHash hash(0);
  hash.add_string("crowdrank");
  EXPECT_EQ(hash.digest().hex(), "cdcc0ac1eb9a8ebd908390a3c8ae1870");
}

TEST(StableHash, HexIs32LowercaseDigits) {
  StableHash hash(7);
  hash.add_u64(1234);
  const std::string hex = hash.digest().hex();
  ASSERT_EQ(hex.size(), 32u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
        << "unexpected hex character " << c;
  }
}

TEST(StableHash, StreamingMatchesOneShot) {
  // Chunking must not matter: the cache key is built field-by-field while
  // the artifact checksum hashes one contiguous buffer.
  const std::string bytes = "the quick brown fox jumps over the lazy dog";
  StableHash one_shot(42);
  one_shot.add_bytes(bytes.data(), bytes.size());
  for (std::size_t split = 1; split < bytes.size(); split += 7) {
    StableHash streamed(42);
    streamed.add_bytes(bytes.data(), split);
    streamed.add_bytes(bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(streamed.digest(), one_shot.digest()) << "split " << split;
  }
}

TEST(StableHash, DigestDoesNotConsumeTheHasher) {
  StableHash hash(1);
  hash.add_u32(5);
  const HashDigest first = hash.digest();
  EXPECT_EQ(hash.digest(), first);  // digest() finalizes a copy
  hash.add_u32(6);
  EXPECT_NE(hash.digest(), first);
}

TEST(StableHash, SeedsSeparateKeySpaces) {
  StableHash a(0x43524146);  // "CRAF"
  StableHash b(0x43414348);  // "CACH"
  a.add_u64(99);
  b.add_u64(99);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(StableHash, EveryFieldPerturbsTheDigest) {
  const auto base = [] {
    StableHash h(3);
    h.add_u8(1);
    h.add_u32(2);
    h.add_u64(3);
    h.add_bool(true);
    h.add_double(0.5);
    h.add_string("x");
    return h.digest();
  }();
  {
    StableHash h(3);
    h.add_u8(2);  // changed
    h.add_u32(2);
    h.add_u64(3);
    h.add_bool(true);
    h.add_double(0.5);
    h.add_string("x");
    EXPECT_NE(h.digest(), base);
  }
  {
    StableHash h(3);
    h.add_u8(1);
    h.add_u32(2);
    h.add_u64(3);
    h.add_bool(false);  // changed
    h.add_double(0.5);
    h.add_string("x");
    EXPECT_NE(h.digest(), base);
  }
  {
    StableHash h(3);
    h.add_u8(1);
    h.add_u32(2);
    h.add_u64(3);
    h.add_bool(true);
    h.add_double(-0.5);  // changed
    h.add_string("x");
    EXPECT_NE(h.digest(), base);
  }
}

TEST(StableHash, DoubleHashesBitPattern) {
  // +0.0 and -0.0 compare equal but are different bit patterns — the hash
  // is over representation, so they must differ (and stay reproducible).
  StableHash pos(0);
  StableHash neg(0);
  pos.add_double(0.0);
  neg.add_double(-0.0);
  EXPECT_NE(pos.digest(), neg.digest());
}

TEST(StableHash, StringsAreLengthPrefixed) {
  // ("ab", "c") must not collide with ("a", "bc").
  StableHash left(0);
  left.add_string("ab");
  left.add_string("c");
  StableHash right(0);
  right.add_string("a");
  right.add_string("bc");
  EXPECT_NE(left.digest(), right.digest());
}

TEST(StableHash, Digest64IsLowWord) {
  StableHash hash(9);
  hash.add_u64(77);
  EXPECT_EQ(hash.digest64(), hash.digest().lo);
}

TEST(StableHash, ReferenceReproducesThePinnedKnownAnswer) {
  // Ties the reference below to the persisted format before it is used
  // as the oracle for StableHash's streaming.
  ReferenceHash reference(0);
  reference.add_string("crowdrank");
  EXPECT_EQ(reference.digest().hex(), "cdcc0ac1eb9a8ebd908390a3c8ae1870");
  EXPECT_EQ(ReferenceHash(0).digest().hex(),
            "00000000000000000000000000000000");
}

TEST(StableHash, MatchesBytewiseReferenceOnRandomCallMixes) {
  // Seeded random sequences of every add_* call, with add_bytes chunks of
  // 0..47 bytes: a partial tail topped up, whole blocks read straight
  // from the input, and a buffered remainder, in every combination and
  // at every tail offset. Digests are also compared at every prefix.
  std::mt19937_64 gen(20170605);
  std::vector<std::uint8_t> pool(64);
  for (std::uint8_t& byte : pool) {
    byte = static_cast<std::uint8_t>(gen());
  }
  for (int trial = 0; trial < 1000; ++trial) {
    const std::uint64_t seed = gen();
    StableHash hash(seed);
    ReferenceHash reference(seed);
    const int calls = static_cast<int>(gen() % 40);
    for (int c = 0; c < calls; ++c) {
      const std::uint64_t value = gen();
      switch (gen() % 7) {
        case 0: {
          const std::size_t size = value % 48;
          const std::size_t offset = (value >> 8) % (pool.size() - size + 1);
          hash.add_bytes(pool.data() + offset, size);
          reference.add_bytes(pool.data() + offset, size);
          break;
        }
        case 1:
          hash.add_u8(static_cast<std::uint8_t>(value));
          reference.add_u8(static_cast<std::uint8_t>(value));
          break;
        case 2:
          hash.add_u32(static_cast<std::uint32_t>(value));
          reference.add_u32(static_cast<std::uint32_t>(value));
          break;
        case 3:
          hash.add_u64(value);
          reference.add_u64(value);
          break;
        case 4:
          hash.add_bool((value & 1) != 0);
          reference.add_bool((value & 1) != 0);
          break;
        case 5:
          hash.add_double(std::bit_cast<double>(value));
          reference.add_double(std::bit_cast<double>(value));
          break;
        default: {
          const std::string text(value % 40, static_cast<char>('a' + c));
          hash.add_string(text);
          reference.add_string(text);
          break;
        }
      }
      ASSERT_EQ(hash.digest(), reference.digest())
          << "trial " << trial << ", call " << c;
    }
  }
}

TEST(StableHash, MatchesBytewiseReferenceAtEverySplit) {
  // One 96-byte buffer appended as [0, split) + [split, 96) after a
  // 0..15-byte lead-in, for every split 0..47: covers top-up of each tail
  // size, the bulk loop, and each remainder length.
  std::vector<std::uint8_t> bytes(96);
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    bytes[k] = static_cast<std::uint8_t>(k * 37 + 11);
  }
  for (std::size_t lead = 0; lead < 16; ++lead) {
    for (std::size_t split = 0; split < 48; ++split) {
      StableHash hash(lead);
      ReferenceHash reference(lead);
      hash.add_bytes(bytes.data(), lead);
      reference.add_bytes(bytes.data(), lead);
      hash.add_bytes(bytes.data() + lead, split);
      reference.add_bytes(bytes.data() + lead, split);
      hash.add_bytes(bytes.data() + lead + split, bytes.size() - lead - split);
      reference.add_bytes(bytes.data() + lead + split,
                          bytes.size() - lead - split);
      EXPECT_EQ(hash.digest(), reference.digest())
          << "lead " << lead << ", split " << split;
    }
  }
}

TEST(HashDigest, OrderingIsLexicographic) {
  const HashDigest a{1, 2};
  const HashDigest b{1, 3};
  const HashDigest c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (HashDigest{1, 2}));
}

}  // namespace
}  // namespace crowdrank
