#include "util/hash.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace crowdrank {

namespace {

constexpr std::uint64_t kC1 = 0x87c37b91114253d5ULL;
constexpr std::uint64_t kC2 = 0x4cf5ad432745937fULL;

std::uint64_t fmix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// One MurmurHash3-x64-128 body round over the 16-byte block (k1, k2).
/// Works on caller locals so the bulk loop keeps the state in registers.
void mix_block(std::uint64_t& h1, std::uint64_t& h2, std::uint64_t k1,
               std::uint64_t k2) {
  k1 *= kC1;
  k1 = std::rotl(k1, 31);
  k1 *= kC2;
  h1 ^= k1;
  h1 = std::rotl(h1, 27);
  h1 += h2;
  h1 = h1 * 5 + 0x52dce729;

  k2 *= kC2;
  k2 = std::rotl(k2, 33);
  k2 *= kC1;
  h2 ^= k2;
  h2 = std::rotl(h2, 31);
  h2 += h1;
  h2 = h2 * 5 + 0x38495ab5;
}

}  // namespace

std::string HashDigest::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = i < 8 ? hi : lo;
    const int shift = 56 - 8 * (i % 8);
    const std::uint8_t byte = static_cast<std::uint8_t>(word >> shift);
    out[2 * static_cast<std::size_t>(i)] = kDigits[byte >> 4];
    out[2 * static_cast<std::size_t>(i) + 1] = kDigits[byte & 0xf];
  }
  return out;
}

StableHash::StableHash(std::uint64_t seed) : h1_(seed), h2_(seed) {}

void StableHash::add_bytes(const void* data, std::size_t size) {
  if (size == 0) {
    return;  // `data` may be null here (an empty string_view)
  }
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_ += size;
  std::uint64_t h1 = h1_;
  std::uint64_t h2 = h2_;
  // Top up a partial block left by an earlier call.
  if (tail_size_ > 0) {
    const std::size_t take = std::min(size, sizeof(tail_) - tail_size_);
    std::memcpy(tail_ + tail_size_, p, take);
    tail_size_ += take;
    p += take;
    size -= take;
    if (tail_size_ < sizeof(tail_)) {
      return;
    }
    mix_block(h1, h2, load_le64(tail_), load_le64(tail_ + 8));
    tail_size_ = 0;
  }
  // Whole blocks straight from the input; only the remainder is buffered.
  for (; size >= sizeof(tail_); p += sizeof(tail_), size -= sizeof(tail_)) {
    mix_block(h1, h2, load_le64(p), load_le64(p + 8));
  }
  if (size > 0) {
    std::memcpy(tail_, p, size);
    tail_size_ = size;
  }
  h1_ = h1;
  h2_ = h2;
}

void StableHash::add_u8(std::uint8_t value) { add_bytes(&value, 1); }

void StableHash::add_u32(std::uint32_t value) {
  std::uint8_t bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  add_bytes(bytes, sizeof(bytes));
}

void StableHash::add_u64(std::uint64_t value) {
  std::uint8_t bytes[8];
  put_u64(bytes, value);
  add_bytes(bytes, sizeof(bytes));
}

void StableHash::add_double(double value) {
  add_u64(std::bit_cast<std::uint64_t>(value));
}

void StableHash::add_string(std::string_view value) {
  add_u64(value.size());
  add_bytes(value.data(), value.size());
}

HashDigest StableHash::digest() const {
  std::uint64_t h1 = h1_;
  std::uint64_t h2 = h2_;

  // Tail: the buffered 0..15 bytes, zero-padded, mixed without the body
  // rotation (MurmurHash3's tail schedule, unrolled via the padded load).
  if (tail_size_ > 0) {
    std::uint8_t padded[16] = {};
    std::memcpy(padded, tail_, tail_size_);
    std::uint64_t k1 = load_le64(padded);
    std::uint64_t k2 = load_le64(padded + 8);
    k2 *= kC2;
    k2 = std::rotl(k2, 33);
    k2 *= kC1;
    h2 ^= k2;
    k1 *= kC1;
    k1 = std::rotl(k1, 31);
    k1 *= kC2;
    h1 ^= k1;
  }

  h1 ^= total_;
  h2 ^= total_;
  h1 += h2;
  h2 += h1;
  h1 = fmix64(h1);
  h2 = fmix64(h2);
  h1 += h2;
  h2 += h1;
  return {h1, h2};
}

}  // namespace crowdrank
