/// Tests for the bulk-byte hash (support/hash): the published XXH64
/// vectors, alignment independence, and sensitivity to every input bit
/// across the stripe loop and the 8-, 4- and 1-byte tails.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "support/hash.hpp"

namespace bstc {
namespace {

std::uint64_t hash_str(const std::string& s, std::uint64_t seed = 0) {
  return hash64(s.data(), s.size(), seed);
}

TEST(Hash64, MatchesPublishedXxh64Vectors) {
  EXPECT_EQ(hash_str(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(hash_str("a"), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(hash_str("abc"), 0x44BC2CF5AD770999ull);
  // 39 bytes: one 32-byte stripe, then the 4- and 1-byte tails.
  EXPECT_EQ(hash_str("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ull);
  EXPECT_EQ(hash_str("xxhash"), 0x32DD38952C4BC720ull);
  EXPECT_EQ(hash_str("xxhash", 20141025), 0xB559B98D844E0635ull);
}

TEST(Hash64, NullWithZeroLengthIsTheEmptyHash) {
  EXPECT_EQ(hash64(nullptr, 0), hash_str(""));
  EXPECT_EQ(hash64(nullptr, 0, 7), hash_str("", 7));
}

TEST(Hash64, SameBytesHashEquallyAtEveryAlignment) {
  std::vector<unsigned char> ref(97);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  std::vector<unsigned char> buf(ref.size() + 8);
  for (std::size_t len : {0u, 3u, 7u, 8u, 31u, 32u, 33u, 64u, 97u}) {
    const std::uint64_t want = hash64(ref.data(), len, 99);
    for (std::size_t off = 0; off < 8; ++off) {
      std::memcpy(buf.data() + off, ref.data(), len);
      EXPECT_EQ(hash64(buf.data() + off, len, 99), want)
          << "len " << len << " offset " << off;
    }
  }
}

TEST(Hash64, EverySingleBitFlipChangesTheHash) {
  // 97 = 3 stripes (96 bytes) + 1; the 0..96 prefixes below also walk
  // each tail branch: 8-byte words, a 4-byte word and single bytes.
  std::vector<unsigned char> bytes(97);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  for (std::size_t len : {1u, 4u, 5u, 8u, 13u, 32u, 45u, 97u}) {
    const std::uint64_t base = hash64(bytes.data(), len);
    std::set<std::uint64_t> seen{base};
    for (std::size_t bit = 0; bit < len * 8; ++bit) {
      std::vector<unsigned char> flipped(bytes.begin(), bytes.begin() + len);
      flipped[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
      const std::uint64_t h = hash64(flipped.data(), len);
      EXPECT_NE(h, base) << "len " << len << " bit " << bit;
      seen.insert(h);
    }
    EXPECT_EQ(seen.size(), len * 8 + 1) << "len " << len;
  }
}

TEST(Hash64, SeedAndLengthAreFoldedIn) {
  const std::vector<unsigned char> zeros(64, 0);
  EXPECT_NE(hash64(zeros.data(), 64, 0), hash64(zeros.data(), 64, 1));
  // Trailing zero bytes are not absorbed: length is part of the hash.
  std::set<std::uint64_t> by_len;
  for (std::size_t len = 0; len <= 64; ++len) {
    by_len.insert(hash64(zeros.data(), len));
  }
  EXPECT_EQ(by_len.size(), 65u);
}

}  // namespace
}  // namespace bstc
