#include "support/hash.hpp"

#include <bit>
#include <cstring>

namespace bstc {

namespace {

static_assert(std::endian::native == std::endian::little,
              "hash64 reads lanes as little-endian words");

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

std::uint64_t read64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t read32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t round_lane(std::uint64_t acc, std::uint64_t lane) {
  acc += lane * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

std::uint64_t merge_round(std::uint64_t h, std::uint64_t acc) {
  h ^= round_lane(0, acc);
  return h * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t hash64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + size;
  std::uint64_t h = 0;

  if (size >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    const unsigned char* const last_stripe = end - 32;
    do {
      v1 = round_lane(v1, read64(p));
      v2 = round_lane(v2, read64(p + 8));
      v3 = round_lane(v3, read64(p + 16));
      v4 = round_lane(v4, read64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += static_cast<std::uint64_t>(size);

  for (; end - p >= 8; p += 8) {
    h ^= round_lane(0, read64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= static_cast<std::uint64_t>(read32(p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<std::uint64_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }

  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace bstc
