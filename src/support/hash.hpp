#pragma once

/// \file hash.hpp
/// The bulk-byte hash: XXH64 (Yann Collet's xxHash, 64-bit variant).
///
/// Every checksum over bulk bytes on the data path uses this one
/// primitive: wire frames (net/wire), the served C digest
/// (bsm_content_checksum), shm arena payloads and the tuning cache. It
/// consumes 32-byte stripes in four independent accumulators, so it runs
/// at memory speed where a byte-serial FNV-1a loop is bound by one
/// multiply's latency per byte. The short identity fingerprints (problem,
/// spec, store and program keys) stay on FNV-1a (service/fingerprint).
///
/// The output is the published XXH64 value for (bytes, seed), independent
/// of the buffer's alignment. Passing a running hash as `seed` chains
/// several ranges into one digest.

#include <cstddef>
#include <cstdint>

namespace bstc {

/// XXH64 of `size` bytes at `data` with `seed`.
std::uint64_t hash64(const void* data, std::size_t size,
                     std::uint64_t seed = 0);

}  // namespace bstc
