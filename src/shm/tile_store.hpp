#pragma once

/// \file tile_store.hpp
/// Shared-memory B-tile store: writer, reader, and TileSource adapter.
///
/// A tile store is one sealed ShmArena holding a complete generated-B
/// tile set: a store header (grid dimensions, tile count), a packed tile
/// index, and 64-byte-aligned column-major double payloads. The writer
/// (`ShmTileStore::build`) materializes every nonzero tile of a shape
/// exactly once — the paper's §4 at-most-once guarantee hoisted from
/// per-process to per-node — and seals the segment read-only.
///
/// `ShmTileReader` attaches read-only, validates the full index against
/// the arena bounds, and serves `Tile` *views* aliasing the mapped
/// payload: no copy ever happens between the store build and the GEMM
/// consuming the tile. `SharedStoreSource` adapts a shared reader to the
/// TileSource seam so engines and ContractionService sessions consume
/// the store exactly as they would a private OnDemandMatrix cache.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "bsm/on_demand_matrix.hpp"
#include "bsm/tile_source.hpp"
#include "shape/shape.hpp"
#include "shm/arena.hpp"
#include "tile/tile.hpp"

namespace bstc::shm {

/// First bytes after the arena header of every tile store.
inline constexpr std::uint64_t kStoreMagic = 0x42535443544c5331ull;  // BSTCTLS1

struct StoreHeader {
  std::uint64_t store_magic = 0;
  std::uint64_t tile_rows = 0;     ///< grid rows of the source shape
  std::uint64_t tile_cols = 0;     ///< grid cols of the source shape
  std::uint64_t num_tiles = 0;     ///< nonzero tiles materialized
  std::uint64_t index_offset = 0;  ///< arena offset of the entry array
};

/// One tile in the store's index.
struct TileIndexEntry {
  std::uint32_t r = 0;
  std::uint32_t c = 0;
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::uint64_t payload_offset = 0;  ///< column-major doubles, 64B aligned
};
static_assert(sizeof(TileIndexEntry) == 24, "store index layout is sealed");

/// What a store build produced (for logs, metrics, and the watchdog).
struct StoreBuildInfo {
  std::string name;
  std::uint64_t fingerprint = 0;
  std::uint64_t generation = 0;
  std::size_t tiles = 0;
  std::size_t segment_bytes = 0;
  std::size_t payload_bytes = 0;
};

/// Writer: materialize the complete B tile set of `shape` into a fresh
/// sealed segment. Every nonzero tile is generated exactly once, in
/// row-major grid order; the segment is sized exactly and sealed with
/// `fingerprint`/`generation` before returning. On failure the segment
/// is unlinked and a clean Status comes back.
class ShmTileStore {
 public:
  static Status build(const std::string& name, const Shape& shape,
                      const TileGenerator& generator,
                      std::uint64_t fingerprint, std::uint64_t generation,
                      StoreBuildInfo* info = nullptr);
};

/// Read-only view of a sealed tile store. Attach validates the store
/// header, every index entry (coordinates, extents, payload bounds,
/// duplicates) and then exposes zero-copy Tile views into the mapping.
/// Immutable and internally synchronisation-free after attach; share via
/// shared_ptr so in-flight work keeps a superseded generation mapped
/// until the last consumer drops it.
class ShmTileReader {
 public:
  /// Attach + validate. `expected_fingerprint`, when non-zero, must match
  /// the sealed arena fingerprint (stale-generation guard).
  static Status attach(const std::string& name,
                       std::shared_ptr<ShmTileReader>& out,
                       std::uint64_t expected_fingerprint = 0);

  const std::string& name() const { return arena_.name(); }
  std::uint64_t fingerprint() const { return arena_.fingerprint(); }
  std::uint64_t generation() const { return arena_.generation(); }
  std::size_t tile_count() const { return tiles_.size(); }
  std::size_t payload_bytes() const { return payload_bytes_; }
  std::size_t segment_bytes() const { return arena_.capacity(); }
  std::size_t grid_rows() const { return grid_rows_; }
  std::size_t grid_cols() const { return grid_cols_; }

  bool has_tile(std::size_t r, std::size_t c) const;
  /// The stored tile as a zero-copy view; throws if absent.
  const Tile& tile(std::size_t r, std::size_t c) const;

  /// True when the store holds exactly the nonzero tile set of `shape`
  /// with matching extents — the precondition for serving it as that
  /// shape's B backend.
  bool matches_shape(const Shape& shape) const;

 private:
  ShmTileReader() = default;

  ShmArena arena_;
  std::size_t grid_rows_ = 0;
  std::size_t grid_cols_ = 0;
  std::size_t payload_bytes_ = 0;
  std::unordered_map<std::uint64_t, Tile> tiles_;  ///< key = r*grid_cols+c
};

/// TileSource adapter over a shared reader. Zero-copy and stateless:
/// acquire returns the mapped view, release is a no-op, and every
/// generation/byte statistic reports 0 — this process materialized
/// nothing and caches nothing privately.
class SharedStoreSource final : public TileSource {
 public:
  explicit SharedStoreSource(std::shared_ptr<const ShmTileReader> reader);

  const Tile& acquire(std::size_t r, std::size_t c) override;
  void release(std::size_t r, std::size_t c) override;
  const Tile& acquire_persistent(std::size_t r, std::size_t c) override;
  bool resident(std::size_t r, std::size_t c) const override;
  std::size_t evict_unpinned() override;
  std::size_t total_generations() const override;
  std::size_t max_generation_count() const override;
  std::size_t cached_bytes() const override;
  std::size_t peak_cached_bytes() const override;

  const ShmTileReader& reader() const { return *reader_; }

 private:
  std::shared_ptr<const ShmTileReader> reader_;
};

}  // namespace bstc::shm
