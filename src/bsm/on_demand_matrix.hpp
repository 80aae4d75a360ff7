#pragma once

/// \file on_demand_matrix.hpp
/// Generator-backed block-sparse matrix.
///
/// The paper's B matrix (matricized V) is too large to materialise: its
/// tiles are produced by generation tasks on the CPU "when a tile needs to
/// be instantiated", cached "as long as they are needed by any task, and
/// discarded after this", with the guarantee that "each tile of B is
/// instantiated at most once per node that needs it" (§4). OnDemandMatrix
/// reproduces that data collection: tile access triggers generation, tiles
/// are reference-counted, and generation counts are tracked so the
/// at-most-once invariant is testable.
///
/// OnDemandMatrix is the *generating* backend of the TileSource seam —
/// each process pays the generation cost and caches privately. Its
/// zero-copy sibling, shm::SharedStoreSource, serves the same contract
/// out of a sealed shared-memory tile store so N co-located workers
/// share one materialization (the §4 at-most-once guarantee extended
/// across processes on a node). Engines and service sessions consume
/// either backend unchanged.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "bsm/tile_source.hpp"
#include "shape/shape.hpp"
#include "tile/tile.hpp"

namespace bstc {

/// Produces the dense content of tile (r, c). Must be thread-safe.
using TileGenerator = std::function<Tile(std::size_t r, std::size_t c)>;

/// A read-only block-sparse matrix whose tiles are generated on demand and
/// cached while pinned.
class OnDemandMatrix final : public TileSource {
 public:
  OnDemandMatrix(Shape shape, TileGenerator generator);

  const Shape& shape() const { return shape_; }
  const Tiling& row_tiling() const { return shape_.row_tiling(); }
  const Tiling& col_tiling() const { return shape_.col_tiling(); }

  bool has_tile(std::size_t r, std::size_t c) const {
    return shape_.nonzero(r, c);
  }

  /// Acquire tile (r, c): generates it on first acquisition, pins it in the
  /// cache, and returns a reference valid until the matching release().
  /// The generator runs without the cache lock held, so other tiles can
  /// be acquired meanwhile; concurrent acquirers of the same tile wait
  /// for that one generation. If the generator throws, nothing is cached,
  /// the error propagates, and the waiters retry. Throws if (r, c) is a
  /// zero block.
  const Tile& acquire(std::size_t r, std::size_t c) override;

  /// Release a pinned tile; when the pin count reaches zero the tile is
  /// discarded (it will be re-generated if acquired again) — unless the
  /// tile is persistent, in which case it stays cached. release() never
  /// frees a persistent tile out from under reference paths: the only way
  /// to drop a persistent tile is evict_unpinned().
  void release(std::size_t r, std::size_t c) override;

  /// Acquire without pinning management: generate-if-needed, mark the tile
  /// persistent and keep it cached until evict_unpinned(). Used by
  /// non-streaming (reference) paths and by the engine's session mode,
  /// where B tiles survive across CCSD iterations.
  ///
  /// Interplay with acquire()/release(): the persistent mark and the pin
  /// count are independent. A tile may be both pinned and persistent;
  /// releasing the last pin keeps it (persistent wins), and
  /// evict_unpinned() skips it while any pin is held. Releasing a
  /// persistent tile that was never pinned is still an error.
  const Tile& acquire_persistent(std::size_t r, std::size_t c) override;

  /// True when (r, c) is cached and its generation has finished.
  bool resident(std::size_t r, std::size_t c) const override;

  /// Drop every cached tile with no outstanding pin — including
  /// persistent ones, whose mark is cleared (deterministic generators
  /// make regeneration safe); tiles still being generated are skipped.
  /// The serving layer calls this between iterations to bound the host
  /// B footprint. Returns the bytes freed.
  std::size_t evict_unpinned() override;

  /// How many times tile (r, c) has been generated so far.
  std::size_t generation_count(std::size_t r, std::size_t c) const;
  /// Total generations across all tiles.
  std::size_t total_generations() const override;
  /// Largest per-tile generation count (1 means the paper's at-most-once
  /// per consumer guarantee held for a single-node run).
  std::size_t max_generation_count() const override;
  /// Bytes currently held in cached tiles.
  std::size_t cached_bytes() const override;
  /// Largest cache footprint seen (host-memory pressure of the B cache —
  /// the paper's "price to pay" for replicating columns across grid rows
  /// "puts pressure on CPU memory", §3.1).
  std::size_t peak_cached_bytes() const override;

 private:
  struct Entry {
    Tile tile;
    std::size_t pins = 0;
    bool persistent = false;
    bool ready = false;  ///< false while the generator is still running
  };

  std::uint64_t key(std::size_t r, std::size_t c) const;
  /// Returns the ready entry of (r, c), generating it first if needed.
  /// `lock` holds mutex_ on entry and exit; it is released while the
  /// generator runs, so other tiles can be acquired meanwhile.
  Entry& locate_or_generate(std::unique_lock<std::mutex>& lock,
                            std::size_t r, std::size_t c);

  Shape shape_;
  TileGenerator generator_;
  mutable std::mutex mutex_;
  std::condition_variable generated_;  ///< an in-flight entry settled
  std::unordered_map<std::uint64_t, Entry> cache_;
  std::unordered_map<std::uint64_t, std::size_t> generations_;
  std::size_t cached_bytes_ = 0;
  std::size_t peak_cached_bytes_ = 0;
};

/// Generator producing deterministic pseudo-random tiles: the value of a
/// tile depends only on (seed, r, c), so re-generation yields identical
/// data — exactly how the paper's benchmark fills V with random data while
/// keeping the computation well-defined.
TileGenerator random_tile_generator(const Shape& shape, std::uint64_t seed);

}  // namespace bstc
