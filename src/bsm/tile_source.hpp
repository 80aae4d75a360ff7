#pragma once

/// \file tile_source.hpp
/// TileSource — the engine's B-tile backend contract.
///
/// The executor consumes B through acquire/release only; where the bytes
/// come from is a backend decision. Two backends implement this seam:
///
///  * OnDemandMatrix — the paper's §4 data collection: tiles are
///    *generated* on first acquisition, reference-counted, and cached
///    per node (private to this process).
///  * shm::SharedStoreSource — zero-copy views into a sealed read-only
///    shared-memory tile store that co-located worker processes attach
///    to, so one materialization serves every worker on the node.
///
/// Engines and ContractionService sessions hold `TileSource` pointers
/// and cannot tell the backends apart; the generation/byte statistics
/// keep the paper's at-most-once invariant testable across both (a
/// shared store reports zero local generations — the materialization
/// happened once, at store build time).

#include <cstddef>

#include "tile/tile.hpp"

namespace bstc {

/// Abstract B-tile backend satisfying the OnDemandMatrix acquire/release
/// contract (see on_demand_matrix.hpp for the pinning semantics).
/// Implementations must be thread-safe.
class TileSource {
 public:
  virtual ~TileSource() = default;

  /// Acquire tile (r, c), pinning it until the matching release().
  /// Throws if (r, c) is a zero block.
  virtual const Tile& acquire(std::size_t r, std::size_t c) = 0;

  /// Release a pinned tile (backends without pinning may no-op).
  virtual void release(std::size_t r, std::size_t c) = 0;

  /// Acquire without pinning management: the tile stays available until
  /// evict_unpinned() (generator backends) or forever (shared stores).
  virtual const Tile& acquire_persistent(std::size_t r, std::size_t c) = 0;

  /// True when acquiring (r, c) now would not materialize it — the tile
  /// is already cached (generator backends) or always there (shared
  /// stores). Lets a caller resolve hits inline and fan only misses out;
  /// the answer may be stale by the time of the acquire, which is correct
  /// either way.
  virtual bool resident(std::size_t r, std::size_t c) const = 0;

  /// Drop every cached tile with no outstanding pin; returns the bytes
  /// freed. Zero-copy backends own no private cache and return 0.
  virtual std::size_t evict_unpinned() = 0;

  /// Total tile materializations performed *by this process* through
  /// this source. A shared store reports 0: its tiles were generated
  /// once, by the store build.
  virtual std::size_t total_generations() const = 0;

  /// Largest per-tile generation count (1 = the paper's at-most-once
  /// per consumer guarantee held; 0 = nothing was generated locally).
  virtual std::size_t max_generation_count() const = 0;

  /// Bytes currently held in this source's private cache (0 when the
  /// payload lives in shared memory).
  virtual std::size_t cached_bytes() const = 0;

  /// Largest private cache footprint seen.
  virtual std::size_t peak_cached_bytes() const = 0;
};

}  // namespace bstc
