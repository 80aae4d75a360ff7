#pragma once

/// \file tiling.hpp
/// Nonuniform tilings of index ranges.
///
/// Electronic-structure tensors are tiled by physically-motivated
/// clusterings, so tile extents vary strongly across one index range
/// (paper §3.1 item 1). A `Tiling` partitions the index range
/// `[0, extent)` into contiguous tiles of given extents.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/rng.hpp"

namespace bstc {

/// Index type for element indices (ranges reach ~2.5M in the paper).
using Index = std::int64_t;

/// A partition of [0, extent()) into contiguous, non-empty tiles.
///
/// Stored as tile boundary offsets: tile t covers
/// [offset(t), offset(t+1)). Immutable after construction.
class Tiling {
 public:
  /// Empty tiling of an empty range.
  Tiling() : offsets_{0} {}

  /// Build from per-tile extents; every extent must be positive.
  static Tiling from_extents(std::span<const Index> extents);

  /// Uniform tiling: tiles of `tile` elements, last one possibly shorter.
  static Tiling uniform(Index extent, Index tile);

  /// Random nonuniform tiling covering at least `extent` elements: tile
  /// extents drawn uniformly from [lo, hi] until the range is covered; the
  /// last tile is clipped so the total equals `extent` exactly (and merged
  /// into its neighbour if clipping would make it shorter than `lo/2`).
  /// This reproduces the paper's synthetic setup ("irregularity of tiling
  /// is set randomly to be uniform between 512 and 2048", §5.1).
  static Tiling random_uniform(Index extent, Index lo, Index hi, Rng& rng);

  Index extent() const { return offsets_.back(); }
  std::size_t num_tiles() const { return offsets_.size() - 1; }
  bool empty() const { return num_tiles() == 0; }

  Index tile_offset(std::size_t t) const;
  Index tile_extent(std::size_t t) const;

  /// Largest / smallest / mean tile extent (0 for an empty tiling).
  Index max_tile_extent() const;
  Index min_tile_extent() const;
  double mean_tile_extent() const;

  /// Tile containing element index i (binary search). Throws if out of
  /// range.
  std::size_t tile_of(Index i) const;

  bool operator==(const Tiling& other) const = default;

 private:
  explicit Tiling(std::vector<Index> offsets) : offsets_(std::move(offsets)) {}

  std::vector<Index> offsets_;  // size num_tiles()+1, offsets_[0] == 0
};

}  // namespace bstc
