#include "tiling/tiling.hpp"

#include <algorithm>
#include <numeric>

#include "support/error.hpp"

namespace bstc {

Tiling Tiling::from_extents(std::span<const Index> extents) {
  std::vector<Index> offsets;
  offsets.reserve(extents.size() + 1);
  offsets.push_back(0);
  for (Index e : extents) {
    BSTC_REQUIRE(e > 0, "tile extents must be positive");
    offsets.push_back(offsets.back() + e);
  }
  return Tiling(std::move(offsets));
}

Tiling Tiling::uniform(Index extent, Index tile) {
  BSTC_REQUIRE(extent >= 0, "extent must be non-negative");
  BSTC_REQUIRE(tile > 0, "tile extent must be positive");
  std::vector<Index> extents;
  for (Index off = 0; off < extent; off += tile) {
    extents.push_back(std::min(tile, extent - off));
  }
  return from_extents(extents);
}

Tiling Tiling::random_uniform(Index extent, Index lo, Index hi, Rng& rng) {
  BSTC_REQUIRE(extent > 0, "extent must be positive");
  BSTC_REQUIRE(0 < lo && lo <= hi, "need 0 < lo <= hi");
  std::vector<Index> extents;
  Index covered = 0;
  while (covered < extent) {
    Index e = rng.uniform_int(lo, hi);
    e = std::min(e, extent - covered);
    extents.push_back(e);
    covered += e;
  }
  // Avoid a pathologically small trailing tile: merge it into its
  // predecessor when possible.
  if (extents.size() >= 2 && extents.back() < lo / 2) {
    const Index tail = extents.back();
    extents.pop_back();
    extents.back() += tail;
  }
  return from_extents(extents);
}

Index Tiling::tile_offset(std::size_t t) const {
  BSTC_REQUIRE(t < num_tiles(), "tile index out of range");
  return offsets_[t];
}

Index Tiling::tile_extent(std::size_t t) const {
  BSTC_REQUIRE(t < num_tiles(), "tile index out of range");
  return offsets_[t + 1] - offsets_[t];
}

Index Tiling::max_tile_extent() const {
  Index best = 0;
  for (std::size_t t = 0; t < num_tiles(); ++t) {
    best = std::max(best, tile_extent(t));
  }
  return best;
}

Index Tiling::min_tile_extent() const {
  if (empty()) return 0;
  Index best = tile_extent(0);
  for (std::size_t t = 1; t < num_tiles(); ++t) {
    best = std::min(best, tile_extent(t));
  }
  return best;
}

double Tiling::mean_tile_extent() const {
  if (empty()) return 0.0;
  return static_cast<double>(extent()) / static_cast<double>(num_tiles());
}

std::size_t Tiling::tile_of(Index i) const {
  BSTC_REQUIRE(i >= 0 && i < extent(), "element index out of range");
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), i);
  return static_cast<std::size_t>(it - offsets_.begin()) - 1;
}

}  // namespace bstc
