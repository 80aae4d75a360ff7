#pragma once

/// \file tile.hpp
/// Dense tile of a block-sparse matrix.
///
/// Nonzero tiles are fully dense (paper §3.1), stored column-major
/// (BLAS convention) in a contiguous buffer of doubles.
///
/// A tile either owns its buffer or is a *view* over external read-only
/// storage (Tile::view) — the zero-copy path for tiles served out of a
/// shared-memory arena. Views are shallow: copying a view copies the
/// pointer, not the doubles, so staging a view into a device residence
/// map never duplicates the payload. All read accessors work on both;
/// mutating accessors require ownership and throw on a view.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"
#include "tiling/tiling.hpp"

namespace bstc {

/// Storage of tile payloads. A payload of at least kMappedTileBytes lives
/// in an anonymous mapping of its own; smaller ones come from operator
/// new. Large tiles are generated on whichever thread the compute pool
/// lends, and freed on another: through malloc they would settle in that
/// thread's arena, whose freed space stays resident and serves only that
/// thread again, so a process's resident size would depend on which
/// thread happened to allocate what. Mappings are thread-agnostic instead.
///
/// A freed mapping is not returned to the kernel but kept in one
/// process-wide cache, and the next large allocation on any thread takes
/// a cached mapping of its own length if there is one, else any cached
/// mapping sized to the request (its tail unmapped when it is larger,
/// grown with mremap when it is smaller), so only pages the cache never
/// held fault in: each contraction of a recurring shape reuses the pages
/// of the last. New mappings are made only when the cache is empty, and
/// growing a reused one gives up as many cached bytes, so live + cached
/// mapped bytes never exceed the high-water mark of live ones. The cache
/// is linked through the mappings themselves (no malloc, so pool helpers
/// may allocate tiles). A forked child unmaps the cache it inherits and
/// starts empty.
inline constexpr std::size_t kMappedTileBytes = 128 * 1024;
void* allocate_tile_storage(std::size_t bytes);
void release_tile_storage(void* p, std::size_t bytes) noexcept;

/// Bytes are whole pages of mapped payloads; counts are since the start
/// of the process.
struct TileStorageStats {
  std::uint64_t fresh_maps = 0;  ///< mapped allocations that made a mapping
  std::uint64_t reuses = 0;      ///< mapped allocations served by the cache
  std::size_t cached_bytes = 0;  ///< freed mappings kept for reuse
  std::size_t live_bytes = 0;    ///< mappings held by live tiles
  std::size_t high_water_bytes = 0;  ///< the most live_bytes ever held
};
TileStorageStats tile_storage_stats();

/// Unmaps every cached mapping, returning its pages to the kernel.
void trim_tile_storage() noexcept;

/// std::allocator stand-in that routes a tile's buffer through the two
/// functions above.
template <class T>
struct TileStorageAllocator {
  using value_type = T;
  TileStorageAllocator() = default;
  template <class U>
  TileStorageAllocator(const TileStorageAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(allocate_tile_storage(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    release_tile_storage(p, n * sizeof(T));
  }
  template <class U>
  bool operator==(const TileStorageAllocator<U>&) const noexcept {
    return true;
  }
};

/// A dense rows x cols matrix of doubles, column-major.
class Tile {
 public:
  /// Empty 0x0 tile.
  Tile() = default;

  /// Zero-initialised rows x cols tile.
  Tile(Index rows, Index cols);

  /// Non-owning view over `data` (column-major rows x cols, ld == rows).
  /// The storage must outlive the view and every copy of it.
  static Tile view(const double* data, Index rows, Index cols);

  /// True when this tile aliases external storage instead of owning it.
  bool is_view() const { return view_ != nullptr; }

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index size() const { return rows_ * cols_; }
  std::size_t bytes() const {
    return static_cast<std::size_t>(size()) * sizeof(double);
  }
  bool empty() const { return size() == 0; }

  double& at(Index r, Index c) { return mutable_data()[index(r, c)]; }
  double at(Index r, Index c) const { return data()[index(r, c)]; }

  double* data() { return mutable_data(); }
  const double* data() const {
    return view_ != nullptr ? view_ : data_.data();
  }

  /// Leading dimension (== rows for a packed column-major tile).
  Index ld() const { return rows_; }

  /// Fill with uniform random values in [-1, 1).
  void fill_random(Rng& rng);
  /// Fill every element with v.
  void fill(double v);

  /// this += alpha * other (same dimensions required).
  void axpy(double alpha, const Tile& other);

  /// max_ij |this(i,j) - other(i,j)| (same dimensions required).
  double max_abs_diff(const Tile& other) const;

  /// Frobenius norm.
  double norm() const;

 private:
  std::size_t index(Index r, Index c) const;
  double* mutable_data();

  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<double, TileStorageAllocator<double>> data_;
  const double* view_ = nullptr;  ///< external storage when non-null
};

}  // namespace bstc
