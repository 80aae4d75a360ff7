#include "shm/tile_store.hpp"

#include <cstring>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace bstc::shm {
namespace {

std::size_t align_up(std::size_t v) {
  return (v + kArenaAlign - 1) / kArenaAlign * kArenaAlign;
}

std::uint64_t tile_key(std::size_t r, std::size_t c, std::size_t grid_cols) {
  return static_cast<std::uint64_t>(r) * grid_cols + c;
}

}  // namespace

Status ShmTileStore::build(const std::string& name, const Shape& shape,
                           const TileGenerator& generator,
                           std::uint64_t fingerprint, std::uint64_t generation,
                           StoreBuildInfo* info) {
  if (!generator) return Status::Fail("shm: store build needs a generator");
  obs::ScopedSpan span(obs::Category::kShm, "store-build");

  // Size the segment exactly by replaying the allocation sequence: arena
  // header, store header, index array, then one aligned payload per
  // nonzero tile in row-major grid order.
  const std::size_t grid_rows = shape.tile_rows();
  const std::size_t grid_cols = shape.tile_cols();
  const std::size_t num_tiles = shape.nnz_tiles();
  std::size_t cursor = sizeof(ArenaHeader);
  cursor = align_up(cursor) + sizeof(StoreHeader);
  const std::size_t index_bytes = num_tiles * sizeof(TileIndexEntry);
  cursor = align_up(cursor) + index_bytes;
  std::size_t payload_bytes = 0;
  for (std::size_t r = 0; r < grid_rows; ++r) {
    for (std::size_t c = 0; c < grid_cols; ++c) {
      if (!shape.nonzero(r, c)) continue;
      const auto bytes = static_cast<std::size_t>(
          shape.row_tiling().tile_extent(r) *
          shape.col_tiling().tile_extent(c) * 8);
      cursor = align_up(cursor) + bytes;
      payload_bytes += bytes;
    }
  }
  const std::size_t capacity = cursor;

  ShmArena arena;
  if (Status st = ShmArena::create(name, capacity, arena); !st) return st;

  const std::size_t header_off = arena.alloc(sizeof(StoreHeader));
  const std::size_t index_off = arena.alloc(index_bytes);
  auto* index = static_cast<TileIndexEntry*>(arena.at(index_off));

  std::size_t entry = 0;
  for (std::size_t r = 0; r < grid_rows; ++r) {
    for (std::size_t c = 0; c < grid_cols; ++c) {
      if (!shape.nonzero(r, c)) continue;
      const Index rows = shape.row_tiling().tile_extent(r);
      const Index cols = shape.col_tiling().tile_extent(c);
      // Generate straight into scratch, then copy the column-major block
      // into the arena — the one and only materialization of this tile
      // on this node.
      const Tile tile = generator(r, c);
      if (tile.rows() != rows || tile.cols() != cols) {
        arena.close();
        ShmArena::unlink(name);
        return Status::Fail("shm: generator produced tile (" +
                            std::to_string(r) + ", " + std::to_string(c) +
                            ") with extents that disagree with the shape");
      }
      const std::size_t bytes = tile.bytes();
      const std::size_t payload_off = arena.alloc(bytes);
      std::memcpy(arena.at(payload_off), tile.data(), bytes);
      index[entry] = TileIndexEntry{
          static_cast<std::uint32_t>(r), static_cast<std::uint32_t>(c),
          static_cast<std::uint32_t>(rows), static_cast<std::uint32_t>(cols),
          payload_off};
      ++entry;
    }
  }
  BSTC_CHECK(entry == num_tiles);

  StoreHeader header;
  header.store_magic = kStoreMagic;
  header.tile_rows = grid_rows;
  header.tile_cols = grid_cols;
  header.num_tiles = num_tiles;
  header.index_offset = index_off;
  std::memcpy(arena.at(header_off), &header, sizeof header);

  if (Status st = arena.seal(fingerprint, generation); !st) {
    arena.close();
    ShmArena::unlink(name);
    return st;
  }

  obs::Registry::instance().counter_add("bstc_shm_store_builds_total");
  obs::Registry::instance().counter_add("bstc_shm_store_tiles_built_total",
                                        num_tiles);
  if (info != nullptr) {
    info->name = name;
    info->fingerprint = fingerprint;
    info->generation = generation;
    info->tiles = num_tiles;
    info->segment_bytes = arena.capacity();
    info->payload_bytes = payload_bytes;
  }
  return Status::Ok();
}

Status ShmTileReader::attach(const std::string& name,
                             std::shared_ptr<ShmTileReader>& out,
                             std::uint64_t expected_fingerprint) {
  obs::ScopedSpan span(obs::Category::kShm, "store-attach");
  std::shared_ptr<ShmTileReader> reader(new ShmTileReader());
  if (Status st = ShmArena::attach(name, reader->arena_, expected_fingerprint);
      !st) {
    return st;
  }
  const ShmArena& arena = reader->arena_;
  const std::size_t used = arena.used_bytes();

  const std::size_t header_off = sizeof(ArenaHeader);
  if (header_off + sizeof(StoreHeader) > used) {
    return Status::Fail("shm: segment '" + name +
                        "' is too small for a store header");
  }
  StoreHeader header;
  std::memcpy(&header, arena.at(header_off), sizeof header);
  if (header.store_magic != kStoreMagic) {
    return Status::Fail("shm: segment '" + name +
                        "' does not contain a tile store");
  }
  const std::size_t num_tiles = header.num_tiles;
  const std::size_t index_bytes = num_tiles * sizeof(TileIndexEntry);
  if (header.index_offset < header_off + sizeof(StoreHeader) ||
      header.index_offset + index_bytes > used) {
    return Status::Fail("shm: tile index out of bounds in segment '" + name +
                        "'");
  }
  if (header.tile_rows == 0 || header.tile_cols == 0) {
    return Status::Fail("shm: empty tile grid in segment '" + name + "'");
  }
  reader->grid_rows_ = header.tile_rows;
  reader->grid_cols_ = header.tile_cols;

  const auto* index =
      static_cast<const TileIndexEntry*>(arena.at(header.index_offset));
  reader->tiles_.reserve(num_tiles);
  for (std::size_t i = 0; i < num_tiles; ++i) {
    const TileIndexEntry& e = index[i];
    if (e.r >= header.tile_rows || e.c >= header.tile_cols) {
      return Status::Fail("shm: tile coordinates out of grid in segment '" +
                          name + "'");
    }
    if (e.rows == 0 || e.cols == 0) {
      return Status::Fail("shm: empty tile extents in segment '" + name + "'");
    }
    const std::size_t bytes =
        static_cast<std::size_t>(e.rows) * e.cols * sizeof(double);
    if (e.payload_offset % alignof(double) != 0 ||
        e.payload_offset < header_off || e.payload_offset + bytes > used) {
      return Status::Fail("shm: tile payload out of bounds in segment '" +
                          name + "'");
    }
    const auto key = tile_key(e.r, e.c, header.tile_cols);
    const auto* payload =
        static_cast<const double*>(arena.at(e.payload_offset));
    const bool inserted =
        reader->tiles_
            .emplace(key, Tile::view(payload, e.rows, e.cols))
            .second;
    if (!inserted) {
      return Status::Fail("shm: duplicate tile entry in segment '" + name +
                          "'");
    }
    reader->payload_bytes_ += bytes;
  }
  out = std::move(reader);
  return Status::Ok();
}

bool ShmTileReader::has_tile(std::size_t r, std::size_t c) const {
  return tiles_.count(tile_key(r, c, grid_cols_)) != 0;
}

const Tile& ShmTileReader::tile(std::size_t r, std::size_t c) const {
  const auto it = tiles_.find(tile_key(r, c, grid_cols_));
  BSTC_REQUIRE(it != tiles_.end(),
               "shm: tile (" + std::to_string(r) + ", " + std::to_string(c) +
                   ") is not in the store");
  return it->second;
}

bool ShmTileReader::matches_shape(const Shape& shape) const {
  if (shape.tile_rows() != grid_rows_ || shape.tile_cols() != grid_cols_) {
    return false;
  }
  if (shape.nnz_tiles() != tiles_.size()) return false;
  for (std::size_t r = 0; r < grid_rows_; ++r) {
    for (std::size_t c = 0; c < grid_cols_; ++c) {
      if (!shape.nonzero(r, c)) continue;
      const auto it = tiles_.find(tile_key(r, c, grid_cols_));
      if (it == tiles_.end()) return false;
      if (it->second.rows() != shape.row_tiling().tile_extent(r) ||
          it->second.cols() != shape.col_tiling().tile_extent(c)) {
        return false;
      }
    }
  }
  return true;
}

SharedStoreSource::SharedStoreSource(
    std::shared_ptr<const ShmTileReader> reader)
    : reader_(std::move(reader)) {
  BSTC_REQUIRE(reader_ != nullptr, "shm: source needs an attached reader");
}

const Tile& SharedStoreSource::acquire(std::size_t r, std::size_t c) {
  return reader_->tile(r, c);
}

void SharedStoreSource::release(std::size_t, std::size_t) {}

const Tile& SharedStoreSource::acquire_persistent(std::size_t r,
                                                  std::size_t c) {
  return reader_->tile(r, c);
}

bool SharedStoreSource::resident(std::size_t, std::size_t) const {
  return true;
}

std::size_t SharedStoreSource::evict_unpinned() { return 0; }

std::size_t SharedStoreSource::total_generations() const { return 0; }

std::size_t SharedStoreSource::max_generation_count() const { return 0; }

std::size_t SharedStoreSource::cached_bytes() const { return 0; }

std::size_t SharedStoreSource::peak_cached_bytes() const { return 0; }

}  // namespace bstc::shm
