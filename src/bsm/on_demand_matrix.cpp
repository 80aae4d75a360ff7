#include "bsm/on_demand_matrix.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace bstc {

OnDemandMatrix::OnDemandMatrix(Shape shape, TileGenerator generator)
    : shape_(std::move(shape)), generator_(std::move(generator)) {
  BSTC_REQUIRE(static_cast<bool>(generator_), "generator must be callable");
}

std::uint64_t OnDemandMatrix::key(std::size_t r, std::size_t c) const {
  return static_cast<std::uint64_t>(r) * shape_.tile_cols() + c;
}

OnDemandMatrix::Entry& OnDemandMatrix::locate_or_generate(
    std::unique_lock<std::mutex>& lock, std::size_t r, std::size_t c) {
  BSTC_REQUIRE(shape_.nonzero(r, c), "acquiring a zero block");
  const std::uint64_t k = key(r, c);
  // A tile whose generation is in flight is waited for, not generated
  // again: the paper's runtime instantiates each tile at most once per
  // node even under concurrent requests. If that generation fails, its
  // entry is gone when we wake and this caller generates instead.
  Entry* cached = nullptr;
  generated_.wait(lock, [&] {
    const auto it = cache_.find(k);
    cached = it == cache_.end() ? nullptr : &it->second;
    return cached == nullptr || cached->ready;
  });
  if (cached != nullptr) return *cached;
  // Claim the tile with an in-flight entry, then generate it with the
  // lock released so acquisitions of other tiles proceed meanwhile.
  // Entries are nodes of an unordered_map: the reference survives
  // rehashes, and only this caller erases or completes an in-flight one.
  Entry& entry = cache_.emplace(k, Entry{}).first->second;
  lock.unlock();
  Tile tile;
  try {
    tile = generator_(r, c);
    BSTC_CHECK(tile.rows() == shape_.row_tiling().tile_extent(r));
    BSTC_CHECK(tile.cols() == shape_.col_tiling().tile_extent(c));
  } catch (...) {
    lock.lock();
    cache_.erase(k);
    generated_.notify_all();
    throw;
  }
  lock.lock();
  entry.tile = std::move(tile);
  entry.ready = true;
  cached_bytes_ += entry.tile.bytes();
  peak_cached_bytes_ = std::max(peak_cached_bytes_, cached_bytes_);
  ++generations_[k];
  // Process-wide generation counter: the distributed-serve metrics
  // gather sums this across ranks to prove one-materialization-per-node
  // (with a shared store it stays 0 on every worker).
  obs::Registry::instance().counter_add("bstc_b_tiles_generated_total");
  generated_.notify_all();
  return entry;
}

const Tile& OnDemandMatrix::acquire(std::size_t r, std::size_t c) {
  std::unique_lock lock(mutex_);
  Entry& entry = locate_or_generate(lock, r, c);
  ++entry.pins;
  return entry.tile;
}

void OnDemandMatrix::release(std::size_t r, std::size_t c) {
  std::lock_guard lock(mutex_);
  const auto it = cache_.find(key(r, c));
  BSTC_REQUIRE(it != cache_.end(), "releasing a tile that is not cached");
  BSTC_REQUIRE(it->second.pins > 0, "releasing an unpinned tile");
  if (--it->second.pins == 0 && !it->second.persistent) {
    cached_bytes_ -= it->second.tile.bytes();
    cache_.erase(it);
  }
}

const Tile& OnDemandMatrix::acquire_persistent(std::size_t r, std::size_t c) {
  std::unique_lock lock(mutex_);
  Entry& entry = locate_or_generate(lock, r, c);
  entry.persistent = true;
  return entry.tile;
}

bool OnDemandMatrix::resident(std::size_t r, std::size_t c) const {
  std::lock_guard lock(mutex_);
  const auto it = cache_.find(key(r, c));
  return it != cache_.end() && it->second.ready;
}

std::size_t OnDemandMatrix::evict_unpinned() {
  std::lock_guard lock(mutex_);
  std::size_t freed = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->second.pins == 0 && it->second.ready) {
      freed += it->second.tile.bytes();
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
  cached_bytes_ -= freed;
  return freed;
}

std::size_t OnDemandMatrix::generation_count(std::size_t r,
                                             std::size_t c) const {
  std::lock_guard lock(mutex_);
  const auto it = generations_.find(key(r, c));
  return it == generations_.end() ? 0 : it->second;
}

std::size_t OnDemandMatrix::total_generations() const {
  std::lock_guard lock(mutex_);
  std::size_t total = 0;
  for (const auto& [k, n] : generations_) {
    (void)k;
    total += n;
  }
  return total;
}

std::size_t OnDemandMatrix::max_generation_count() const {
  std::lock_guard lock(mutex_);
  std::size_t worst = 0;
  for (const auto& [k, n] : generations_) {
    (void)k;
    worst = std::max(worst, n);
  }
  return worst;
}

std::size_t OnDemandMatrix::cached_bytes() const {
  std::lock_guard lock(mutex_);
  return cached_bytes_;
}

std::size_t OnDemandMatrix::peak_cached_bytes() const {
  std::lock_guard lock(mutex_);
  return peak_cached_bytes_;
}

TileGenerator random_tile_generator(const Shape& shape, std::uint64_t seed) {
  const Tiling rows = shape.row_tiling();
  const Tiling cols = shape.col_tiling();
  const std::size_t tile_cols = shape.tile_cols();
  return [rows, cols, tile_cols, seed](std::size_t r, std::size_t c) {
    Tile t(rows.tile_extent(r), cols.tile_extent(c));
    // Seed from (seed, r, c) so content is a pure function of position.
    Rng rng(seed ^ (static_cast<std::uint64_t>(r) * tile_cols + c + 1));
    t.fill_random(rng);
    return t;
  };
}

}  // namespace bstc
