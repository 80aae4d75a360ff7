#include "tile/tile.hpp"

#include <pthread.h>
#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <new>

#include "support/error.hpp"

namespace bstc {

namespace {

// Freed mappings wait in a process-wide cache: LIFO lists in bins keyed
// by a hash of the mapping's length, linked through the mappings' own
// first bytes (no malloc: B tiles are allocated on pool helpers). A tile
// of a recurring shape finds a mapping of its exact length in its bin in
// a step or two and reuses it with no syscall; only when none is cached
// is a mapping of another length taken and resized. Every mapping is a
// whole number of pages, and its length is page_round of the payload it
// holds or last held. Under ASan a cached mapping is poisoned past its
// header, so a use after free of a large tile is still reported; a
// mapping is unpoisoned again before it is reused or unmapped.
struct CachedMapping {
  CachedMapping* next;
  std::size_t bytes;
};

// Enough bins that a bin holds few lengths: abcd-coarse's 60 tile
// lengths cost 1.75 mappings looked at per allocation.
constexpr unsigned kBinBits = 6;
constexpr std::size_t kBins = std::size_t{1} << kBinBits;

std::mutex g_storage_mutex;
CachedMapping* g_bins[kBins] = {};  ///< guarded by g_storage_mutex
TileStorageStats g_stats;           ///< guarded by g_storage_mutex
std::once_flag g_fork_handlers;

std::size_t page_round(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

std::size_t bin_of(std::size_t bytes) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(bytes) * 0x9E3779B97F4A7C15ull) >>
      (64 - kBinBits));
}

void push_locked(CachedMapping* m) {
  CachedMapping*& head = g_bins[bin_of(m->bytes)];
  m->next = head;
  head = m;
  g_stats.cached_bytes += m->bytes;
}

CachedMapping* unlink_locked(CachedMapping*& link) {
  CachedMapping* m = link;
  link = m->next;
  g_stats.cached_bytes -= m->bytes;
  return m;
}

/// The most recently freed mapping of the first non-empty bin from bin
/// `from` on (cyclically); null when the cache is empty.
CachedMapping* take_any_locked(std::size_t from) {
  for (std::size_t i = 0; i < kBins; ++i) {
    CachedMapping*& head = g_bins[(from + i) % kBins];
    if (head != nullptr) return unlink_locked(head);
  }
  return nullptr;
}

/// A cached mapping of exactly `bytes` if there is one, else any.
CachedMapping* take_locked(std::size_t bytes) {
  const std::size_t bin = bin_of(bytes);
  for (CachedMapping** link = &g_bins[bin]; *link != nullptr;
       link = &(*link)->next) {
    if ((*link)->bytes == bytes) return unlink_locked(*link);
  }
  return take_any_locked(bin + 1);
}

/// Detaches the whole cache as one list; the caller unmaps it with
/// unmap_all.
CachedMapping* take_all_locked() {
  CachedMapping* all = nullptr;
  for (CachedMapping*& head : g_bins) {
    while (head != nullptr) {
      CachedMapping* m = head;
      head = m->next;
      m->next = all;
      all = m;
    }
  }
  g_stats.cached_bytes = 0;
  return all;
}

void unmap_all(CachedMapping* m) noexcept {
  while (m != nullptr) {
    CachedMapping* next = m->next;
    ASAN_UNPOISON_MEMORY_REGION(m, m->bytes);
    ::munmap(m, m->bytes);
    m = next;
  }
}

// A fork() between two cache operations must not leave the lock held in
// the child. The child has none of the parent's other threads, so it
// unmaps what it inherited and starts with an empty cache; its live
// tiles are still live and return to its own cache.
void lock_for_fork() { g_storage_mutex.lock(); }
void unlock_after_fork() { g_storage_mutex.unlock(); }
void reset_in_child() {
  unmap_all(take_all_locked());
  g_storage_mutex.unlock();
}

void* map_fresh(std::size_t bytes) noexcept {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
}

/// Sizes a cached mapping to `want` bytes: only pages it never had fault.
void* resize(CachedMapping* m, std::size_t want) noexcept {
  const std::size_t have = m->bytes;
  ASAN_UNPOISON_MEMORY_REGION(m, have);
  if (have > want) {
    ::munmap(reinterpret_cast<char*>(m) + want, have - want);
  } else if (have < want) {
    void* p = ::mremap(m, have, want, MREMAP_MAYMOVE);
    if (p != MAP_FAILED) return p;
    ::munmap(m, have);
    return map_fresh(want);
  }
  return m;
}

}  // namespace

void* allocate_tile_storage(std::size_t bytes) {
  if (bytes < kMappedTileBytes) return ::operator new(bytes);
  std::call_once(g_fork_handlers, [] {
    pthread_atfork(lock_for_fork, unlock_after_fork, reset_in_child);
  });
  const std::size_t want = page_round(bytes);
  CachedMapping* reuse = nullptr;
  CachedMapping* dropped = nullptr;  // whole mappings given up for the bound
  char* cut = nullptr;               // a tail given up for the bound
  std::size_t cut_bytes = 0;
  {
    std::lock_guard lock(g_storage_mutex);
    g_stats.live_bytes += want;
    g_stats.high_water_bytes =
        std::max(g_stats.high_water_bytes, g_stats.live_bytes);
    reuse = take_locked(want);
    if (reuse == nullptr) {
      ++g_stats.fresh_maps;
    } else {
      ++g_stats.reuses;
      // Growing a mapping adds want - reuse->bytes: give up as much of
      // the rest of the cache, so live + cached stays within the
      // high-water mark of live bytes.
      const std::size_t mapped = g_stats.live_bytes + g_stats.cached_bytes;
      std::size_t excess =
          mapped > g_stats.high_water_bytes
              ? mapped - g_stats.high_water_bytes
              : 0;
      while (excess > 0) {
        CachedMapping* m = take_any_locked(0);
        if (m == nullptr) break;
        if (m->bytes <= excess) {
          excess -= m->bytes;
          m->next = dropped;
          dropped = m;
        } else {
          m->bytes -= excess;
          cut = reinterpret_cast<char*>(m) + m->bytes;
          cut_bytes = excess;
          excess = 0;
          push_locked(m);
        }
      }
    }
  }
  unmap_all(dropped);
  if (cut != nullptr) {
    ASAN_UNPOISON_MEMORY_REGION(cut, cut_bytes);
    ::munmap(cut, cut_bytes);
  }
  void* p = reuse == nullptr ? map_fresh(want) : resize(reuse, want);
  if (p == nullptr) {
    std::lock_guard lock(g_storage_mutex);
    g_stats.live_bytes -= want;
    throw std::bad_alloc();
  }
  return p;
}

void release_tile_storage(void* p, std::size_t bytes) noexcept {
  if (bytes < kMappedTileBytes) {
    ::operator delete(p);
    return;
  }
  auto* m = static_cast<CachedMapping*>(p);
  m->bytes = page_round(bytes);
  ASAN_POISON_MEMORY_REGION(m + 1, m->bytes - sizeof(CachedMapping));
  std::lock_guard lock(g_storage_mutex);
  push_locked(m);
  g_stats.live_bytes -= m->bytes;
}

void trim_tile_storage() noexcept {
  CachedMapping* all = nullptr;
  {
    std::lock_guard lock(g_storage_mutex);
    all = take_all_locked();
  }
  unmap_all(all);
}

TileStorageStats tile_storage_stats() {
  std::lock_guard lock(g_storage_mutex);
  return g_stats;
}

Tile::Tile(Index rows, Index cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows * cols), 0.0) {
  BSTC_REQUIRE(rows >= 0 && cols >= 0, "tile dimensions must be non-negative");
}

Tile Tile::view(const double* data, Index rows, Index cols) {
  BSTC_REQUIRE(rows >= 0 && cols >= 0, "tile dimensions must be non-negative");
  BSTC_REQUIRE(data != nullptr || rows * cols == 0,
               "tile view needs storage for a non-empty extent");
  Tile t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.view_ = data;
  return t;
}

std::size_t Tile::index(Index r, Index c) const {
  BSTC_REQUIRE(r >= 0 && r < rows_ && c >= 0 && c < cols_,
               "tile element out of range");
  return static_cast<std::size_t>(c * rows_ + r);
}

double* Tile::mutable_data() {
  BSTC_REQUIRE(view_ == nullptr, "cannot mutate a tile view");
  return data_.data();
}

void Tile::fill_random(Rng& rng) {
  BSTC_REQUIRE(view_ == nullptr, "cannot mutate a tile view");
  for (double& v : data_) v = rng.uniform(-1.0, 1.0);
}

void Tile::fill(double v) {
  BSTC_REQUIRE(view_ == nullptr, "cannot mutate a tile view");
  std::fill(data_.begin(), data_.end(), v);
}

void Tile::axpy(double alpha, const Tile& other) {
  BSTC_REQUIRE(view_ == nullptr, "cannot mutate a tile view");
  BSTC_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
               "axpy requires equal tile dimensions");
  const double* src = other.data();
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * src[i];
  }
}

double Tile::max_abs_diff(const Tile& other) const {
  BSTC_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
               "diff requires equal tile dimensions");
  const double* lhs = data();
  const double* rhs = other.data();
  const auto count = static_cast<std::size_t>(size());
  double worst = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    worst = std::max(worst, std::abs(lhs[i] - rhs[i]));
  }
  return worst;
}

double Tile::norm() const {
  const double* ptr = data();
  const auto count = static_cast<std::size_t>(size());
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) acc += ptr[i] * ptr[i];
  return std::sqrt(acc);
}

}  // namespace bstc
