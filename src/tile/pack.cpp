#include "tile/pack.hpp"

#include <pthread.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <new>

#include "runtime/compute_pool.hpp"
#include "support/error.hpp"

namespace bstc {

PackArena::~PackArena() { release(); }

void PackArena::release() noexcept {
  if (buffer_ == nullptr) return;
  if (mapped_) {
    ::munmap(buffer_, capacity_bytes_);
  } else {
    std::free(buffer_);
  }
}

double* PackArena::acquire(std::size_t doubles) {
  std::size_t bytes = doubles * sizeof(double);
  if (bytes > capacity_bytes_) {
    // Grow geometrically and round to the 64-byte alignment quantum
    // (std::aligned_alloc requires size % alignment == 0; mappings are
    // page-aligned).
    bytes = std::max(bytes, capacity_bytes_ * 2);
    bytes = (bytes + 63) & ~std::size_t{63};
    void* p = nullptr;
    if (mapped_) {
      p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) p = nullptr;
    } else {
      p = std::aligned_alloc(64, bytes);
    }
    BSTC_REQUIRE(p != nullptr, "pack arena allocation failed");
    release();
    buffer_ = static_cast<double*>(p);
    capacity_bytes_ = bytes;
  }
  return buffer_;
}

namespace {

/// Releases a thread's pack arena when the thread exits.
pthread_key_t pack_arena_key() {
  static const pthread_key_t key = [] {
    pthread_key_t k;
    const int rc = pthread_key_create(
        &k, [](void* arena) { static_cast<PackArena*>(arena)->~PackArena(); });
    BSTC_REQUIRE(rc == 0, "pack arena key creation failed");
    return k;
  }();
  return key;
}

}  // namespace

PackArena& pack_arena() {
  // Trivially destructible thread-local storage plus a pthread key, not a
  // thread_local PackArena, whose destructor registration mallocs.
  alignas(PackArena) thread_local unsigned char storage[sizeof(PackArena)];
  thread_local PackArena* arena = nullptr;
  if (arena == nullptr) {
    arena = new (storage) PackArena(ComputePool::on_helper_thread());
    pthread_setspecific(pack_arena_key(), arena);
  }
  return *arena;
}

void pack_a(Index mc, Index kc, const double* a, Index lda, double* dst,
            Index mr_tile) {
  for (Index ir = 0; ir < mc; ir += mr_tile) {
    const Index mr = std::min(mr_tile, mc - ir);
    const double* src = a + ir;
    if (mr == mr_tile) {
      for (Index k = 0; k < kc; ++k) {
        const double* col = src + k * lda;
        for (Index r = 0; r < mr_tile; ++r) dst[r] = col[r];
        dst += mr_tile;
      }
    } else {
      for (Index k = 0; k < kc; ++k) {
        const double* col = src + k * lda;
        for (Index r = 0; r < mr; ++r) dst[r] = col[r];
        for (Index r = mr; r < mr_tile; ++r) dst[r] = 0.0;
        dst += mr_tile;
      }
    }
  }
}

void pack_b(Index kc, Index nc, const double* b, Index ldb, double* dst,
            Index nr_tile) {
  for (Index jr = 0; jr < nc; jr += nr_tile) {
    const Index nr = std::min(nr_tile, nc - jr);
    const double* src = b + jr * ldb;
    if (nr == nr_tile) {
      for (Index k = 0; k < kc; ++k) {
        for (Index c = 0; c < nr_tile; ++c) dst[c] = src[k + c * ldb];
        dst += nr_tile;
      }
    } else {
      for (Index k = 0; k < kc; ++k) {
        for (Index c = 0; c < nr; ++c) dst[c] = src[k + c * ldb];
        for (Index c = nr; c < nr_tile; ++c) dst[c] = 0.0;
        dst += nr_tile;
      }
    }
  }
}

}  // namespace bstc
