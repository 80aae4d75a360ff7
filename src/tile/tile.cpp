#include "tile/tile.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <new>

#include "support/error.hpp"

namespace bstc {

void* allocate_tile_storage(std::size_t bytes) {
  if (bytes < kMappedTileBytes) return ::operator new(bytes);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void release_tile_storage(void* p, std::size_t bytes) noexcept {
  if (bytes < kMappedTileBytes) {
    ::operator delete(p);
  } else {
    ::munmap(p, bytes);
  }
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
