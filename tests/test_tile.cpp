/// Tests for dense tiles and the blocked GEMM kernel.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "support/error.hpp"
#include "tile/gemm.hpp"
#include "tile/tile.hpp"

namespace bstc {
namespace {

TEST(Tile, ZeroInitialised) {
  const Tile t(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.size(), 12);
  EXPECT_EQ(t.bytes(), 96u);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(t.at(i, j), 0.0);
  }
}

TEST(Tile, MappedStorageBehavesLikeSmallStorage) {
  // 256 x 64 doubles = 128 KiB: the smallest mapped payload.
  const Index rows = 256, cols = 64;
  ASSERT_EQ(static_cast<std::size_t>(rows * cols) * sizeof(double),
            kMappedTileBytes);
  Tile t(rows, cols);
  for (Index j = 0; j < cols; ++j) {
    for (Index i = 0; i < rows; ++i) EXPECT_EQ(t.at(i, j), 0.0);
  }
  Rng rng(3);
  t.fill_random(rng);
  Tile copy = t;
  EXPECT_NE(copy.data(), t.data());
  EXPECT_EQ(copy.max_abs_diff(t), 0.0);
  const double* payload = t.data();
  Tile moved = std::move(t);
  EXPECT_EQ(moved.data(), payload);
  copy = Tile(rows - 1, cols);  // a mapped payload replaced by another
  EXPECT_EQ(copy.at(rows - 2, cols - 1), 0.0);
}

/// Resident set size of this process in KiB, from /proc/self/status.
std::optional<long> rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return std::nullopt;
}

TEST(Tile, LargeTilesFreedOnAnotherThreadLeaveTheResidentSet) {
  // Generated on one thread and freed on another, as pool-generated B
  // tiles are: their pages must go back to the kernel. Through malloc
  // they would not — once an 8 MiB block has been freed, glibc serves
  // 4 MiB requests from the allocating thread's arena and keeps them
  // resident after free.
  if (!rss_kib()) GTEST_SKIP() << "no /proc/self/status";
  { const Tile warm(1024, 1024); }  // 8 MiB
  const Index rows = 512, cols = 1024;  // 4 MiB each
  std::vector<Tile> tiles;
  std::thread([&] {
    for (int i = 0; i < 3; ++i) {
      tiles.emplace_back(rows, cols);
      tiles.back().fill(1.0);
    }
  }).join();
  const long live = *rss_kib();
  tiles.clear();
  const long after = *rss_kib();
  const long tiles_kib = 3 * rows * cols * 8 / 1024;
  EXPECT_GE(live - after, tiles_kib / 2)
      << "live " << live << " KiB, after " << after << " KiB";
}

TEST(Tile, ColumnMajorLayout) {
  Tile t(2, 3);
  t.at(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(t.data()[2 * 2 + 1], 7.0);
  EXPECT_EQ(t.ld(), 2);
}

TEST(Tile, OutOfRangeThrows) {
  Tile t(2, 2);
  EXPECT_THROW(t.at(2, 0), Error);
  EXPECT_THROW(t.at(0, -1), Error);
}

TEST(Tile, AxpyAndDiff) {
  Tile a(2, 2), b(2, 2);
  a.fill(1.0);
  b.fill(2.0);
  a.axpy(0.5, b);  // a = 1 + 0.5*2 = 2
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
  EXPECT_NEAR(a.norm(), 4.0, 1e-12);
}

TEST(Tile, RandomFillInRange) {
  Rng rng(5);
  Tile t(10, 10);
  t.fill_random(rng);
  bool any_nonzero = false;
  for (Index i = 0; i < 10; ++i) {
    for (Index j = 0; j < 10; ++j) {
      EXPECT_GE(t.at(i, j), -1.0);
      EXPECT_LT(t.at(i, j), 1.0);
      any_nonzero |= t.at(i, j) != 0.0;
    }
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(Gemm, SmallKnownProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  Tile a(2, 2), b(2, 2), c(2, 2);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(1, 0) = 3; a.at(1, 1) = 4;
  b.at(0, 0) = 5; b.at(0, 1) = 6; b.at(1, 0) = 7; b.at(1, 1) = 8;
  gemm(1.0, a, b, 0.0, c);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50);
}

TEST(Gemm, AlphaBetaSemantics) {
  Tile a(1, 1), b(1, 1), c(1, 1);
  a.at(0, 0) = 3;
  b.at(0, 0) = 4;
  c.at(0, 0) = 10;
  gemm(2.0, a, b, 0.5, c);  // 2*12 + 0.5*10 = 29
  EXPECT_DOUBLE_EQ(c.at(0, 0), 29.0);
  gemm(0.0, a, b, 1.0, c);  // unchanged
  EXPECT_DOUBLE_EQ(c.at(0, 0), 29.0);
  gemm(0.0, a, b, 0.0, c);  // cleared
  EXPECT_DOUBLE_EQ(c.at(0, 0), 0.0);
}

TEST(Gemm, ConformanceEnforced) {
  Tile a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(gemm(1.0, a, b, 0.0, c), Error);
  Tile b2(3, 2), c_bad(3, 2);
  EXPECT_THROW(gemm(1.0, a, b2, 0.0, c_bad), Error);
}

TEST(Gemm, FlopsFormula) {
  const Tile a(10, 20), b(20, 30);
  EXPECT_DOUBLE_EQ(gemm_flops(a, b), 2.0 * 10 * 30 * 20);
}

/// Parameterized sweep: blocked kernel must agree with the naive reference
/// across shapes that exercise all fringe paths of the blocking.
class GemmShapes
    : public ::testing::TestWithParam<std::tuple<Index, Index, Index>> {};

TEST_P(GemmShapes, BlockedMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000003 + n * 1009 + k));
  Tile a(m, k), b(k, n), c0(m, n), c1(m, n);
  a.fill_random(rng);
  b.fill_random(rng);
  c0.fill_random(rng);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) c1.at(i, j) = c0.at(i, j);
  }
  gemm_naive(0.75, a, b, 0.25, c0);
  gemm(0.75, a, b, 0.25, c1);
  EXPECT_LT(c0.max_abs_diff(c1), 1e-11 * static_cast<double>(k + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(4, 4, 4),
                      std::make_tuple(3, 5, 7), std::make_tuple(8, 8, 1),
                      std::make_tuple(1, 17, 9), std::make_tuple(129, 5, 3),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(130, 131, 257),
                      std::make_tuple(100, 300, 50),
                      std::make_tuple(257, 4, 513)));

}  // namespace
}  // namespace bstc
