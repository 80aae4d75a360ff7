/// Tests for dense tiles and the blocked GEMM kernel.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
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

bool within_high_water(const TileStorageStats& s) {
  return s.live_bytes + s.cached_bytes <= s.high_water_bytes;
}

TEST(Tile, LargeTilesFreedOnAnotherThreadLeaveTheResidentSet) {
  // Generated on one thread and freed on another, as pool-generated B
  // tiles are: freed mappings stay cached for the next large tile, and
  // trim_tile_storage returns their pages to the kernel. Through malloc
  // they would not go back — once an 8 MiB block has been freed, glibc
  // serves 4 MiB requests from the allocating thread's arena and keeps
  // them resident after free.
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
  trim_tile_storage();
  const long after = *rss_kib();
  const long tiles_kib = 3 * rows * cols * 8 / 1024;
  EXPECT_GE(live - after, tiles_kib / 2)
      << "live " << live << " KiB, after " << after << " KiB";
  const TileStorageStats stats = tile_storage_stats();
  EXPECT_EQ(stats.cached_bytes, 0u);
  EXPECT_TRUE(within_high_water(stats))
      << "live " << stats.live_bytes << " + cached " << stats.cached_bytes
      << " > high-water " << stats.high_water_bytes;
}

bool all_zero(const Tile& t) {
  for (Index j = 0; j < t.cols(); ++j) {
    for (Index i = 0; i < t.rows(); ++i) {
      if (t.at(i, j) != 0.0) return false;
    }
  }
  return true;
}

TEST(TileStorage, FreedMappingServesSmallerAndLargerTilesOnAnotherThread) {
  trim_tile_storage();  // the freed tile's mapping is then the only one
  const double* freed = nullptr;
  std::thread([&] {
    Tile t(512, 512);  // 2 MiB
    t.fill(1.0);
    freed = t.data();
  }).join();
  const TileStorageStats before = tile_storage_stats();
  ASSERT_GE(before.cached_bytes, std::size_t{2} << 20);
  std::thread([&] {
    {
      Tile smaller(300, 400);  // 0.92 MiB: the cached mapping's tail goes
      EXPECT_EQ(smaller.data(), freed) << "the last freed mapping is reused";
      EXPECT_EQ(smaller.rows(), 300);
      EXPECT_EQ(smaller.cols(), 400);
      EXPECT_TRUE(all_zero(smaller));
      smaller.fill(2.0);
    }
    Tile larger(700, 600);  // 3.2 MiB: the same mapping, grown
    EXPECT_EQ(larger.rows(), 700);
    EXPECT_EQ(larger.cols(), 600);
    EXPECT_TRUE(all_zero(larger));
  }).join();
  const TileStorageStats after = tile_storage_stats();
  EXPECT_EQ(after.reuses, before.reuses + 2);
  EXPECT_EQ(after.fresh_maps, before.fresh_maps);
  EXPECT_TRUE(within_high_water(after));
}

TEST(TileStorage, ATileTakesACachedMappingOfItsOwnLength) {
  // Preferred over the more recently freed mappings of other lengths,
  // which would have to be resized.
  std::optional<Tile> same(std::in_place, 256, 300);
  std::vector<Tile> others;
  for (Index cols = 310; cols <= 380; cols += 10) {
    others.emplace_back(256, cols);
  }
  const double* same_data = same->data();
  same.reset();
  others.clear();
  const Tile again(300, 256);
  EXPECT_EQ(again.data(), same_data);
  EXPECT_TRUE(all_zero(again));
}

TEST(TileStorage, VariedSizesKeepLiveAndCachedWithinHighWater) {
  // Random allocate/free cycles over payloads of 128 KiB .. 2 MiB, on two
  // threads in turn: every reading keeps live + cached mapped bytes within
  // the high-water mark of live ones, and every new tile reads zero.
  Rng rng(11);
  std::vector<Tile> live;
  int bad_values = 0, bad_bounds = 0;
  for (int round = 0; round < 8; ++round) {
    std::thread([&] {
      for (int op = 0; op < 40; ++op) {
        if (!live.empty() && rng.uniform() < 0.45) {
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(
                                        rng.uniform_index(live.size())));
        } else {
          live.emplace_back(256, rng.uniform_int(64, 1024));
          if (!all_zero(live.back())) ++bad_values;
          live.back().fill(static_cast<double>(op + 1));
        }
        if (!within_high_water(tile_storage_stats())) ++bad_bounds;
      }
    }).join();
  }
  live.clear();
  const TileStorageStats stats = tile_storage_stats();
  EXPECT_EQ(bad_values, 0);
  EXPECT_EQ(bad_bounds, 0);
  EXPECT_EQ(stats.live_bytes, 0u);
  EXPECT_GT(stats.reuses, 0u);
  EXPECT_TRUE(within_high_water(stats));
  trim_tile_storage();
  EXPECT_EQ(tile_storage_stats().cached_bytes, 0u);
}

TEST(TileStorage, UseAfterFreeOfALargeTileIsReportedUnderAsan) {
  // A freed mapping stays mapped in the cache, so only its poisoning lets
  // AddressSanitizer see a read of a dead large tile.
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_DEATH(
      {
        const double* dead = nullptr;
        { const Tile t(256, 512); dead = t.data(); }
        std::printf("%f\n", dead[1000]);
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "needs AddressSanitizer";
#endif
}

TEST(TileStorageFork, ChildStartsWithEmptyCache) {
  // Fork while another thread allocates and frees large tiles: the child
  // must not inherit a held cache lock, and starts with nothing cached.
  { const Tile warm(512, 512); }
  ASSERT_GT(tile_storage_stats().cached_bytes, 0u);
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load()) {
      Tile t(256, 700);
      t.fill(1.0);
    }
  });
  const pid_t pid = fork();
  if (pid == 0) {
    alarm(20);  // a deadlock ends the child by SIGALRM
    int rc = 0;
    if (tile_storage_stats().cached_bytes != 0) rc = 2;
    if (rc == 0) {
      Tile t(512, 600);
      if (!all_zero(t)) rc = 3;
    }
    if (rc == 0 && tile_storage_stats().cached_bytes == 0) rc = 4;
    _exit(rc);
  }
  stop = true;
  churn.join();
  ASSERT_GE(pid, 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << (WIFSIGNALED(status) ? WTERMSIG(status)
                                                         : 0);
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "2: inherited cache, 3: nonzero tile, 4: freed tile not cached";
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
