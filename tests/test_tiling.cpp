/// Unit + property tests for tilings, fusion and 1-D k-means clustering.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "support/error.hpp"
#include "tiling/cluster.hpp"
#include "tiling/tiling.hpp"

namespace bstc {
namespace {

TEST(Tiling, FromExtents) {
  const std::vector<Index> ext{3, 5, 2};
  const Tiling t = Tiling::from_extents(ext);
  EXPECT_EQ(t.num_tiles(), 3u);
  EXPECT_EQ(t.extent(), 10);
  EXPECT_EQ(t.tile_offset(0), 0);
  EXPECT_EQ(t.tile_offset(1), 3);
  EXPECT_EQ(t.tile_offset(2), 8);
  EXPECT_EQ(t.tile_extent(1), 5);
  EXPECT_EQ(t.max_tile_extent(), 5);
  EXPECT_EQ(t.min_tile_extent(), 2);
  EXPECT_NEAR(t.mean_tile_extent(), 10.0 / 3.0, 1e-12);
}

TEST(Tiling, RejectsNonPositiveExtents) {
  const std::vector<Index> bad{3, 0, 2};
  EXPECT_THROW(Tiling::from_extents(bad), Error);
}

TEST(Tiling, Uniform) {
  const Tiling t = Tiling::uniform(10, 4);
  ASSERT_EQ(t.num_tiles(), 3u);
  EXPECT_EQ(t.tile_extent(0), 4);
  EXPECT_EQ(t.tile_extent(2), 2);
  EXPECT_EQ(t.extent(), 10);
}

TEST(Tiling, TileOfLocatesEveryElement) {
  const std::vector<Index> ext{3, 1, 6};
  const Tiling t = Tiling::from_extents(ext);
  for (Index i = 0; i < t.extent(); ++i) {
    const std::size_t tt = t.tile_of(i);
    EXPECT_GE(i, t.tile_offset(tt));
    EXPECT_LT(i, t.tile_offset(tt) + t.tile_extent(tt));
  }
  EXPECT_THROW(t.tile_of(-1), Error);
  EXPECT_THROW(t.tile_of(10), Error);
}

TEST(Tiling, RandomUniformCoversExactlyAndRespectsBounds) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const Index extent = 10000 + 137 * trial;
    const Tiling t = Tiling::random_uniform(extent, 512, 2048, rng);
    EXPECT_EQ(t.extent(), extent);
    // All tiles except possibly the last two (clip/merge) are in range.
    for (std::size_t i = 0; i + 1 < t.num_tiles(); ++i) {
      EXPECT_GE(t.tile_extent(i), 512);
      EXPECT_LE(t.tile_extent(i), 2048 + 2048);  // merged tail allowance
    }
    EXPECT_GE(t.min_tile_extent(), 256);  // no pathological slivers
  }
}

TEST(Tiling, EqualityIsStructural) {
  const std::vector<Index> e{4, 4};
  EXPECT_EQ(Tiling::from_extents(e), Tiling::uniform(8, 4));
}

TEST(Cluster, KMeansPartitionsIntoContiguousRuns) {
  // Two well-separated groups on a line: k=2 must split them exactly.
  std::vector<double> pts;
  for (int i = 0; i < 10; ++i) pts.push_back(0.0 + 0.01 * i);
  for (int i = 0; i < 14; ++i) pts.push_back(100.0 + 0.01 * i);
  Rng rng(3);
  const Clustering c = kmeans_1d(pts, 2, rng);
  ASSERT_EQ(c.sizes.size(), 2u);
  EXPECT_EQ(c.sizes[0], 10u);
  EXPECT_EQ(c.sizes[1], 14u);
  EXPECT_LT(c.centroids[0], c.centroids[1]);
}

TEST(Cluster, AllClustersNonEmpty) {
  std::vector<double> pts(100);
  std::iota(pts.begin(), pts.end(), 0.0);
  Rng rng(9);
  for (std::size_t k : {1u, 3u, 7u, 10u, 50u}) {
    const Clustering c = kmeans_1d(pts, k, rng);
    ASSERT_EQ(c.sizes.size(), k);
    std::size_t total = 0;
    for (std::size_t s : c.sizes) {
      EXPECT_GT(s, 0u);
      total += s;
    }
    EXPECT_EQ(total, pts.size());
  }
}

TEST(Cluster, KClampedToDistinctPoints) {
  const std::vector<double> pts{1.0, 1.0, 2.0};
  Rng rng(1);
  const Clustering c = kmeans_1d(pts, 10, rng);
  EXPECT_LE(c.sizes.size(), 2u);
}

TEST(Cluster, TilingFromClustersSumsWeights) {
  std::vector<double> pts{0.0, 0.1, 5.0, 5.1, 5.2};
  Rng rng(2);
  const Clustering c = kmeans_1d(pts, 2, rng);
  const std::vector<Index> weights{14, 14, 5, 5, 5};
  const Tiling t = tiling_from_clusters(c, weights);
  EXPECT_EQ(t.extent(), 43);
  ASSERT_EQ(t.num_tiles(), 2u);
  EXPECT_EQ(t.tile_extent(0), 28);
  EXPECT_EQ(t.tile_extent(1), 15);
}

class KMeansParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KMeansParam, ClustersAreOrderedAlongAxis) {
  Rng rng(GetParam());
  std::vector<double> pts;
  for (int i = 0; i < 200; ++i) pts.push_back(rng.uniform(0.0, 50.0));
  const Clustering c = kmeans_1d(pts, 8, rng);
  // Assignments over sorted points must be non-decreasing (1-D contiguity).
  for (std::size_t i = 1; i < c.assignment.size(); ++i) {
    EXPECT_LE(c.assignment[i - 1], c.assignment[i]);
  }
  for (std::size_t i = 1; i < c.centroids.size(); ++i) {
    EXPECT_LT(c.centroids[i - 1], c.centroids[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KMeansParam,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace bstc
