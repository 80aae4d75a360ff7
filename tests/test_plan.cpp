/// Tests for the inspector: column assignment, piece construction,
/// worst-fit block partition, chunk segmentation and full plan building.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "plan/builder.hpp"
#include "plan/column_assignment.hpp"
#include "plan/stats.hpp"
#include "shape/shape_algebra.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

TEST(GridSpec, HomeOfIsTwoDimensionalCyclic) {
  // Identity layout: tile (i, j) lives on slot (i % p) * q + j % q.
  const GridSpec grid{2, 3, {}};
  EXPECT_EQ(grid.nodes(), 6);
  EXPECT_EQ(grid.home_of(0, 0), 0);
  EXPECT_EQ(grid.home_of(0, 1), 1);
  EXPECT_EQ(grid.home_of(1, 0), 3);
  EXPECT_EQ(grid.home_of(3, 4), 4);  // row 1, col 1
  EXPECT_EQ(grid.home_of(5, 5), 5);  // row 1, col 2
  // A permuted layout maps each slot to its rank.
  const GridSpec permuted{2, 3, {5, 3, 1, 4, 2, 0}};
  EXPECT_EQ(permuted.home_of(0, 0), 5);
  EXPECT_EQ(permuted.home_of(0, 1), 3);
  EXPECT_EQ(permuted.home_of(1, 0), 4);
  EXPECT_EQ(permuted.home_of(3, 4), 2);
  EXPECT_EQ(permuted.home_of(5, 5), 0);
  EXPECT_EQ(permuted.node_id(1, 2), 0);
}

TEST(ColumnAssignment, MirroredCyclicOrder) {
  // Weights already sorted ascending: 1..6 over q=3 procs.
  // Forward pass: cols 0,1,2 -> procs 0,1,2; mirrored: cols 3,4,5 ->
  // procs 2,1,0.
  const std::vector<double> flops{1, 2, 3, 4, 5, 6};
  const ColumnAssignment a = assign_columns_mirrored_cyclic(flops, 3);
  EXPECT_EQ(a.columns_of[0], (std::vector<std::uint32_t>{0, 5}));
  EXPECT_EQ(a.columns_of[1], (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(a.columns_of[2], (std::vector<std::uint32_t>{2, 3}));
  EXPECT_DOUBLE_EQ(a.flops_of[0], 7.0);
  EXPECT_DOUBLE_EQ(a.flops_of[1], 7.0);
  EXPECT_DOUBLE_EQ(a.flops_of[2], 7.0);
  EXPECT_DOUBLE_EQ(load_imbalance(a), 1.0);
}

TEST(ColumnAssignment, SortsByWeightFirst) {
  const std::vector<double> flops{10, 1, 5, 7};
  const ColumnAssignment a = assign_columns_mirrored_cyclic(flops, 2);
  // Sorted order: 1(c1),5(c2),7(c3),10(c0); deal: p0<-c1, p1<-c2,
  // mirror: p1<-c3, p0<-c0.
  EXPECT_EQ(a.columns_of[0], (std::vector<std::uint32_t>{1, 0}));
  EXPECT_EQ(a.columns_of[1], (std::vector<std::uint32_t>{2, 3}));
  EXPECT_DOUBLE_EQ(a.flops_of[0], 11.0);
  EXPECT_DOUBLE_EQ(a.flops_of[1], 12.0);
}

TEST(ColumnAssignment, EveryColumnAssignedOnce) {
  Rng rng(41);
  std::vector<double> flops(137);
  for (double& f : flops) f = rng.uniform(0.0, 100.0);
  const ColumnAssignment a = assign_columns_mirrored_cyclic(flops, 7);
  std::vector<int> seen(flops.size(), 0);
  for (const auto& cols : a.columns_of) {
    for (const std::uint32_t c : cols) ++seen[c];
  }
  for (const int s : seen) EXPECT_EQ(s, 1);
  // Mirrored-cyclic on random weights is near-balanced.
  EXPECT_LT(load_imbalance(a), 1.3);
}

TEST(ColumnAssignment, InvalidProcessorCountThrows) {
  EXPECT_THROW(assign_columns_mirrored_cyclic({}, 0), Error);
}

TEST(SliceRows, RoundRobinRows) {
  EXPECT_EQ(slice_rows(5, 2, 0), (std::vector<std::uint32_t>{0, 2, 4}));
  EXPECT_EQ(slice_rows(5, 2, 1), (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(slice_rows(3, 1, 0), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_THROW(slice_rows(3, 2, 2), Error);
}

class PlanFixture : public ::testing::Test {
 protected:
  PlanFixture() : rng_(101) {
    mt_ = Tiling::random_uniform(400, 30, 90, rng_);
    kt_ = Tiling::random_uniform(2000, 30, 90, rng_);
    nt_ = Tiling::random_uniform(2000, 30, 90, rng_);
    a_ = std::make_unique<Shape>(Shape::random(mt_, kt_, 0.5, rng_));
    b_ = std::make_unique<Shape>(Shape::random(kt_, nt_, 0.3, rng_));
    c_ = std::make_unique<Shape>(contract_shape(*a_, *b_));
  }

  Rng rng_;
  Tiling mt_, kt_, nt_;
  std::unique_ptr<Shape> a_, b_, c_;
};

TEST_F(PlanFixture, MakePiecesCoversAllNonzeroColumns) {
  const auto slice = slice_rows(a_->tile_rows(), 1, 0);
  std::vector<std::uint32_t> cols(b_->tile_cols());
  std::iota(cols.begin(), cols.end(), 0u);
  const auto pieces = make_pieces(*b_, *c_, slice, cols, 1e12);
  // Unlimited capacity: exactly one piece per column, k lists match B.
  ASSERT_EQ(pieces.size(), b_->tile_cols());
  for (const auto& piece : pieces) {
    EXPECT_FALSE(piece.segmented);
    EXPECT_EQ(piece.ks.size(), b_->nnz_in_col(piece.col));
    EXPECT_NEAR(piece.b_bytes, column_nnz_bytes(*b_, piece.col), 1e-6);
  }
}

TEST_F(PlanFixture, MakePiecesSegmentsOversizedColumns) {
  const auto slice = slice_rows(a_->tile_rows(), 1, 0);
  // Capacity so small that every multi-tile column must split.
  const double cap = 90 * 90 * 8.0 * 3;
  std::vector<std::uint32_t> cols{0, 1, 2};
  const auto pieces = make_pieces(*b_, *c_, slice, cols, cap);
  std::unordered_set<std::uint32_t> seen_cols;
  for (const auto& piece : pieces) {
    seen_cols.insert(piece.col);
    // every k of the column appears in exactly one piece; check coverage:
  }
  for (const std::uint32_t j : cols) {
    std::size_t total_ks = 0;
    for (const auto& piece : pieces) {
      if (piece.col == j) total_ks += piece.ks.size();
    }
    EXPECT_EQ(total_ks, b_->nnz_in_col(j));
  }
  EXPECT_LE(seen_cols.size(), 3u);
}

TEST(BlockPartition, WorstFitPrefersEmptiestBlock) {
  // Three pieces of sizes 6,5,4 with capacity 10 over 2 GPUs:
  // sorted 6,5,4 -> 6 to gpu0 (rem 4), 5 to gpu1 (rem 5), 4 to gpu1?
  // worst-fit: remaining spaces are 4 and 5 -> block of gpu1; 4 fits in 5.
  auto piece = [](std::uint32_t col, double bytes) {
    ColumnPiece p;
    p.col = col;
    p.ks = {0};
    p.b_bytes = bytes;
    return p;
  };
  const auto blocks =
      partition_blocks({piece(0, 6), piece(1, 5), piece(2, 4)}, 10.0, 2);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].pieces.size(), 1u);  // the 6
  EXPECT_EQ(blocks[1].pieces.size(), 2u);  // 5 then 4
  EXPECT_DOUBLE_EQ(blocks[1].bytes, 9.0);
}

TEST(BlockPartition, NewBlocksRoundRobinAcrossGpus) {
  auto piece = [](std::uint32_t col) {
    ColumnPiece p;
    p.col = col;
    p.ks = {0};
    p.b_bytes = 8.0;  // capacity 10: one piece per block
    return p;
  };
  std::vector<ColumnPiece> pieces;
  for (std::uint32_t c = 0; c < 7; ++c) pieces.push_back(piece(c));
  const auto blocks = partition_blocks(std::move(pieces), 10.0, 2);
  ASSERT_EQ(blocks.size(), 7u);
  int per_gpu[2] = {0, 0};
  for (const auto& b : blocks) ++per_gpu[b.gpu];
  // "no GPU is assigned more than one block than any other GPU"
  EXPECT_LE(std::abs(per_gpu[0] - per_gpu[1]), 1);
}

TEST(BlockPartition, OversizedPieceGetsOwnFlaggedBlock) {
  ColumnPiece big;
  big.col = 0;
  big.ks = {0, 1};
  big.b_bytes = 100.0;
  ColumnPiece small;
  small.col = 1;
  small.ks = {0};
  small.b_bytes = 1.0;
  const auto blocks = partition_blocks({big, small}, 10.0, 1);
  ASSERT_EQ(blocks.size(), 2u);
  bool found_oversized = false;
  for (const auto& b : blocks) {
    if (b.oversized) {
      found_oversized = true;
      EXPECT_EQ(b.pieces.size(), 1u);
      EXPECT_DOUBLE_EQ(b.bytes, 100.0);
    }
  }
  EXPECT_TRUE(found_oversized);
}

TEST(BlockDeal, HeaviestFirstInMirroredCyclicOrder) {
  // Flops 1, 9, 5, 3, 7 over 2 GPUs: by weight 9, 7, 5, 3, 1 go to GPUs
  // 0, 1, 1, 0, 0.
  std::vector<BlockPlan> blocks(5);
  const std::vector<double> flops = {1.0, 9.0, 5.0, 3.0, 7.0};
  deal_blocks(blocks, flops, 2);
  const std::vector<std::uint32_t> expected = {0, 0, 1, 0, 1};
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ(blocks[b].gpu, expected[b]) << b;
  }
  EXPECT_THROW(deal_blocks(blocks, flops, 0), Error);
}

TEST_F(PlanFixture, BuildPlanSpreadsTheHeaviestBlocks) {
  // Small GPUs: several blocks per GPU. Each node's `gpus` heaviest
  // blocks sit on distinct GPUs, block counts per GPU differ by at most
  // one, and the block flops add up to the contraction's.
  MachineModel machine = MachineModel::summit(2);
  machine.node.gpu.memory_bytes = 1.5e6;
  PlanConfig cfg;
  const ExecutionPlan plan = build_plan(*a_, *b_, *c_, machine, cfg);
  double total = 0.0;
  for (std::size_t n = 0; n < plan.nodes.size(); ++n) {
    const NodePlan& node = plan.nodes[n];
    const int gpus = plan.gpus_of_node[n];
    ASSERT_GT(node.blocks.size(), static_cast<std::size_t>(gpus));
    const std::vector<std::uint32_t> slice =
        slice_rows(a_->tile_rows(), plan.grid.p, node.grid_row);
    std::vector<std::pair<double, std::uint32_t>> by_flops;
    std::vector<int> count(static_cast<std::size_t>(gpus), 0);
    for (const BlockPlan& block : node.blocks) {
      by_flops.emplace_back(block_flops(*a_, *c_, slice, block), block.gpu);
      total += by_flops.back().first;
      ++count[block.gpu];
    }
    std::stable_sort(by_flops.begin(), by_flops.end(),
                     [](const auto& x, const auto& y) {
                       return x.first > y.first;
                     });
    std::unordered_set<std::uint32_t> heaviest_gpus;
    for (int g = 0; g < gpus; ++g) {
      heaviest_gpus.insert(by_flops[static_cast<std::size_t>(g)].second);
    }
    EXPECT_EQ(heaviest_gpus.size(), static_cast<std::size_t>(gpus));
    const auto [lo, hi] = std::minmax_element(count.begin(), count.end());
    EXPECT_LE(*hi - *lo, 1);
  }
  const ContractionStats expected = contraction_stats(*a_, *b_, *c_);
  EXPECT_NEAR(total, expected.flops, 1e-9 * expected.flops);
}

TEST_F(PlanFixture, FullPlanValidatesOnSingleNode) {
  const MachineModel machine = MachineModel::summit(1);
  PlanConfig cfg;
  const ExecutionPlan plan = build_plan(*a_, *b_, *c_, machine, cfg);
  const auto violations = validate_plan(plan, *a_, *b_, *c_);
  for (const auto& v : violations) ADD_FAILURE() << v;
  EXPECT_TRUE(violations.empty());
}

TEST_F(PlanFixture, FullPlanValidatesOnGrid2x4) {
  const MachineModel machine = MachineModel::summit(8);
  PlanConfig cfg;
  cfg.p = 2;
  const ExecutionPlan plan = build_plan(*a_, *b_, *c_, machine, cfg);
  EXPECT_EQ(plan.grid.p, 2);
  EXPECT_EQ(plan.grid.q, 4);
  const auto violations = validate_plan(plan, *a_, *b_, *c_);
  for (const auto& v : violations) ADD_FAILURE() << v;
}

TEST_F(PlanFixture, PlanStatsMatchShapeAlgebra) {
  const MachineModel machine = MachineModel::summit(4);
  PlanConfig cfg;
  cfg.p = 2;
  const ExecutionPlan plan = build_plan(*a_, *b_, *c_, machine, cfg);
  const PlanStats st = compute_stats(plan, *a_, *b_, *c_);
  const ContractionStats expected = contraction_stats(*a_, *b_, *c_);
  EXPECT_EQ(st.gemm_tasks, expected.gemm_tasks);
  EXPECT_NEAR(st.total_flops, expected.flops, 1e-6 * expected.flops);
  // Every node loads each of its B pieces exactly once; with p=2 the B
  // matrix is replicated, so generated bytes ~= 2x B's nonzero bytes
  // (columns with no local work may be skipped).
  EXPECT_LE(st.b_generated_bytes, 2.0 * b_->nnz_bytes() + 1.0);
  EXPECT_GT(st.b_generated_bytes, 1.5 * b_->nnz_bytes());
  EXPECT_GE(st.gpu_imbalance, 1.0);
}

TEST_F(PlanFixture, TinyGpuMemoryStillProducesValidPlan) {
  MachineModel machine = MachineModel::summit(2);
  machine.node.gpu.memory_bytes = 600 * 1024;  // absurdly small: force
                                               // segmentation everywhere
  PlanConfig cfg;
  const ExecutionPlan plan = build_plan(*a_, *b_, *c_, machine, cfg);
  const auto violations = validate_plan(plan, *a_, *b_, *c_);
  for (const auto& v : violations) ADD_FAILURE() << v;
  const PlanStats st = compute_stats(plan, *a_, *b_, *c_);
  EXPECT_GT(st.segmented_columns + st.blocks, 0u);
}

TEST_F(PlanFixture, ChunksRespectBudgetAndCycleRows) {
  const MachineModel machine = MachineModel::summit(1);
  PlanConfig cfg;
  const ExecutionPlan plan = build_plan(*a_, *b_, *c_, machine, cfg);
  const double chunk_cap =
      cfg.chunk_mem_fraction * machine.node.gpu.memory_bytes;
  for (const NodePlan& node : plan.nodes) {
    for (const BlockPlan& block : node.blocks) {
      for (const Chunk& chunk : block.chunks) {
        if (chunk.a_tiles.size() > 1) {
          EXPECT_LE(chunk.a_bytes, chunk_cap * (1 + 1e-9));
        }
      }
    }
  }
}

TEST_F(PlanFixture, InvalidConfigsThrow) {
  const MachineModel machine = MachineModel::summit(2);
  PlanConfig cfg;
  cfg.p = 3;  // more grid rows than nodes
  EXPECT_THROW(build_plan(*a_, *b_, *c_, machine, cfg), Error);
  PlanConfig cfg2;
  cfg2.block_mem_fraction = 0.9;  // 0.9 + 2*0.25 > 1
  EXPECT_THROW(build_plan(*a_, *b_, *c_, machine, cfg2), Error);
}

/// Property sweep: plans over random problems and grids always validate.
class PlanProperty
    : public ::testing::TestWithParam<std::tuple<int, int, double, double>> {};

TEST_P(PlanProperty, AlwaysValid) {
  const auto [nodes, p, da, db] = GetParam();
  Rng rng(static_cast<std::uint64_t>(nodes * 7919 + p * 104729));
  const Tiling mt = Tiling::random_uniform(300, 20, 70, rng);
  const Tiling kt = Tiling::random_uniform(1200, 20, 70, rng);
  const Tiling nt = Tiling::random_uniform(1200, 20, 70, rng);
  const Shape a = Shape::random(mt, kt, da, rng);
  const Shape b = Shape::random(kt, nt, db, rng);
  const Shape c = contract_shape(a, b);
  const MachineModel machine = MachineModel::summit(nodes);
  PlanConfig cfg;
  cfg.p = p;
  const ExecutionPlan plan = build_plan(a, b, c, machine, cfg);
  const auto violations = validate_plan(plan, a, b, c);
  for (const auto& v : violations) ADD_FAILURE() << v;
  const PlanStats st = compute_stats(plan, a, b, c);
  const ContractionStats expected = contraction_stats(a, b, c);
  EXPECT_EQ(st.gemm_tasks, expected.gemm_tasks);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanProperty,
    ::testing::Values(std::make_tuple(1, 1, 1.0, 1.0),
                      std::make_tuple(2, 1, 0.5, 0.5),
                      std::make_tuple(2, 2, 0.5, 0.25),
                      std::make_tuple(4, 2, 0.25, 0.1),
                      std::make_tuple(6, 3, 0.75, 0.75),
                      std::make_tuple(8, 4, 0.1, 0.1)));

}  // namespace
}  // namespace bstc
