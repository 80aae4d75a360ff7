/// Tests for the extended shape algebra (transpose, union, intersection,
/// subset), matrix-level ops (axpy, scale, transpose) and the grid
/// autotuner.

#include <gtest/gtest.h>

#include <cmath>

#include "bsm/block_sparse_matrix.hpp"
#include "shape/shape_algebra.hpp"
#include "sim/autotune.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

TEST(ShapeOps, TransposeInvolution) {
  Rng rng(3);
  const Tiling rt = Tiling::random_uniform(400, 20, 60, rng);
  const Tiling ct = Tiling::random_uniform(600, 20, 60, rng);
  const Shape s = Shape::random(rt, ct, 0.3, rng);
  const Shape t = transpose(s);
  EXPECT_EQ(t.tile_rows(), s.tile_cols());
  EXPECT_EQ(t.row_tiling(), s.col_tiling());
  for (std::size_t r = 0; r < s.tile_rows(); ++r) {
    for (std::size_t c = 0; c < s.tile_cols(); ++c) {
      EXPECT_EQ(s.nonzero(r, c), t.nonzero(c, r));
    }
  }
  EXPECT_EQ(transpose(t), s);
}

TEST(ShapeOps, UnionIntersectionSubset) {
  Rng rng(5);
  const Tiling t = Tiling::uniform(500, 25);
  const Shape a = Shape::random(t, t, 0.3, rng);
  const Shape b = Shape::random(t, t, 0.3, rng);
  const Shape u = shape_union(a, b);
  const Shape i = shape_intersection(a, b);
  EXPECT_TRUE(shape_subset(a, u));
  EXPECT_TRUE(shape_subset(b, u));
  EXPECT_TRUE(shape_subset(i, a));
  EXPECT_TRUE(shape_subset(i, b));
  // |A| + |B| = |A u B| + |A n B|.
  EXPECT_EQ(a.nnz_tiles() + b.nnz_tiles(), u.nnz_tiles() + i.nnz_tiles());
  // Subset is strict when A has a tile outside B (almost surely here).
  EXPECT_FALSE(shape_subset(u, i));
  // Mismatched tilings rejected.
  const Shape other = Shape::dense(Tiling::uniform(500, 50), t);
  EXPECT_THROW(shape_union(a, other), Error);
}

TEST(MatrixOps, AxpyAndScale) {
  Rng rng(7);
  const Tiling t = Tiling::uniform(60, 15);
  const Shape s = Shape::random(t, t, 0.6, rng);
  BlockSparseMatrix y = BlockSparseMatrix::random(s, rng);
  const BlockSparseMatrix x = BlockSparseMatrix::random(s, rng);
  const double y00 = y.at(0, 0);
  const double x00 = x.at(0, 0);
  axpy(2.0, x, y);
  EXPECT_NEAR(y.at(0, 0), y00 + 2.0 * x00, 1e-12);
  scale(0.5, y);
  EXPECT_NEAR(y.at(0, 0), 0.5 * (y00 + 2.0 * x00), 1e-12);
}

TEST(MatrixOps, AxpyPatternMismatchThrows) {
  Rng rng(9);
  const Tiling t = Tiling::uniform(40, 10);
  Shape dense_s = Shape::dense(t, t);
  Shape sparse_s(t, t);
  sparse_s.set(0, 0);
  const BlockSparseMatrix x = BlockSparseMatrix::random(dense_s, rng);
  BlockSparseMatrix y(sparse_s);
  EXPECT_THROW(axpy(1.0, x, y), Error);
  // The other direction is fine: x inside y.
  BlockSparseMatrix y2(dense_s);
  const BlockSparseMatrix x2 = BlockSparseMatrix::random(sparse_s, rng);
  axpy(1.0, x2, y2);
  EXPECT_NEAR(y2.at(0, 0), x2.at(0, 0), 1e-12);
}

TEST(MatrixOps, TransposeElementwise) {
  Rng rng(11);
  const Tiling rt = Tiling::from_extents(std::vector<Index>{3, 5});
  const Tiling ct = Tiling::from_extents(std::vector<Index>{4, 2, 6});
  Shape s(rt, ct);
  s.set(0, 1);
  s.set(1, 2);
  const BlockSparseMatrix m = BlockSparseMatrix::random(s, rng);
  const BlockSparseMatrix mt = transpose(m);
  EXPECT_EQ(mt.rows(), m.cols());
  for (Index i = 0; i < m.rows(); ++i) {
    for (Index j = 0; j < m.cols(); ++j) {
      EXPECT_DOUBLE_EQ(mt.at(j, i), m.at(i, j));
    }
  }
}

TEST(Autotune, FindsTheGridTradeoff) {
  Rng rng(13);
  const Tiling mt = Tiling::random_uniform(6000, 256, 1024, rng);
  const Tiling kt = Tiling::random_uniform(48000, 256, 1024, rng);
  const Tiling nt = Tiling::random_uniform(48000, 256, 1024, rng);
  const Shape a = Shape::random(mt, kt, 0.5, rng);
  const Shape b = Shape::random(kt, nt, 0.5, rng);
  const Shape c = contract_shape(a, b);
  const MachineModel machine = MachineModel::summit(8);
  const GridSearchResult result = autotune_grid(a, b, c, machine);
  // p in {1, 2, 4, 8}.
  ASSERT_EQ(result.candidates.size(), 4u);
  for (const GridCandidate& cand : result.candidates) {
    EXPECT_EQ(cand.p * cand.q, 8);
    EXPECT_GT(cand.makespan_s, 0.0);
  }
  // A broadcast volume strictly decreases with p; B replication grows.
  for (std::size_t i = 1; i < result.candidates.size(); ++i) {
    EXPECT_LE(result.candidates[i].a_network_bytes,
              result.candidates[i - 1].a_network_bytes + 1.0);
    EXPECT_GE(result.candidates[i].b_generated_bytes,
              result.candidates[i - 1].b_generated_bytes - 1.0);
  }
  // The winner is at least as fast as every feasible candidate.
  for (const GridCandidate& cand : result.candidates) {
    if (cand.feasible) {
      EXPECT_GE(cand.makespan_s,
                result.best_candidate().makespan_s - 1e-9);
    }
  }
}

TEST(Autotune, HostMemoryLimitExcludesHighReplication) {
  Rng rng(17);
  const Tiling mt = Tiling::random_uniform(2000, 128, 512, rng);
  const Tiling kt = Tiling::random_uniform(16000, 128, 512, rng);
  const Tiling nt = Tiling::random_uniform(16000, 128, 512, rng);
  const Shape a = Shape::random(mt, kt, 1.0, rng);
  const Shape b = Shape::random(kt, nt, 1.0, rng);
  const Shape c = contract_shape(a, b);
  MachineModel machine = MachineModel::summit(4);
  // Host memory just above one full copy of B per node pair: p=4 (full
  // replication) must be infeasible.
  machine.node.host_memory_bytes = b.nnz_bytes() / 2.0;
  const GridSearchResult result = autotune_grid(a, b, c, machine);
  bool p4_infeasible = false;
  for (const GridCandidate& cand : result.candidates) {
    if (cand.p == 4 && !cand.feasible) p4_infeasible = true;
  }
  EXPECT_TRUE(p4_infeasible);
  EXPECT_TRUE(result.best_candidate().feasible);
}

TEST(Autotune, GridsThatCannotBeLoweredAreInfeasible) {
  // One column of C alone (8 tiles of 1000 x 1000 over p grid rows) plus
  // its smallest B segment leaves less than one 8 MB A tile of a 78 MB
  // device at p = 1, so the executor cannot lower that plan; at p = 2 and
  // p = 4 the C column halves and quarters and the plans lower.
  const Tiling mt = Tiling::uniform(8000, 1000);
  const Tiling kt = Tiling::uniform(4000, 1000);
  const Tiling nt = Tiling::uniform(4000, 1000);
  const Shape a = Shape::dense(mt, kt);
  const Shape b = Shape::dense(kt, nt);
  const Shape c = contract_shape(a, b);
  MachineModel machine = MachineModel::summit(4);
  machine.node.gpu.memory_bytes = 78.0e6;
  const GridSearchResult result = autotune_grid(a, b, c, machine);
  ASSERT_EQ(result.candidates.size(), 3u);
  EXPECT_EQ(result.candidates[0].p, 1);
  EXPECT_FALSE(result.candidates[0].feasible);
  EXPECT_TRUE(std::isinf(result.candidates[0].makespan_s));
  for (std::size_t x = 1; x < result.candidates.size(); ++x) {
    EXPECT_TRUE(result.candidates[x].feasible) << result.candidates[x].p;
    EXPECT_TRUE(std::isfinite(result.candidates[x].makespan_s));
  }
  EXPECT_NE(result.best_candidate().p, 1);

  // No grid lowers: nothing to choose from.
  machine.node.gpu.memory_bytes = 20.0e6;
  EXPECT_THROW(autotune_grid(a, b, c, machine), Error);

  // Any other error of a candidate's simulation propagates with its own
  // message instead of marking the grid infeasible.
  machine.node.gpu.memory_bytes = 78.0e6;
  SimConfig broken;
  broken.network_efficiency = 0.0;
  try {
    autotune_grid(a, b, c, machine, PlanConfig{}, broken);
    ADD_FAILURE() << "a simulator error was swallowed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rates must be positive"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bstc
