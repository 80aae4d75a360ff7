#include "baseline/summa.hpp"

#include <algorithm>

#include "plan/plan.hpp"
#include "support/error.hpp"
#include "tile/gemm.hpp"

namespace bstc {

SummaResult summa_multiply(const BlockSparseMatrix& a,
                           const BlockSparseMatrix& b, const Shape& c_shape,
                           int grid_rows, int grid_cols) {
  BSTC_REQUIRE(grid_rows > 0 && grid_cols > 0, "grid must be non-empty");
  BSTC_REQUIRE(a.col_tiling() == b.row_tiling(),
               "inner tilings of A and B must agree");
  BSTC_REQUIRE(c_shape.row_tiling() == a.row_tiling() &&
                   c_shape.col_tiling() == b.col_tiling(),
               "C shape must be conformant with the product");

  const GridSpec grid{grid_rows, grid_cols, {}};
  const std::size_t m_t = a.shape().tile_rows();
  const std::size_t k_t = a.shape().tile_cols();
  const std::size_t n_t = b.shape().tile_cols();
  const auto ranks = static_cast<std::size_t>(grid_rows * grid_cols);

  SummaResult result;
  result.c = BlockSparseMatrix(c_shape);

  std::vector<double> step_flops(ranks, 0.0);
  double imbalance_sum = 0.0;
  std::size_t imbalanced_steps = 0;
  std::size_t idle_slots = 0;
  std::size_t total_slots = 0;

  // One synchronized step per tile-column k of A (= tile-row k of B).
  for (std::size_t k = 0; k < k_t; ++k) {
    std::fill(step_flops.begin(), step_flops.end(), 0.0);

    // Broadcast accounting. A tile (i, k) is owned by rank
    // (i % p, k % q) and needed by every rank of grid row i % p that owns
    // a C tile (i, j) with B(k, j) nonzero — the BSP schedule broadcasts
    // the panel to the whole grid row (grid_cols - 1 copies); B's row
    // panel symmetrically down grid columns.
    for (std::size_t i = 0; i < m_t; ++i) {
      if (!a.has_tile(i, k)) continue;
      result.a_broadcast_bytes +=
          static_cast<double>(a.tile(i, k).bytes()) *
          static_cast<double>(grid_cols - 1);
    }
    for (std::size_t j = 0; j < n_t; ++j) {
      if (!b.has_tile(k, j)) continue;
      result.b_broadcast_bytes +=
          static_cast<double>(b.tile(k, j).bytes()) *
          static_cast<double>(grid_rows - 1);
    }

    // Local multiply phase: every rank updates its C tiles.
    for (std::size_t i = 0; i < m_t; ++i) {
      if (!a.has_tile(i, k)) continue;
      const Tile& a_tile = a.tile(i, k);
      for (std::size_t j = 0; j < n_t; ++j) {
        if (!b.has_tile(k, j) || !c_shape.nonzero(i, j)) continue;
        const auto rank = static_cast<std::size_t>(
            grid.home_of(static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j)));
        const Tile& b_tile = b.tile(k, j);
        gemm(1.0, a_tile, b_tile, 1.0, result.c.tile(i, j));
        const double flops = gemm_flops(a_tile, b_tile);
        step_flops[rank] += flops;
        result.flops += flops;
        ++result.gemm_tasks;
      }
    }

    // BSP step accounting: the step lasts as long as its busiest rank.
    double max_f = 0.0, sum_f = 0.0;
    std::size_t busy = 0;
    for (const double f : step_flops) {
      max_f = std::max(max_f, f);
      sum_f += f;
      if (f > 0.0) ++busy;
    }
    total_slots += ranks;
    idle_slots += ranks - busy;
    if (sum_f > 0.0) {
      imbalance_sum += max_f / (sum_f / static_cast<double>(ranks));
      ++imbalanced_steps;
    }
    ++result.steps;
  }

  result.mean_step_imbalance =
      imbalanced_steps > 0
          ? imbalance_sum / static_cast<double>(imbalanced_steps)
          : 1.0;
  result.idle_fraction =
      total_slots > 0
          ? static_cast<double>(idle_slots) / static_cast<double>(total_slots)
          : 0.0;
  return result;
}

}  // namespace bstc
