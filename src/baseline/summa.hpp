#pragma once

/// \file summa.hpp
/// A real (executing) bulk-synchronous baseline: SUMMA block-sparse
/// multiplication over a 2-D process grid.
///
/// The paper's central argument (§1, §2) is that "computation with such
/// irregular data structures is a poor match to the dominant imperative,
/// bulk-synchronous parallel programming model". This module provides that
/// BSP strawman as runnable code: the classic SUMMA schedule — C
/// stationary and 2-D cyclic, one synchronized step per tile-column of A
/// broadcasting an A column panel along grid rows and a B row panel along
/// grid columns — executed rank by rank with exact numerics and full
/// communication accounting. Compare its per-step idle time and traffic
/// against the dataflow engine on the same irregular problem
/// (examples/bsp_vs_dataflow).

#include "bsm/block_sparse_matrix.hpp"

namespace bstc {

/// Outcome of a SUMMA run.
struct SummaResult {
  BlockSparseMatrix c;           ///< exact product (C = A*B)
  std::size_t steps = 0;         ///< synchronized broadcast steps
  std::size_t gemm_tasks = 0;    ///< local tile GEMMs executed
  double flops = 0.0;
  double a_broadcast_bytes = 0.0;  ///< A panel traffic between ranks
  double b_broadcast_bytes = 0.0;  ///< B panel traffic between ranks
  /// Per-step imbalance: mean over steps of (max rank flops / mean rank
  /// flops) among steps with work — the BSP synchronization loss on
  /// irregular problems (1.0 = perfectly balanced steps).
  double mean_step_imbalance = 1.0;
  /// Fraction of rank-step slots that had zero work but still had to
  /// synchronize (pure idling).
  double idle_fraction = 0.0;
};

/// Multiply block-sparse A and B on a grid_rows x grid_cols BSP grid.
/// A, B and C are distributed 2-D cyclic over the grid (tile (i, j) lives
/// on rank (i % grid_rows, j % grid_cols)); every step k broadcasts A's
/// tile-column k along grid rows and B's tile-row k along grid columns,
/// then every rank multiplies its local panels. The returned C is the
/// gathered exact product over the contraction closure restricted to
/// `c_shape`.
SummaResult summa_multiply(const BlockSparseMatrix& a,
                           const BlockSparseMatrix& b, const Shape& c_shape,
                           int grid_rows, int grid_cols);

}  // namespace bstc
