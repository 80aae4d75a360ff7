#pragma once

/// \file gemm.hpp
/// Dense GEMM kernels for tile-level products.
///
/// The paper runs tile GEMMs through cuBLAS on V100s; here the kernel is
/// a packed, register-tiled CPU implementation (no BLAS is available in
/// this environment). Three tiers exist:
///
///  * gemm_naive   — triple loop, the correctness reference;
///  * gemm_blocked — cache-blocked with an in-place 4x4 micro-kernel (the
///                   pre-packing kernel, kept as a benchmark baseline);
///  * gemm         — BLIS-style packed kernel: operands are copied into
///                   aligned MR-row / NR-column panels (pack.hpp) and a
///                   micro-kernel from the zoo (microkernel.hpp) runs
///                   fringe-free over them. The kernel is chosen per
///                   (m, k, n) shape bucket by the autotuner
///                   (autotune.hpp) among the active ISA's geometries —
///                   a pure performance decision, since same-ISA kernels
///                   are bitwise-identical.
///
/// gemm_batch() executes a group of tile GEMMs that all read the same B
/// tile — the executor's unit of work — packing each B panel once for the
/// whole group instead of once per GEMM, and skipping the A-block re-pack
/// when consecutive items reference the same A tile.
///
/// The *_with variants run a caller-chosen zoo kernel (engines select
/// once per batch; benches and tests pin geometries explicitly).
///
/// gemm_batch_split() spreads one batch over a ComputePool in the units
/// plan_gemm_batch_split() lays out — NR-aligned column panels of B and C
/// for wide batches, contiguous ranges of whole items for skinny ones;
/// gemm_batch_with() itself stays single-threaded — it is both the body of
/// each unit and the single-thread ceiling the benchmarks quote.

#include <cstddef>
#include <span>
#include <vector>

#include "tile/microkernel.hpp"
#include "tile/tile.hpp"

namespace bstc {

class ComputePool;

/// C <- alpha*A*B + beta*C, reference triple-loop implementation.
void gemm_naive(double alpha, const Tile& a, const Tile& b, double beta,
                Tile& c);

/// C <- alpha*A*B + beta*C, cache-blocked implementation with an in-place
/// (non-packing) 4x4 micro-kernel. Benchmark baseline for the packed path.
void gemm_blocked(double alpha, const Tile& a, const Tile& b, double beta,
                  Tile& c);

/// C <- alpha*A*B + beta*C over raw column-major views: A is m x k with
/// leading dimension lda >= m, B k x n with ldb >= k, C m x n with
/// ldc >= m — leading dimensions may exceed the view extents (submatrix
/// views). Packed path with autotuned micro-kernel selection.
void gemm_view(Index m, Index n, Index k, double alpha, const double* a,
               Index lda, const double* b, Index ldb, double beta, double* c,
               Index ldc);

/// gemm_view with an explicit zoo kernel (no autotuner consultation).
void gemm_view_with(const MicroKernel& mk, Index m, Index n, Index k,
                    double alpha, const double* a, Index lda, const double* b,
                    Index ldb, double beta, double* c, Index ldc);

/// C <- alpha*A*B + beta*C, packed kernel. Dimensions: A is MxK, B is KxN,
/// C is MxN.
void gemm(double alpha, const Tile& a, const Tile& b, double beta, Tile& c);

/// One member of a shared-B batch: C <- beta*C + alpha*A*B.
struct GemmBatchItem {
  const Tile* a = nullptr;
  Tile* c = nullptr;
};

/// Execute every item against the same B tile, packing each B panel once
/// for the whole group. beta is applied exactly once per *distinct* C
/// tile, so items may alias their outputs (the aliased tile then receives
/// beta*C plus every aliased item's product, in item order). The kernel
/// is selected once for the whole batch (see select_batch_microkernel).
void gemm_batch(double alpha, std::span<const GemmBatchItem> items,
                const Tile& b, double beta);

/// gemm_batch with an explicit zoo kernel (no autotuner consultation).
void gemm_batch_with(const MicroKernel& mk, double alpha,
                     std::span<const GemmBatchItem> items, const Tile& b,
                     double beta);

/// How gemm_batch_split cuts one batch into pool units. Every unit runs
/// the single-thread gemm_batch_with loop with the batch's one kernel on
/// its share, so C is bitwise-identical for every layout and pool size.
struct GemmBatchLayout {
  enum class Cut {
    /// B and every C tile are cut into `units` column panels at multiples
    /// of the kernel's NR (all items in each panel, in item order).
    kColumns,
    /// The items are cut into `units` contiguous ranges, each over the
    /// full width of B; unit u runs items [item_begin[u], item_begin[u+1]).
    /// No C tile is written by two ranges.
    kItems,
  };
  Cut cut = Cut::kColumns;
  Index units = 1;  ///< 1: the whole batch runs on the caller
  std::vector<std::size_t> item_begin;  ///< kItems only: units + 1 bounds
};

/// The layout gemm_batch_split should use for this batch on a pool of
/// `members` threads, at most one unit per member:
///  * column panels when at least two of them clear the panel grain
///    (4 Mflop each, no more than B has NR-column panels) — each panel
///    re-packs every A block, so this suits wide B;
///  * otherwise item ranges when there are 2+ items and their A rows sum
///    past B's width (re-packing B per range is then the cheaper side):
///    cut by cumulative flops at cuts that split no aliased C tile, none
///    below the item grain (1 Mflop);
///  * otherwise one unit.
/// The grains are sized against bench_micro (see gemm.cpp).
GemmBatchLayout plan_gemm_batch_split(const MicroKernel& mk,
                                      std::span<const GemmBatchItem> items,
                                      const Tile& b, unsigned members);

/// gemm_batch_with run in `layout`'s units on `pool` (the caller takes
/// part). Column panels: every micro-kernel call sees the same NR-column
/// panel, KC block and MC block as in the whole-width call, and aliased
/// outputs keep their item order within each panel. Item ranges: each
/// item's product is computed exactly as in the whole batch, and an
/// aliased C tile lies within one range, so it receives beta once and its
/// items in order. Either way every C element keeps its one k-ordered FMA
/// chain and the result is bitwise-identical to gemm_batch_with. Throws
/// if item ranges do not cover the batch, are empty or split an aliased
/// output.
void gemm_batch_split(ComputePool& pool, const GemmBatchLayout& layout,
                      const MicroKernel& mk, double alpha,
                      std::span<const GemmBatchItem> items, const Tile& b,
                      double beta);

/// The autotuner's choice for a shared-B batch: one kernel for the whole
/// group (the B panel is packed once, so the geometry must be uniform),
/// bucketed on the items' mean A-row extent and B's (k, n).
const MicroKernel& select_batch_microkernel(
    std::span<const GemmBatchItem> items, const Tile& b);

/// A-block packs performed by gemm_batch on this thread so far — test
/// observability for the consecutive-same-A re-pack skip.
std::uint64_t gemm_batch_a_pack_count();

/// Name of the default dispatched micro-kernel ("avx512-8x4", ...),
/// derived from the zoo entry that actually runs — never hand-written.
const char* gemm_kernel_name();

/// Flops of one tile GEMM (2*m*n*k).
inline double gemm_flops(const Tile& a, const Tile& b) {
  return 2.0 * static_cast<double>(a.rows()) * static_cast<double>(b.cols()) *
         static_cast<double>(a.cols());
}

}  // namespace bstc
