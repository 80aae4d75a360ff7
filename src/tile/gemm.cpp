#include "tile/gemm.hpp"

#include <algorithm>
#include <vector>

#include "runtime/compute_pool.hpp"
#include "support/error.hpp"
#include "tile/autotune.hpp"
#include "tile/cpu_features.hpp"
#include "tile/microkernel.hpp"
#include "tile/pack.hpp"

namespace bstc {
namespace {

void check_conformance(const Tile& a, const Tile& b, const Tile& c) {
  BSTC_REQUIRE(a.cols() == b.rows(), "GEMM inner dimensions must agree");
  BSTC_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
               "GEMM output dimensions must agree");
}

// ---- Pre-packing blocked kernel (benchmark baseline) ---------------------

// Cache-blocking parameters: KC*MR and KC*NR panels stay in L1, the
// MC x KC block of A in L2.
constexpr Index kMR = 4;
constexpr Index kNR = 4;
constexpr Index kMC = 128;
constexpr Index kKC = 256;
constexpr Index kNC = 512;

/// 4x4 register micro-kernel over a KC-long rank-1 update chain.
/// A panel: column-major (lda), B panel: column-major (ldb).
void micro_kernel(Index kc, double alpha, const double* a, Index lda,
                  const double* b, Index ldb, double* c, Index ldc) {
  double acc[kMR][kNR] = {};
  for (Index k = 0; k < kc; ++k) {
    const double a0 = a[0 + k * lda];
    const double a1 = a[1 + k * lda];
    const double a2 = a[2 + k * lda];
    const double a3 = a[3 + k * lda];
    for (Index j = 0; j < kNR; ++j) {
      const double bj = b[k + j * ldb];
      acc[0][j] += a0 * bj;
      acc[1][j] += a1 * bj;
      acc[2][j] += a2 * bj;
      acc[3][j] += a3 * bj;
    }
  }
  for (Index j = 0; j < kNR; ++j) {
    for (Index i = 0; i < kMR; ++i) {
      c[i + j * ldc] += alpha * acc[i][j];
    }
  }
}

/// Generic edge kernel for fringe blocks smaller than MR x NR.
void edge_kernel(Index mr, Index nr, Index kc, double alpha, const double* a,
                 Index lda, const double* b, Index ldb, double* c, Index ldc) {
  for (Index j = 0; j < nr; ++j) {
    for (Index i = 0; i < mr; ++i) {
      double acc = 0.0;
      for (Index k = 0; k < kc; ++k) {
        acc += a[i + k * lda] * b[k + j * ldb];
      }
      c[i + j * ldc] += alpha * acc;
    }
  }
}

void scale(double beta, Tile& c) {
  if (beta == 1.0) return;
  if (beta == 0.0) {
    c.fill(0.0);
    return;
  }
  double* p = c.data();
  const auto n = static_cast<std::size_t>(c.size());
  for (std::size_t i = 0; i < n; ++i) p[i] *= beta;
}

void scale_view(Index m, Index n, double beta, double* c, Index ldc) {
  if (beta == 1.0) return;
  for (Index j = 0; j < n; ++j) {
    double* cj = c + j * ldc;
    if (beta == 0.0) {
      std::fill(cj, cj + m, 0.0);
    } else {
      for (Index i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
}

// ---- Packed kernel core --------------------------------------------------

/// Run the micro-kernel over one packed mc x kc A block and the packed
/// kc x nc B block (both packed with the kernel's geometry), updating the
/// C view at (0, 0).
void macro_kernel(const MicroKernel& mk, Index mc, Index nc, Index kc,
                  double alpha, const double* ap, const double* bp, double* c,
                  Index ldc) {
  const Index MR = mk.geom.mr, NR = mk.geom.nr;
  for (Index jr = 0; jr < nc; jr += NR) {
    const Index nr = std::min(NR, nc - jr);
    const double* bpanel = bp + (jr / NR) * kc * NR;
    double* cj = c + jr * ldc;
    for (Index ir = 0; ir < mc; ir += MR) {
      const Index mr = std::min(MR, mc - ir);
      mk.fn(kc, alpha, ap + (ir / MR) * kc * MR, bpanel, cj + ir, ldc, mr,
            nr);
    }
  }
}

thread_local std::uint64_t t_batch_a_packs = 0;

/// Smallest share of a batch worth one pool unit. An empty
/// ComputePool::parallel_for round trip costs 1.4-3 us with helpers
/// (bench_micro BM_PoolForkJoin, 3-4 threads); a 4 Mflop panel runs ~100 us
/// at the single-thread kernel rate (~40 Gflop/s), so the fork-join stays
/// a few percent of it. A coarse grain also bounds the A re-packing that
/// every extra panel adds.
constexpr double kPanelGrainFlops = 4.0e6;

/// Smallest item range worth one pool unit. A range re-packs only B, not
/// the A blocks every column panel re-packs, so it can be finer than the
/// panel grain, but waking a parked helper still costs several us. At
/// abcd-fine's shape (83x52 . 52x52, 0.45 Mflop per item; bench_micro
/// BM_GemmBatchSplit, medians of 8 interleaved runs on a 4-vCPU host) a
/// 6-item batch took 110 us single-thread, 82 us in 2 ranges of 1.35 Mflop
/// and 67 us in 3 of 0.9; a 2-item batch took 38 us alone and 41 us in 2
/// ranges of 0.45 Mflop; a 3-item batch in 2 ranges (0.9 + 0.45) broke
/// even (63 vs 62 us). Column panels gained less on the 6-item batch
/// (97 / 91 us with 2 / 3 panels).
constexpr double kItemGrainFlops = 1.0e6;

}  // namespace

void gemm_naive(double alpha, const Tile& a, const Tile& b, double beta,
                Tile& c) {
  check_conformance(a, b, c);
  scale(beta, c);
  const Index m = a.rows(), n = b.cols(), k = a.cols();
  for (Index j = 0; j < n; ++j) {
    for (Index l = 0; l < k; ++l) {
      const double blj = alpha * b.at(l, j);
      for (Index i = 0; i < m; ++i) {
        c.at(i, j) += a.at(i, l) * blj;
      }
    }
  }
}

void gemm_blocked(double alpha, const Tile& a, const Tile& b, double beta,
                  Tile& c) {
  check_conformance(a, b, c);
  scale(beta, c);
  if (alpha == 0.0 || a.size() == 0 || b.size() == 0) return;

  const Index m = a.rows(), n = b.cols(), k = a.cols();
  const double* ap = a.data();
  const double* bp = b.data();
  double* cp = c.data();
  const Index lda = a.ld(), ldb = b.ld(), ldc = c.ld();

  for (Index jc = 0; jc < n; jc += kNC) {
    const Index nc = std::min(kNC, n - jc);
    for (Index pc = 0; pc < k; pc += kKC) {
      const Index kc = std::min(kKC, k - pc);
      for (Index ic = 0; ic < m; ic += kMC) {
        const Index mc = std::min(kMC, m - ic);
        // Macro block: C[ic:, jc:] += A[ic:, pc:] * B[pc:, jc:]
        for (Index jr = 0; jr < nc; jr += kNR) {
          const Index nr = std::min(kNR, nc - jr);
          for (Index ir = 0; ir < mc; ir += kMR) {
            const Index mr = std::min(kMR, mc - ir);
            const double* ablk = ap + (ic + ir) + pc * lda;
            const double* bblk = bp + pc + (jc + jr) * ldb;
            double* cblk = cp + (ic + ir) + (jc + jr) * ldc;
            if (mr == kMR && nr == kNR) {
              micro_kernel(kc, alpha, ablk, lda, bblk, ldb, cblk, ldc);
            } else {
              edge_kernel(mr, nr, kc, alpha, ablk, lda, bblk, ldb, cblk, ldc);
            }
          }
        }
      }
    }
  }
}

void gemm_view_with(const MicroKernel& mk, Index m, Index n, Index k,
                    double alpha, const double* a, Index lda, const double* b,
                    Index ldb, double beta, double* c, Index ldc) {
  BSTC_REQUIRE(lda >= m && ldb >= k && ldc >= m,
               "GEMM leading dimensions must cover the views");
  scale_view(m, n, beta, c, ldc);
  if (alpha == 0.0 || m <= 0 || n <= 0 || k <= 0) return;

  const KernelGeometry& g = mk.geom;
  // One arena acquire sized for the largest (B panel, A block) pair this
  // call will pack; the pointers stay stable across the blocking loops.
  const std::size_t b_doubles =
      packed_b_doubles(std::min(k, kPackKC), std::min(n, g.nc), g.nr);
  const std::size_t a_doubles =
      packed_a_doubles(std::min(m, g.mc), std::min(k, kPackKC), g.mr);
  double* bp = pack_arena().acquire(b_doubles + a_doubles);
  double* ap = bp + b_doubles;

  for (Index jc = 0; jc < n; jc += g.nc) {
    const Index nc = std::min(g.nc, n - jc);
    for (Index pc = 0; pc < k; pc += kPackKC) {
      const Index kc = std::min(kPackKC, k - pc);
      pack_b(kc, nc, b + pc + jc * ldb, ldb, bp, g.nr);
      for (Index ic = 0; ic < m; ic += g.mc) {
        const Index mc = std::min(g.mc, m - ic);
        pack_a(mc, kc, a + ic + pc * lda, lda, ap, g.mr);
        macro_kernel(mk, mc, nc, kc, alpha, ap, bp, c + ic + jc * ldc, ldc);
      }
    }
  }
}

void gemm_view(Index m, Index n, Index k, double alpha, const double* a,
               Index lda, const double* b, Index ldb, double beta, double* c,
               Index ldc) {
  if (m > 0 && n > 0 && k > 0) {
    gemm_view_with(select_microkernel(m, k, n), m, n, k, alpha, a, lda, b,
                   ldb, beta, c, ldc);
  } else {
    gemm_view_with(default_microkernel(), m, n, k, alpha, a, lda, b, ldb,
                   beta, c, ldc);
  }
}

void gemm(double alpha, const Tile& a, const Tile& b, double beta, Tile& c) {
  check_conformance(a, b, c);
  gemm_view(a.rows(), b.cols(), a.cols(), alpha, a.data(), a.ld(), b.data(),
            b.ld(), beta, c.data(), c.ld());
}

const MicroKernel& select_batch_microkernel(
    std::span<const GemmBatchItem> items, const Tile& b) {
  // One kernel for the whole group (the shared B panel is packed once, so
  // the geometry must be uniform). Physics tilings skew the A-row extents
  // small, so the mean m is the representative the bucket is tuned for.
  Index sum_m = 0;
  for (const GemmBatchItem& item : items) {
    if (item.a != nullptr) sum_m += item.a->rows();
  }
  if (items.empty() || sum_m <= 0) return default_microkernel();
  const Index mean_m =
      std::max<Index>(1, sum_m / static_cast<Index>(items.size()));
  return select_microkernel(mean_m, b.rows(), b.cols());
}

namespace {

/// Conformance of every item; returns the largest A-row extent.
Index check_batch(std::span<const GemmBatchItem> items, const Tile& b) {
  Index max_m = 0;
  for (const GemmBatchItem& item : items) {
    BSTC_REQUIRE(item.a != nullptr && item.c != nullptr,
                 "GEMM batch items must be complete");
    check_conformance(*item.a, b, *item.c);
    max_m = std::max(max_m, item.a->rows());
  }
  return max_m;
}

/// The single-thread batch loop over columns [j0, j1) of B and C. With
/// j0 a multiple of the kernel's NR, every micro-kernel call sees the same
/// NR-column panel, KC block and MC block as in the whole-width call, so
/// each C element gets the identical FMA chain.
void batch_columns(const MicroKernel& mk, double alpha,
                   std::span<const GemmBatchItem> items, const Tile& b,
                   double beta, Index max_m, Index j0, Index j1) {
  // beta exactly once per distinct C tile: items may alias outputs, so
  // an item scales its C only when no earlier item wrote it.
  for (auto it = items.begin(); beta != 1.0 && it != items.end(); ++it) {
    Tile* c = it->c;
    if (std::none_of(items.begin(), it, [c](const GemmBatchItem& prev) {
          return prev.c->data() == c->data();
        })) {
      scale_view(c->rows(), j1 - j0, beta, c->data() + j0 * c->ld(),
                 c->ld());
    }
  }
  const Index k = b.rows(), n = j1 - j0;
  if (alpha == 0.0 || max_m <= 0 || n <= 0 || k <= 0) return;

  const KernelGeometry& g = mk.geom;
  const std::size_t b_doubles =
      packed_b_doubles(std::min(k, kPackKC), std::min(n, g.nc), g.nr);
  const std::size_t a_doubles =
      packed_a_doubles(std::min(max_m, g.mc), std::min(k, kPackKC), g.mr);
  double* bp = pack_arena().acquire(b_doubles + a_doubles);
  double* ap = bp + b_doubles;

  // What the A scratch currently holds: consecutive items referencing the
  // same A tile (and the same (ic, pc) block of it) skip the re-pack.
  // The key survives the jc loop on purpose — an A block is independent
  // of jc, so the first item of a new jc slab reuses the pack too.
  struct PackedAKey {
    const double* a = nullptr;
    Index lda = -1, ic = -1, pc = -1, mc = -1;
  } packed;

  // The shared B panel is packed once per (jc, pc) for the whole group —
  // this is the point of batching: every item reuses it from cache.
  for (Index jc = j0; jc < j1; jc += g.nc) {
    const Index nc = std::min(g.nc, j1 - jc);
    for (Index pc = 0; pc < k; pc += kPackKC) {
      const Index kc = std::min(kPackKC, k - pc);
      pack_b(kc, nc, b.data() + pc + jc * b.ld(), b.ld(), bp, g.nr);
      for (const GemmBatchItem& item : items) {
        const Index m = item.a->rows();
        const double* adata = item.a->data();
        const Index lda = item.a->ld();
        double* cdata = item.c->data();
        const Index ldc = item.c->ld();
        for (Index ic = 0; ic < m; ic += g.mc) {
          const Index mc = std::min(g.mc, m - ic);
          if (packed.a != adata || packed.lda != lda || packed.ic != ic ||
              packed.pc != pc || packed.mc != mc) {
            pack_a(mc, kc, adata + ic + pc * lda, lda, ap, g.mr);
            packed = {adata, lda, ic, pc, mc};
            ++t_batch_a_packs;
          }
          macro_kernel(mk, mc, nc, kc, alpha, ap, bp, cdata + ic + jc * ldc,
                       ldc);
        }
      }
    }
  }
}

/// Flops of one item (0 for an incomplete one; check_batch rejects it).
double item_flops(const GemmBatchItem& item, const Tile& b) {
  return item.a != nullptr ? gemm_flops(*item.a, b) : 0.0;
}

/// Calls visit(p) for the positions p in (0, items.size()), ascending,
/// where the items may be cut into ranges — no C tile is written both by
/// an item before p and by one at or after p — until visit returns false.
template <class Visit>
void for_each_legal_cut(std::span<const GemmBatchItem> items, Visit visit) {
  const std::size_t n = items.size();
  // Furthest item sharing a C tile with any item before the cut.
  std::size_t reach = 0;
  for (std::size_t p = 0; p + 1 < n; ++p) {
    for (std::size_t q = n - 1; q > std::max(reach, p); --q) {
      if (items[q].c == items[p].c) {
        reach = q;
        break;
      }
    }
    if (reach <= p && !visit(p + 1)) return;
  }
}

}  // namespace

void gemm_batch_with(const MicroKernel& mk, double alpha,
                     std::span<const GemmBatchItem> items, const Tile& b,
                     double beta) {
  const Index max_m = check_batch(items, b);
  batch_columns(mk, alpha, items, b, beta, max_m, 0, b.cols());
}

GemmBatchLayout plan_gemm_batch_split(const MicroKernel& mk,
                                      std::span<const GemmBatchItem> items,
                                      const Tile& b, unsigned members) {
  double flops = 0.0;
  Index sum_m = 0;
  for (const GemmBatchItem& item : items) {
    flops += item_flops(item, b);
    if (item.a != nullptr) sum_m += item.a->rows();
  }
  GemmBatchLayout layout;
  const Index nr_panels = (b.cols() + mk.geom.nr - 1) / mk.geom.nr;
  const Index panels =
      std::min({static_cast<Index>(members), nr_panels,
                static_cast<Index>(flops / kPanelGrainFlops)});
  if (panels >= 2) {
    layout.units = panels;
    return layout;
  }
  const auto ranges = std::min<std::size_t>(
      {members, items.size(),
       static_cast<std::size_t>(flops / kItemGrainFlops)});
  if (ranges < 2 || sum_m <= b.cols()) return layout;

  // Cut where the cumulative flops first reach the next unit's share,
  // at legal cuts only, and keep every range above the grain.
  std::vector<std::size_t> begin = {0};
  double prefix = 0.0, range_start = 0.0;
  std::size_t pos = 0;
  for_each_legal_cut(items, [&](std::size_t cut) {
    for (; pos < cut; ++pos) prefix += item_flops(items[pos], b);
    const double share =
        flops * static_cast<double>(begin.size()) / static_cast<double>(ranges);
    if (prefix >= share && prefix - range_start >= kItemGrainFlops &&
        flops - prefix >= kItemGrainFlops) {
      begin.push_back(cut);
      range_start = prefix;
    }
    return begin.size() < ranges;
  });
  if (begin.size() < 2) return layout;
  begin.push_back(items.size());
  layout.cut = GemmBatchLayout::Cut::kItems;
  layout.units = static_cast<Index>(begin.size() - 1);
  layout.item_begin = std::move(begin);
  return layout;
}

void gemm_batch_split(ComputePool& pool, const GemmBatchLayout& layout,
                      const MicroKernel& mk, double alpha,
                      std::span<const GemmBatchItem> items, const Tile& b,
                      double beta) {
  const Index max_m = check_batch(items, b);
  const Index n = b.cols();
  if (layout.units <= 1) {
    batch_columns(mk, alpha, items, b, beta, max_m, 0, n);
    return;
  }
  if (layout.cut == GemmBatchLayout::Cut::kItems) {
    const std::vector<std::size_t>& begin = layout.item_begin;
    BSTC_REQUIRE(begin.size() == static_cast<std::size_t>(layout.units) + 1 &&
                     begin.front() == 0 && begin.back() == items.size(),
                 "item ranges must cover the batch");
    // The inner bounds, matched in order against the ascending legal
    // cuts: all match only if the ranges are non-empty and split no
    // aliased output.
    std::size_t matched = 1;
    for_each_legal_cut(items, [&](std::size_t cut) {
      if (begin[matched] == cut) ++matched;
      return matched + 1 < begin.size();
    });
    BSTC_REQUIRE(matched + 1 == begin.size(),
                 "item ranges must be non-empty and keep aliased outputs "
                 "together");
    pool.parallel_for(begin.size() - 1, [&](std::size_t u) {
      batch_columns(mk, alpha, items.subspan(begin[u], begin[u + 1] - begin[u]),
                    b, beta, max_m, 0, n);
    });
    return;
  }
  // Column panels take an equal share of whole NR-column panels, so every
  // cut falls on a multiple of NR and no unit is empty.
  const Index nr = mk.geom.nr;
  const Index nr_panels = std::max<Index>(1, (n + nr - 1) / nr);
  const Index wanted = std::min(layout.units, nr_panels);
  const Index per_unit = (nr_panels + wanted - 1) / wanted;
  const Index units = (nr_panels + per_unit - 1) / per_unit;
  if (units == 1) {
    batch_columns(mk, alpha, items, b, beta, max_m, 0, n);
    return;
  }
  const Index width = per_unit * nr;
  pool.parallel_for(static_cast<std::size_t>(units), [&](std::size_t u) {
    const Index j0 = static_cast<Index>(u) * width;
    batch_columns(mk, alpha, items, b, beta, max_m, j0,
                  std::min(j0 + width, n));
  });
}

void gemm_batch(double alpha, std::span<const GemmBatchItem> items,
                const Tile& b, double beta) {
  gemm_batch_with(select_batch_microkernel(items, b), alpha, items, b, beta);
}

std::uint64_t gemm_batch_a_pack_count() { return t_batch_a_packs; }

const char* gemm_kernel_name() { return default_microkernel().name.c_str(); }

}  // namespace bstc
