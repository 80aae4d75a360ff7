/// Randomized property tests for the packed GEMM backend: every kernel
/// tier against the naive reference over fringe shapes, submatrix views
/// with ld > rows, the full alpha/beta lattice, and shared-B batches
/// including aliased C tiles. Runs under the ASan/UBSan CI job, so the
/// pack arena and panel fringes are also exercised for memory safety.

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "runtime/compute_pool.hpp"
#include "support/error.hpp"
#include "tile/cpu_features.hpp"
#include "tile/gemm.hpp"
#include "tile/microkernel.hpp"
#include "tile/pack.hpp"

namespace bstc {
namespace {

Tile random_tile(Index rows, Index cols, Rng& rng) {
  Tile t(rows, cols);
  t.fill_random(rng);
  return t;
}

/// Shapes around the register tile (MR=8, NR=4) and cache-block edges so
/// every fringe path of packing and the micro-kernel stores is hit.
std::vector<Index> fringe_extents() {
  return {1, 2, 3, 5, 7, 8, 9, 12, 17, 31, 33, 129, 130};
}

TEST(GemmKernels, PackedMatchesNaiveOnFringeShapesAndAlphaBeta) {
  const std::vector<double> coeffs = {0.0, 1.0, 0.5, -1.0};
  Rng rng(2024);
  int trial = 0;
  for (const Index m : fringe_extents()) {
    for (const Index n : {Index{1}, Index{3}, Index{4}, Index{9},
                          Index{33}}) {
      const Index k = fringe_extents()[static_cast<std::size_t>(trial) %
                                       fringe_extents().size()];
      const double alpha = coeffs[static_cast<std::size_t>(trial) % 4];
      const double beta = coeffs[static_cast<std::size_t>(trial / 4) % 4];
      ++trial;
      const Tile a = random_tile(m, k, rng);
      const Tile b = random_tile(k, n, rng);
      Tile c0 = random_tile(m, n, rng);
      Tile c1 = c0;
      gemm_naive(alpha, a, b, beta, c0);
      gemm(alpha, a, b, beta, c1);
      EXPECT_LT(c0.max_abs_diff(c1), 1e-12 * static_cast<double>(k + 1))
          << "m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha
          << " beta=" << beta;
    }
  }
}

TEST(GemmKernels, ViewWithLeadingDimensionsBeyondExtents) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Index m = 1 + static_cast<Index>(rng.uniform(0.0, 40.0));
    const Index n = 1 + static_cast<Index>(rng.uniform(0.0, 40.0));
    const Index k = 1 + static_cast<Index>(rng.uniform(0.0, 40.0));
    const Index lda = m + static_cast<Index>(rng.uniform(0.0, 9.0));
    const Index ldb = k + static_cast<Index>(rng.uniform(0.0, 9.0));
    const Index ldc = m + static_cast<Index>(rng.uniform(0.0, 9.0));
    // Views carved out of larger parent buffers; the slack rows carry a
    // sentinel that must survive the call untouched.
    std::vector<double> a(static_cast<std::size_t>(lda * k));
    std::vector<double> b(static_cast<std::size_t>(ldb * n));
    std::vector<double> c(static_cast<std::size_t>(ldc * n), 77.5);
    for (double& v : a) v = rng.uniform(-1.0, 1.0);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    std::vector<double> expected = c;
    // Naive reference over the views.
    for (Index j = 0; j < n; ++j) {
      for (Index i = 0; i < m; ++i) {
        double acc = 0.0;
        for (Index l = 0; l < k; ++l) {
          acc += a[static_cast<std::size_t>(i + l * lda)] *
                 b[static_cast<std::size_t>(l + j * ldb)];
        }
        double& e = expected[static_cast<std::size_t>(i + j * ldc)];
        e = 0.25 * e + 0.75 * acc;
      }
    }
    gemm_view(m, n, k, 0.75, a.data(), lda, b.data(), ldb, 0.25, c.data(),
              ldc);
    for (std::size_t idx = 0; idx < c.size(); ++idx) {
      const Index i = static_cast<Index>(idx) % ldc;
      if (i >= m) {
        // Slack rows between columns: must be untouched.
        EXPECT_DOUBLE_EQ(c[idx], 77.5) << "ld slack clobbered at " << idx;
      } else {
        EXPECT_NEAR(c[idx], expected[idx], 1e-12 * static_cast<double>(k + 1));
      }
    }
  }
}

TEST(GemmKernels, BatchMatchesPerTileNaive) {
  Rng rng(99);
  for (const double alpha : {1.0, 0.5, -1.0}) {
    for (const double beta : {0.0, 1.0, 0.5, -1.0}) {
      const Index k = 19, n = 13;
      const Tile b = random_tile(k, n, rng);
      std::vector<Tile> as, cs, expected;
      for (const Index m : {Index{1}, Index{7}, Index{8}, Index{9},
                            Index{30}}) {
        as.push_back(random_tile(m, k, rng));
        cs.push_back(random_tile(m, n, rng));
        expected.push_back(cs.back());
      }
      std::vector<GemmBatchItem> items;
      for (std::size_t t = 0; t < as.size(); ++t) {
        items.push_back({&as[t], &cs[t]});
        gemm_naive(alpha, as[t], b, beta, expected[t]);
      }
      gemm_batch(alpha, items, b, beta);
      for (std::size_t t = 0; t < cs.size(); ++t) {
        EXPECT_LT(cs[t].max_abs_diff(expected[t]),
                  1e-12 * static_cast<double>(k + 1))
            << "item " << t << " alpha=" << alpha << " beta=" << beta;
      }
    }
  }
}

TEST(GemmKernels, BatchAppliesBetaOncePerAliasedC) {
  Rng rng(123);
  const Index m = 11, k = 17, n = 9;
  const Tile b = random_tile(k, n, rng);
  const Tile a1 = random_tile(m, k, rng);
  const Tile a2 = random_tile(m, k, rng);
  for (const double beta : {0.0, 1.0, 0.5, -1.0}) {
    Tile c = random_tile(m, n, rng);
    Tile expected = c;
    // Aliased semantics: C <- beta*C + a1*B + a2*B, beta exactly once.
    gemm_naive(1.0, a1, b, beta, expected);
    gemm_naive(1.0, a2, b, 1.0, expected);
    const std::vector<GemmBatchItem> items = {{&a1, &c}, {&a2, &c}};
    gemm_batch(1.0, items, b, beta);
    EXPECT_LT(c.max_abs_diff(expected), 1e-12 * static_cast<double>(k + 1))
        << "beta=" << beta;
  }
}

TEST(GemmKernels, EmptyBatchAndConformance) {
  Rng rng(5);
  const Tile b = random_tile(4, 4, rng);
  gemm_batch(1.0, {}, b, 0.0);  // no items: nothing to do, must not throw
  Tile bad_a(3, 5);             // inner dimension mismatch
  Tile c(3, 4);
  const std::vector<GemmBatchItem> items = {{&bad_a, &c}};
  EXPECT_THROW(gemm_batch(1.0, items, b, 1.0), Error);
}

TEST(GemmKernels, PackZeroPadsPanels) {
  // 5 rows packed into one MR=8 panel: rows 5..7 must be zero.
  const Index mc = 5, kc = 3;
  Tile a(mc, kc);
  Rng rng(11);
  a.fill_random(rng);
  std::vector<double> panel(packed_a_doubles(mc, kc), -1.0);
  pack_a(mc, kc, a.data(), a.ld(), panel.data());
  for (Index col = 0; col < kc; ++col) {
    for (Index r = 0; r < kPackMR; ++r) {
      const double v = panel[static_cast<std::size_t>(col * kPackMR + r)];
      if (r < mc) {
        EXPECT_DOUBLE_EQ(v, a.at(r, col));
      } else {
        EXPECT_DOUBLE_EQ(v, 0.0);
      }
    }
  }
  // 2 columns packed into one NR=4 panel: columns 2..3 must be zero.
  const Index nc = 2;
  Tile b(kc, nc);
  b.fill_random(rng);
  std::vector<double> bpanel(packed_b_doubles(kc, nc), -1.0);
  pack_b(kc, nc, b.data(), b.ld(), bpanel.data());
  for (Index k = 0; k < kc; ++k) {
    for (Index col = 0; col < kPackNR; ++col) {
      const double v = bpanel[static_cast<std::size_t>(k * kPackNR + col)];
      if (col < nc) {
        EXPECT_DOUBLE_EQ(v, b.at(k, col));
      } else {
        EXPECT_DOUBLE_EQ(v, 0.0);
      }
    }
  }
}

TEST(GemmKernels, ArenaGrowsAndAligns) {
  for (const bool mapped : {false, true}) {
    PackArena arena(mapped);
    double* p = arena.acquire(16);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
    const std::size_t cap = arena.capacity_bytes();
    EXPECT_GE(cap, 16 * sizeof(double));
    arena.acquire(8);  // smaller: capacity must not shrink
    EXPECT_EQ(arena.capacity_bytes(), cap);
    double* q = arena.acquire(1 << 16);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % 64, 0u);
    EXPECT_GE(arena.capacity_bytes(), (std::size_t{1} << 16) * sizeof(double));
    q[(1 << 16) - 1] = 1.0;  // the whole capacity is writable
  }
}

TEST(GemmKernels, DispatchReportsAKernel) {
  // Whatever the host, dispatch must resolve to a callable kernel whose
  // reported name is derived from the dispatched zoo entry itself — the
  // active ISA plus the default 8x4 geometry, never a hand-written
  // string.
  EXPECT_NE(active_microkernel(), nullptr);
  EXPECT_NE(scalar_microkernel(), nullptr);
  const KernelIsa isa = active_kernel_isa();
  if (isa >= KernelIsa::kAvx2) {
    EXPECT_NE(avx2_microkernel(), nullptr);
  }
  const std::string expected =
      std::string(kernel_isa_name(isa)) + "-8x4";
  EXPECT_EQ(gemm_kernel_name(), expected);
  EXPECT_EQ(default_microkernel().name, expected);
  EXPECT_EQ(default_microkernel().isa, isa);
  EXPECT_EQ(default_microkernel().geom.mr, 8);
  EXPECT_EQ(default_microkernel().geom.nr, 4);
}

TEST(GemmKernels, ResolveRejectsUnknownKernelValues) {
  // A typo in BSTC_KERNEL must never silently fall back to
  // autodetection.
  for (const char* bad : {"avx", "AVX2", "sse2", "avx2-9x4", "avx2-8x5",
                          "avx2-", "-8x4", "fastest", "avx512-13x3"}) {
    EXPECT_THROW(resolve_kernel_choice(bad, KernelIsa::kAvx512), Error)
        << "accepted BSTC_KERNEL=" << bad;
  }
  // Unset and "auto" pick the host's best ISA without a downgrade flag.
  for (const char* ok : {static_cast<const char*>(nullptr), "auto", ""}) {
    const KernelChoice c = resolve_kernel_choice(ok, KernelIsa::kAvx2);
    EXPECT_EQ(c.isa, KernelIsa::kAvx2);
    EXPECT_FALSE(c.downgraded);
    EXPECT_TRUE(c.pinned_geometry.empty());
  }
}

TEST(GemmKernels, ResolveDowngradesExplicitRequestsAboveHost) {
  // avx512 on an avx2 host: run the best the host has, but say so.
  KernelChoice c = resolve_kernel_choice("avx512", KernelIsa::kAvx2);
  EXPECT_EQ(c.isa, KernelIsa::kAvx2);
  EXPECT_TRUE(c.downgraded);
  EXPECT_EQ(c.requested, "avx512");

  c = resolve_kernel_choice("avx2", KernelIsa::kScalar);
  EXPECT_EQ(c.isa, KernelIsa::kScalar);
  EXPECT_TRUE(c.downgraded);

  // At-or-below-host requests are honored exactly, no downgrade.
  c = resolve_kernel_choice("scalar", KernelIsa::kAvx512);
  EXPECT_EQ(c.isa, KernelIsa::kScalar);
  EXPECT_FALSE(c.downgraded);

  // A full kernel name pins the geometry and follows the same ISA rules.
  c = resolve_kernel_choice("avx512-8x6", KernelIsa::kAvx512);
  EXPECT_EQ(c.isa, KernelIsa::kAvx512);
  EXPECT_FALSE(c.downgraded);
  EXPECT_EQ(c.pinned_geometry, "8x6");

  c = resolve_kernel_choice("avx512-12x4", KernelIsa::kAvx2);
  EXPECT_EQ(c.isa, KernelIsa::kAvx2);
  EXPECT_TRUE(c.downgraded);
  EXPECT_EQ(c.pinned_geometry, "12x4");
}

TEST(GemmKernels, ZooEntriesAreConsistent) {
  ASSERT_FALSE(microkernel_zoo().empty());
  for (const MicroKernel& mk : microkernel_zoo()) {
    EXPECT_NE(mk.fn, nullptr);
    // Names are derived from the entry's own fields.
    const std::string expected = std::string(kernel_isa_name(mk.isa)) + "-" +
                                 std::to_string(mk.geom.mr) + "x" +
                                 std::to_string(mk.geom.nr);
    EXPECT_EQ(mk.name, expected);
    // Cache blocks tile evenly by the register tile, and every geometry
    // fits the packing bound and shares the KC blocking.
    EXPECT_EQ(mk.geom.mc % mk.geom.mr, 0) << mk.name;
    EXPECT_EQ(mk.geom.nc % mk.geom.nr, 0) << mk.name;
    EXPECT_LE(mk.geom.mr, kMaxPackMR) << mk.name;
    EXPECT_LE(mk.geom.nr, kMaxPackNR) << mk.name;
    EXPECT_EQ(find_microkernel(mk.name), &mk);
  }
  for (const MicroKernel& mk : microkernels_for_isa(active_kernel_isa())) {
    EXPECT_EQ(mk.isa, active_kernel_isa());
  }
  EXPECT_EQ(find_microkernel("avx2-9x9"), nullptr);
}

TEST(GemmKernels, EveryZooKernelMatchesNaiveOnFringeLattice) {
  // The whole zoo — every ISA this host can run, every geometry — against
  // the naive reference over shapes straddling each geometry's register
  // tile and the cache-block edges.
  Rng rng(404);
  const std::vector<Index> extents = {1, 3, 5, 8, 11, 13, 24, 129};
  for (const MicroKernel& mk : microkernel_zoo()) {
    if (mk.isa > host_best_isa()) continue;  // not executable here
    int trial = 0;
    for (const Index m : extents) {
      for (const Index n : extents) {
        const Index k = extents[static_cast<std::size_t>(trial++) %
                                extents.size()];
        const Tile a = random_tile(m, k, rng);
        const Tile b = random_tile(k, n, rng);
        Tile c0 = random_tile(m, n, rng);
        Tile c1 = c0;
        gemm_naive(0.75, a, b, 0.5, c0);
        gemm_view_with(mk, m, n, k, 0.75, a.data(), a.ld(), b.data(),
                       b.ld(), 0.5, c1.data(), c1.ld());
        EXPECT_LT(c0.max_abs_diff(c1), 1e-12 * static_cast<double>(k + 1))
            << mk.name << " m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(GemmKernels, SameIsaGeometriesAreBitwiseIdentical) {
  // The autotuner's license to switch geometries freely: within one ISA
  // every geometry accumulates each C element in the same k order with
  // the same per-KC-block commit, so results are bitwise-identical. The
  // vector ISAs (AVX2 and AVX-512 both run FMA chains) are additionally
  // bitwise-identical to each other.
  Rng rng(808);
  const Index shapes[][3] = {{37, 300, 25}, {8, 8, 8}, {130, 29, 61},
                             {5, 513, 12}};
  for (const auto& s : shapes) {
    const Index m = s[0], k = s[1], n = s[2];
    const Tile a = random_tile(m, k, rng);
    const Tile b = random_tile(k, n, rng);
    const Tile c_init = random_tile(m, n, rng);
    const KernelIsa host = host_best_isa();
    // Group references: one C per "rounding family" (scalar mul+add vs
    // vector FMA).
    Tile c_scalar_ref, c_vector_ref;
    for (const MicroKernel& mk : microkernel_zoo()) {
      if (mk.isa > host) continue;
      Tile c = c_init;
      gemm_view_with(mk, m, n, k, 1.0, a.data(), a.ld(), b.data(), b.ld(),
                     0.5, c.data(), c.ld());
      Tile& ref = mk.isa == KernelIsa::kScalar ? c_scalar_ref : c_vector_ref;
      if (ref.size() == 0) {
        ref = c;
        continue;
      }
      for (Index j = 0; j < n; ++j) {
        for (Index i = 0; i < m; ++i) {
          EXPECT_EQ(c.at(i, j), ref.at(i, j))
              << mk.name << " differs bitwise at (" << i << "," << j
              << ") for m=" << m << " k=" << k << " n=" << n;
        }
      }
    }
    // Across the families, FMA contraction may differ in the last ulps.
    if (c_scalar_ref.size() != 0 && c_vector_ref.size() != 0) {
      EXPECT_LT(c_scalar_ref.max_abs_diff(c_vector_ref),
                1e-12 * static_cast<double>(k + 1));
    }
  }
}

TEST(GemmKernels, BatchSkipsRedundantAPacksBitwiseEqual) {
  // Consecutive items referencing the same A tile (the aliased-C
  // accumulation pattern) must not re-pack A — and the skip must be
  // invisible in the results.
  Rng rng(31);
  const Index m = 61, k = 300, n = 45;  // two mc blocks, two kc blocks
  const Tile a = random_tile(m, k, rng);
  const Tile a2 = random_tile(m, k, rng);
  const Tile b = random_tile(k, n, rng);
  const Tile c_init = random_tile(m, n, rng);

  // Reference: the same batch computed one item at a time through the
  // same kernel (per-call path packs A for every item unconditionally).
  const MicroKernel& mk = default_microkernel();
  Tile e1 = c_init, e2 = c_init, e3 = c_init;
  gemm_view_with(mk, m, n, k, 1.0, a.data(), a.ld(), b.data(), b.ld(), 0.5,
                 e1.data(), e1.ld());
  gemm_view_with(mk, m, n, k, 1.0, a.data(), a.ld(), b.data(), b.ld(), 0.5,
                 e2.data(), e2.ld());
  gemm_view_with(mk, m, n, k, 1.0, a2.data(), a2.ld(), b.data(), b.ld(), 0.5,
                 e3.data(), e3.ld());

  Tile c1 = c_init, c2 = c_init, c3 = c_init;
  const std::vector<GemmBatchItem> items = {{&a, &c1}, {&a, &c2}, {&a2, &c3}};
  const std::uint64_t packs_before = gemm_batch_a_pack_count();
  gemm_batch_with(mk, 1.0, items, b, 0.5);
  const std::uint64_t packs = gemm_batch_a_pack_count() - packs_before;

  // Block math: ceil(61/mc)=1 mc block, ceil(300/256)=2 kc blocks, and the
  // A-pack cache survives the jc loop. Two distinct A tiles -> 2 tiles *
  // 1 mc * 2 kc = 4 packs; the naive count (every item, every jc) would
  // be 3 items * 2 kc * ceil(45/nc = 1) = 6.
  const std::uint64_t mc_blocks = (m + mk.geom.mc - 1) / mk.geom.mc;
  const std::uint64_t kc_blocks = (k + kPackKC - 1) / kPackKC;
  EXPECT_EQ(packs, 2 * mc_blocks * kc_blocks);

  // And the skip is bitwise-invisible: batch output == per-call output.
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < m; ++i) {
      EXPECT_EQ(c1.at(i, j), e1.at(i, j)) << "(" << i << "," << j << ")";
      EXPECT_EQ(c2.at(i, j), e2.at(i, j)) << "(" << i << "," << j << ")";
      EXPECT_EQ(c3.at(i, j), e3.at(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

/// A column-panel layout of `units` panels.
GemmBatchLayout column_layout(Index units) {
  GemmBatchLayout layout;
  layout.units = units;
  return layout;
}

/// An item-range layout with the given range bounds (0, ..., items).
GemmBatchLayout item_layout(std::vector<std::size_t> begin) {
  GemmBatchLayout layout;
  layout.cut = GemmBatchLayout::Cut::kItems;
  layout.units = static_cast<Index>(begin.size() - 1);
  layout.item_begin = std::move(begin);
  return layout;
}

TEST(GemmBatchSplit, BitwiseEqualsSingleThreadAcrossPoolSizes) {
  // The split must be invisible in C: for pool sizes 1-4, every kernel of
  // the active ISA and every fringe-lattice shape, the split batch equals
  // gemm_batch_with bit for bit — column panels (also more panels than
  // members) and every legal item-range layout (also more ranges than
  // members). Two items alias one C tile, adjacent in one item order and
  // apart in the other; beta must reach that tile once, and no range cut
  // may separate the two.
  Rng rng(909);
  const std::vector<Index> extents = {1, 3, 5, 8, 11, 13, 24, 129};
  struct Order {
    std::vector<int> outputs;  ///< item -> C slot (slot 0 is aliased)
    std::vector<std::vector<std::size_t>> ranges;  ///< legal item layouts
  };
  const std::vector<Order> orders = {
      {{0, 0, 1, 2}, {{0, 2, 4}, {0, 3, 4}, {0, 2, 3, 4}}},
      {{0, 1, 0, 2}, {{0, 3, 4}}},
  };
  for (unsigned members = 1; members <= 4; ++members) {
    ComputePool pool(members);
    for (const MicroKernel& mk : microkernels_for_isa(active_kernel_isa())) {
      int trial = 0;
      for (const Index m : extents) {
        for (const Index n : extents) {
          const Index k = extents[static_cast<std::size_t>(trial++) %
                                  extents.size()];
          const Tile b = random_tile(k, n, rng);
          for (const Order& order : orders) {
            // C slot s has m + s rows; each item's A matches its slot.
            std::vector<Tile> c_init, a;
            for (Index slot = 0; slot < 3; ++slot) {
              c_init.push_back(random_tile(m + slot, n, rng));
            }
            for (const int slot : order.outputs) {
              a.push_back(random_tile(m + slot, k, rng));
            }
            const auto items_into = [&](std::vector<Tile>& c) {
              std::vector<GemmBatchItem> items;
              for (std::size_t q = 0; q < 4; ++q) {
                items.push_back(
                    {&a[q], &c[static_cast<std::size_t>(order.outputs[q])]});
              }
              return items;
            };
            std::vector<Tile> expected = c_init;
            gemm_batch_with(mk, 0.75, items_into(expected), b, 0.5);

            std::vector<GemmBatchLayout> layouts = {
                column_layout(members), column_layout(7)};
            for (const std::vector<std::size_t>& r : order.ranges) {
              layouts.push_back(item_layout(r));
            }
            for (const GemmBatchLayout& layout : layouts) {
              std::vector<Tile> c = c_init;
              gemm_batch_split(pool, layout, mk, 0.75, items_into(c), b, 0.5);
              for (std::size_t slot = 0; slot < c.size(); ++slot) {
                ASSERT_EQ(std::memcmp(c[slot].data(), expected[slot].data(),
                                      c[slot].bytes()),
                          0)
                    << mk.name << " pool=" << members << " cut="
                    << (layout.cut == GemmBatchLayout::Cut::kItems
                            ? "items"
                            : "columns")
                    << " units=" << layout.units << " slot=" << slot
                    << " m=" << m << " n=" << n << " k=" << k;
              }
            }
          }
        }
      }
    }
  }
}

TEST(GemmBatchSplit, PlannerPicksColumnPanelsItemRangesOrOneUnit) {
  const MicroKernel& mk = default_microkernel();
  const Index nr = mk.geom.nr;
  Rng rng(77);
  const auto kind = [](const GemmBatchLayout& layout) {
    return layout.units == 1 ? "one"
           : layout.cut == GemmBatchLayout::Cut::kItems ? "items"
                                                        : "columns";
  };

  // abcd-coarse-like: 3 items of unequal m against a 324x324 B. Column
  // panels, as many as min(members, NR panels, flops / 4 Mflop).
  {
    const Tile b = random_tile(324, 324, rng);
    std::vector<Tile> a, c;
    double flops = 0.0;
    for (const Index m : {150, 165, 181}) {
      a.push_back(random_tile(m, 324, rng));
      c.emplace_back(m, 324);
      flops += gemm_flops(a.back(), b);
    }
    std::vector<GemmBatchItem> items;
    for (std::size_t q = 0; q < a.size(); ++q) items.push_back({&a[q], &c[q]});
    for (unsigned members = 1; members <= 4; ++members) {
      const GemmBatchLayout layout = plan_gemm_batch_split(mk, items, b, members);
      const Index panels = std::min({static_cast<Index>(members),
                                     (Index{324} + nr - 1) / nr,
                                     static_cast<Index>(flops / 4.0e6)});
      EXPECT_EQ(layout.cut, GemmBatchLayout::Cut::kColumns) << members;
      EXPECT_EQ(layout.units, panels) << members;
    }
  }
  // Enough flops for 4 panels, but B has only 2 NR-column panels.
  {
    const Tile tall_a = random_tile(4096, 256, rng);
    const Tile narrow_b = random_tile(256, nr * 2, rng);
    Tile narrow_c(4096, nr * 2);
    const std::vector<GemmBatchItem> narrow = {{&tall_a, &narrow_c}};
    const GemmBatchLayout layout = plan_gemm_batch_split(mk, narrow, narrow_b, 4);
    EXPECT_STREQ(kind(layout), "columns");
    EXPECT_EQ(layout.units, 2);
  }

  // abcd-fine-like: 6 x (83x52 . 52x52), ~2.7 Mflop, below the panel
  // grain. On 3 members it takes 2-3 item ranges of equal flops.
  const Tile b = random_tile(52, 52, rng);
  std::vector<Tile> a, c;
  for (int q = 0; q < 8; ++q) {
    a.push_back(random_tile(83, 52, rng));
    c.emplace_back(83, 52);
  }
  std::vector<GemmBatchItem> fine;
  for (std::size_t q = 0; q < 6; ++q) fine.push_back({&a[q], &c[q]});
  {
    const GemmBatchLayout layout = plan_gemm_batch_split(mk, fine, b, 3);
    ASSERT_STREQ(kind(layout), "items");
    ASSERT_GE(layout.units, 2);
    ASSERT_LE(layout.units, 3);
    ASSERT_EQ(layout.item_begin.size(), static_cast<std::size_t>(layout.units) + 1);
    const std::size_t per_range = 6 / static_cast<std::size_t>(layout.units);
    for (std::size_t u = 0; u < layout.item_begin.size(); ++u) {
      EXPECT_EQ(layout.item_begin[u], u * per_range);
    }
    EXPECT_STREQ(kind(plan_gemm_batch_split(mk, fine, b, 1)), "one");
  }
  // Below the item grain: two of the same items.
  EXPECT_STREQ(kind(plan_gemm_batch_split(
                   mk, std::span<const GemmBatchItem>(fine).first(2), b, 3)),
               "one");
  // All aliased: no legal cut, so one unit.
  {
    std::vector<GemmBatchItem> aliased;
    for (const Tile& t : a) aliased.push_back({&t, &c[0]});
    EXPECT_STREQ(kind(plan_gemm_batch_split(mk, aliased, b, 3)), "one");
    // Pairwise aliased (8 items, ~3.6 Mflop): cuts only between pairs.
    for (std::size_t q = 0; q < 8; ++q) aliased[q].c = &c[q / 2 * 2];
    const GemmBatchLayout paired = plan_gemm_batch_split(mk, aliased, b, 3);
    ASSERT_STREQ(kind(paired), "items");
    for (const std::size_t cut : paired.item_begin) EXPECT_EQ(cut % 2, 0u);
    // gemm_batch_split refuses a cut through an aliased pair.
    ComputePool pool(2);
    EXPECT_THROW(gemm_batch_split(pool, item_layout({0, 3, 8}), mk, 1.0,
                                  aliased, b, 1.0),
                 Error);
  }
  // Wide and short: the A rows sum to no more than B's width, so item
  // ranges (re-packing B each) would cost more than they save.
  {
    const Tile wide_b = random_tile(300, 300, rng);
    const Tile a1 = random_tile(20, 300, rng), a2 = random_tile(20, 300, rng);
    Tile c1(20, 300), c2(20, 300);
    const std::vector<GemmBatchItem> wide = {{&a1, &c1}, {&a2, &c2}};
    EXPECT_STREQ(kind(plan_gemm_batch_split(mk, wide, wide_b, 3)), "one");
  }
  // Tiny batch: below every grain, it stays on the caller.
  {
    const Tile small_a = random_tile(8, 8, rng);
    const Tile small_b = random_tile(8, 64, rng);
    Tile small_c(8, 64);
    const std::vector<GemmBatchItem> small = {{&small_a, &small_c}};
    EXPECT_STREQ(kind(plan_gemm_batch_split(mk, small, small_b, 4)), "one");
  }
}

/// The process's malloc arenas: malloc_info lists one <heap> per arena.
int malloc_arenas() {
  char* text = nullptr;
  std::size_t size = 0;
  FILE* out = open_memstream(&text, &size);
  if (out == nullptr) return -1;
  malloc_info(0, out);
  std::fclose(out);
  int arenas = 0;
  for (const char* p = text; (p = std::strstr(p, "<heap nr=")) != nullptr;
       ++p) {
    ++arenas;
  }
  std::free(text);
  return arenas;
}

TEST(GemmBatchSplit, HelperUnitsLeaveMallocAlone) {
  // Pool helpers running GEMM units must not touch malloc. A thread's
  // first malloc or free ties it to a glibc arena for good — a new one
  // unless an exited thread left one behind — and blocks it frees stay in
  // its own cache. Helpers that did (the pack arena's thread-exit
  // registration and buffer; job-queue blocks a lane allocated and a
  // helper freed) raised abcd-fine's peak RSS from ~180 to ~190 MiB in
  // most runs. Under ctest no thread has exited before this test, so a
  // helper that touched malloc adds an arena.
  const MicroKernel& mk = default_microkernel();
  Rng rng(31);
  const Tile b = random_tile(52, 52, rng);
  std::vector<Tile> a, c;
  for (int q = 0; q < 6; ++q) {
    a.push_back(random_tile(83, 52, rng));
    c.emplace_back(83, 52);
  }
  std::vector<GemmBatchItem> items;
  for (std::size_t q = 0; q < a.size(); ++q) items.push_back({&a[q], &c[q]});
  const GemmBatchLayout layout = item_layout({0, 2, 4, 6});
  const int arenas = malloc_arenas();
  ComputePool pool(3);
  for (int round = 0; round < 200; ++round) {
    gemm_batch_split(pool, layout, mk, 1.0, items, b, 1.0);
  }
  EXPECT_EQ(malloc_arenas(), arenas);
}

TEST(GemmKernels, ScalarAndActiveKernelsAgree) {
  // The scalar micro-kernel is the portable reference for the vector one:
  // run one packed panel through both and compare exactly at the C level.
  Rng rng(55);
  const Index kc = 23;
  Tile a(kPackMR, kc), b(kc, kPackNR);
  a.fill_random(rng);
  b.fill_random(rng);
  std::vector<double> ap(packed_a_doubles(kPackMR, kc));
  std::vector<double> bp(packed_b_doubles(kc, kPackNR));
  pack_a(kPackMR, kc, a.data(), a.ld(), ap.data());
  pack_b(kc, kPackNR, b.data(), b.ld(), bp.data());
  Tile c_scalar(kPackMR, kPackNR), c_active(kPackMR, kPackNR);
  scalar_microkernel()(kc, 1.0, ap.data(), bp.data(), c_scalar.data(),
                       c_scalar.ld(), kPackMR, kPackNR);
  active_microkernel()(kc, 1.0, ap.data(), bp.data(), c_active.data(),
                       c_active.ld(), kPackMR, kPackNR);
  // FMA contraction can differ from separate mul+add at the last ulp.
  EXPECT_LT(c_scalar.max_abs_diff(c_active), 1e-13 * static_cast<double>(kc));
}

}  // namespace
}  // namespace bstc
