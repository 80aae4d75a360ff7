/// Tests for the electronic-structure workload generator: molecule, basis
/// and the ABCD block-sparse problem (paper §2, §5.2, Table 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bsm/block_sparse_matrix.hpp"
#include "bsm/on_demand_matrix.hpp"
#include "chem/abcd.hpp"
#include "chem/abcd3d.hpp"
#include "chem/molecule.hpp"
#include "chem/orbitals.hpp"
#include "core/engine.hpp"
#include "shape/shape_algebra.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

TEST(Molecule, AlkaneComposition) {
  const Molecule m = Molecule::alkane(65);
  EXPECT_EQ(m.formula(), "C65H132");
  EXPECT_EQ(m.count(Element::kC), 65);
  EXPECT_EQ(m.count(Element::kH), 132);
  EXPECT_EQ(m.electrons(), 65 * 6 + 132);
  EXPECT_EQ(m.occupied_orbitals(), 261);
  EXPECT_EQ(m.core_orbitals(), 65);
  // The paper's O = 196 valence occupied orbitals.
  EXPECT_EQ(m.valence_occupied(), 196);
  EXPECT_GT(m.length(), 75.0);
  EXPECT_LT(m.length(), 90.0);
}

TEST(Molecule, SmallAlkanes) {
  EXPECT_EQ(Molecule::alkane(1).formula(), "C1H4");  // methane
  const Molecule ethane = Molecule::alkane(2);
  EXPECT_EQ(ethane.count(Element::kH), 6);
  EXPECT_THROW(Molecule::alkane(0), Error);
}

TEST(Orbitals, Def2SvpCounts) {
  EXPECT_EQ(def2svp_functions(Element::kC), 14);
  EXPECT_EQ(def2svp_functions(Element::kH), 5);
}

TEST(Orbitals, BasisSetLadder) {
  EXPECT_EQ(basis_functions(BasisSet::kSto3g, Element::kH), 1);
  EXPECT_EQ(basis_functions(BasisSet::kSto3g, Element::kC), 5);
  EXPECT_EQ(basis_functions(BasisSet::kDef2Tzvp, Element::kH), 6);
  EXPECT_EQ(basis_functions(BasisSet::kDef2Tzvp, Element::kC), 31);
  // U grows with basis quality for the same molecule; O does not.
  const Molecule m = Molecule::alkane(10);
  const OrbitalSystem minimal = OrbitalSystem::build(m, BasisSet::kSto3g);
  const OrbitalSystem svp = OrbitalSystem::build(m, BasisSet::kDef2Svp);
  const OrbitalSystem tzvp = OrbitalSystem::build(m, BasisSet::kDef2Tzvp);
  EXPECT_LT(minimal.num_ao(), svp.num_ao());
  EXPECT_LT(svp.num_ao(), tzvp.num_ao());
  EXPECT_EQ(minimal.num_occ(), tzvp.num_occ());
}

TEST(Orbitals, C65H132MatchesPaperRanks) {
  const OrbitalSystem sys = OrbitalSystem::build(Molecule::alkane(65));
  // The paper's U = 1570, O = 196.
  EXPECT_EQ(sys.num_ao(), 1570u);
  EXPECT_EQ(sys.num_occ(), 196u);
}

TEST(Orbitals, CentersAreSortedAndLocal) {
  const Molecule m = Molecule::alkane(10);
  const OrbitalSystem sys = OrbitalSystem::build(m);
  for (std::size_t i = 1; i < sys.occ_centers.size(); ++i) {
    EXPECT_LE(sys.occ_centers[i - 1], sys.occ_centers[i]);
  }
  EXPECT_GE(sys.occ_centers.front(), -1e-9);
  EXPECT_LE(sys.occ_centers.back(), m.length() + 1e-9);
}

TEST(Molecule, XyzRoundTrip) {
  const std::string xyz =
      "5\n"
      "methane-ish fragment\n"
      "C 0.0 0.0 0.0\n"
      "H 0.6 0.6 0.6\n"
      "H -0.6 -0.6 0.6\n"
      "H 0.6 -0.6 -0.6\n"
      "h -0.6 0.6 -0.6\n";
  const Molecule m = Molecule::from_xyz(xyz);
  EXPECT_EQ(m.formula(), "C1H4");
  EXPECT_EQ(m.atoms()[0].element, Element::kC);
  EXPECT_DOUBLE_EQ(m.atoms()[4].y, 0.6);
  // An XYZ molecule feeds the full 3-D pipeline.
  const OrbitalSystem3 sys = OrbitalSystem3::build(m);
  EXPECT_EQ(sys.num_ao(), 14u + 4u * 5u);
}

TEST(Molecule, XyzMalformedRejected) {
  EXPECT_THROW(Molecule::from_xyz(""), Error);
  EXPECT_THROW(Molecule::from_xyz("abc\n"), Error);
  EXPECT_THROW(Molecule::from_xyz("2\nc\nC 0 0 0\n"), Error);  // truncated
  EXPECT_THROW(Molecule::from_xyz("1\nc\nXe 0 0 0\n"), Error);  // element
  EXPECT_THROW(Molecule::load_xyz("/no/such/file.xyz"), Error);
}

class AbcdFixture : public ::testing::Test {
 protected:
  static const AbcdProblem& problem() {
    static const AbcdProblem p =
        build_abcd(OrbitalSystem::build(Molecule::alkane(65)),
                   AbcdConfig::tiling_v1());
    return p;
  }
};

TEST_F(AbcdFixture, MatrixDimensionsMatchPaper) {
  // N = K = U^2 = 1570^2 = 2,464,900 exactly (Table 1); M is the screened
  // pair count, calibrated to the paper's 26,576 within ~1%.
  EXPECT_EQ(problem().n(), 2464900);
  EXPECT_EQ(problem().k(), 2464900);
  EXPECT_NEAR(static_cast<double>(problem().m()), 26576.0, 0.01 * 26576.0);
}

TEST_F(AbcdFixture, DensitiesNearPaperTable1) {
  const AbcdTraits tr = abcd_traits(problem());
  EXPECT_NEAR(tr.density_t, 0.098, 0.02);   // paper: 9.8%
  EXPECT_NEAR(tr.density_v, 0.024, 0.006);  // paper: 2.4%
  EXPECT_NEAR(tr.density_r, 0.149, 0.03);   // paper: 14.9%
}

TEST_F(AbcdFixture, FlopsNearPaperTable1) {
  const AbcdTraits tr = abcd_traits(problem());
  // Paper: 877 Tflop plain, 850 Tflop opt. Accept +-15%.
  EXPECT_NEAR(tr.flops, 877e12, 0.15 * 877e12);
  EXPECT_NEAR(tr.flops_opt, 850e12, 0.15 * 850e12);
  EXPECT_LE(tr.flops_opt, tr.flops);
  // Far below the dense operation count of ~0.47 Exaflop for the full
  // O^2 U^4 contraction — the reduced-scaling win the paper highlights.
  EXPECT_LT(tr.flops, 0.01 * 0.47e18 * 100);
  EXPECT_GT(tr.gemm_tasks, 1000000u);  // millions of tile GEMMs (paper 1.9M)
  EXPECT_LT(tr.gemm_tasks, 4000000u);
}

TEST_F(AbcdFixture, ShapesAreConformant) {
  EXPECT_EQ(problem().t.col_tiling(), problem().v.row_tiling());
  EXPECT_EQ(problem().r.row_tiling(), problem().t.row_tiling());
  EXPECT_EQ(problem().r.col_tiling(), problem().v.col_tiling());
  // R is inside the closure of (T, V).
  const Shape closure = contract_shape(problem().t, problem().v);
  for (std::size_t i = 0; i < problem().r.tile_rows(); ++i) {
    for (std::size_t j = 0; j < problem().r.tile_cols(); j += 7) {
      if (problem().r.nonzero(i, j)) {
        ASSERT_TRUE(closure.nonzero(i, j));
      }
    }
  }
}

TEST_F(AbcdFixture, VShapeIsSymmetricInClusters) {
  // V(cd, ab) nonzero implies V(dc, ba) nonzero (swap both electrons).
  const std::size_t ncl = problem().ao_cluster_size.size();
  const Shape& v = problem().v;
  for (std::size_t c = 0; c < ncl; c += 5) {
    for (std::size_t d = 0; d < ncl; d += 7) {
      for (std::size_t av = 0; av < ncl; av += 5) {
        for (std::size_t bv = 0; bv < ncl; bv += 7) {
          EXPECT_EQ(v.nonzero(c * ncl + d, av * ncl + bv),
                    v.nonzero(d * ncl + c, bv * ncl + av));
        }
      }
    }
  }
}

TEST(Abcd, TilingGranularityTradeoff) {
  // Paper Table 1 + Figure 6: coarser tilings increase tile sizes,
  // densities and flops while decreasing the task count.
  const OrbitalSystem sys = OrbitalSystem::build(Molecule::alkane(65));
  const AbcdTraits v1 = abcd_traits(build_abcd(sys, AbcdConfig::tiling_v1()));
  const AbcdTraits v2 = abcd_traits(build_abcd(sys, AbcdConfig::tiling_v2()));
  const AbcdTraits v3 = abcd_traits(build_abcd(sys, AbcdConfig::tiling_v3()));
  EXPECT_LT(v1.avg_cols_per_tile, v2.avg_cols_per_tile);
  EXPECT_LT(v2.avg_cols_per_tile, v3.avg_cols_per_tile);
  EXPECT_LT(v1.flops, v2.flops);
  EXPECT_LT(v2.flops, v3.flops);
  EXPECT_GT(v1.gemm_tasks, v2.gemm_tasks);
  EXPECT_GT(v2.gemm_tasks, v3.gemm_tasks);
  EXPECT_LT(v1.density_t, v3.density_t);
  // All three describe the same element-wise problem.
  EXPECT_EQ(v1.n, v3.n);
  EXPECT_EQ(v1.m, v2.m);
  EXPECT_EQ(v2.m, v3.m);
}

TEST(Abcd, PermutationalSymmetryHalvesTheWork) {
  // Paper §2 footnote: exploiting the i<->j symmetry of T/R attains the
  // optimal operation count; here it must halve M (up to the diagonal)
  // and roughly halve the flops.
  const OrbitalSystem sys = OrbitalSystem::build(Molecule::alkane(30));
  AbcdConfig cfg;
  cfg.occ_clusters = 5;
  cfg.ao_clusters = 30;
  AbcdConfig sym = cfg;
  sym.symmetric_pairs = true;
  const AbcdProblem full = build_abcd(sys, cfg);
  const AbcdProblem half = build_abcd(sys, sym);
  const Index o = static_cast<Index>(sys.num_occ());
  // Kept ordered pairs = (kept unordered pairs + diagonal) since the
  // screen is symmetric: M_sym = (M_full + O) / 2.
  EXPECT_EQ(half.m(), (full.m() + o) / 2);
  const AbcdTraits tf = abcd_traits(full);
  const AbcdTraits th = abcd_traits(half);
  EXPECT_NEAR(th.flops / tf.flops, 0.5, 0.12);
  EXPECT_EQ(th.n, tf.n);  // AO side unchanged
}

TEST(Abcd, PermutationalSymmetryInThreeD) {
  const OrbitalSystem3 sys = OrbitalSystem3::build(Molecule::helix(20));
  AbcdConfig cfg;
  cfg.occ_clusters = 4;
  cfg.ao_clusters = 10;
  AbcdConfig sym = cfg;
  sym.symmetric_pairs = true;
  const AbcdProblem3 full = build_abcd_3d(sys, cfg);
  const AbcdProblem3 half = build_abcd_3d(sys, sym);
  EXPECT_LT(half.m(), full.m());
  EXPECT_GE(half.m(), full.m() / 2);
}

TEST(Abcd, SmallMoleculeProblemIsExecutable) {
  // A scaled-down chain produces a problem small enough for the real
  // engine (used by the examples); sanity-check its structure.
  const OrbitalSystem sys = OrbitalSystem::build(Molecule::alkane(6));
  AbcdConfig cfg;
  cfg.occ_clusters = 3;
  cfg.ao_clusters = 6;
  const AbcdProblem p = build_abcd(sys, cfg);
  EXPECT_GT(p.t.nnz_tiles(), 0u);
  EXPECT_GT(p.v.nnz_tiles(), 0u);
  EXPECT_GT(p.r.nnz_tiles(), 0u);
  const AbcdTraits tr = abcd_traits(p);
  EXPECT_GT(tr.flops, 0.0);
  EXPECT_GE(tr.flops, tr.flops_opt);
}

TEST(Abcd, ChemProblemMatchesDirectSummation) {
  // The ABCD term the way the product runs it: build_abcd's shapes, V
  // generated on demand, R screened by r_cutoff, executed by contract().
  // Every element of R is checked against the plain sum over k of
  // T(r,k) * V(k,c). The cutoffs are shrunk to the short chain so that T,
  // V and the R screen are all sparse.
  AbcdConfig cfg;
  cfg.occ_clusters = 3;
  cfg.ao_clusters = 4;
  cfg.symmetric_pairs = true;
  cfg.t_cutoff = 2.0;
  cfg.v_cutoff = 1.5;
  cfg.r_cutoff = 2.0;
  const AbcdProblem p = build_abcd(
      OrbitalSystem::build(Molecule::alkane(4), BasisSet::kSto3g), cfg);
  ASSERT_LT(p.t.density(), 1.0);
  ASSERT_LT(p.v.density(), 1.0);

  // R is a strict subset of the closure: the r_cutoff screen drops tiles.
  const Shape closure = contract_shape(p.t, p.v);
  for (std::size_t i = 0; i < p.r.tile_rows(); ++i) {
    for (std::size_t j = 0; j < p.r.tile_cols(); ++j) {
      if (p.r.nonzero(i, j)) {
        ASSERT_TRUE(closure.nonzero(i, j));
      }
    }
  }
  ASSERT_GT(p.r.nnz_tiles(), 0u);
  ASSERT_LT(p.r.nnz_tiles(), closure.nnz_tiles());

  Rng rng(31);
  const BlockSparseMatrix a = BlockSparseMatrix::random(p.t, rng);
  const TileGenerator v_gen = random_tile_generator(p.v, 41);
  MachineModel machine = MachineModel::summit_gpus(2);
  machine.node.gpu.memory_bytes = 1e6;
  const EngineResult res =
      contract(a, p.v, v_gen, p.r, nullptr, machine, EngineConfig{});
  ASSERT_EQ(res.c.shape(), p.r);

  // Row-major element copies of T and V, read through at() only.
  BlockSparseMatrix v(p.v);
  for (std::size_t r = 0; r < p.v.tile_rows(); ++r) {
    for (std::size_t c = 0; c < p.v.tile_cols(); ++c) {
      if (p.v.nonzero(r, c)) v.tile(r, c) = v_gen(r, c);
    }
  }
  const Index m = p.m(), k = p.k(), n = p.n();
  std::vector<double> t_el(static_cast<std::size_t>(m * k));
  std::vector<double> v_el(static_cast<std::size_t>(k * n));
  for (Index r = 0; r < m; ++r) {
    for (Index x = 0; x < k; ++x) t_el[r * k + x] = a.at(r, x);
  }
  for (Index x = 0; x < k; ++x) {
    for (Index c = 0; c < n; ++c) v_el[x * n + c] = v.at(x, c);
  }

  const Tiling& rows = p.r.row_tiling();
  const Tiling& cols = p.r.col_tiling();
  double worst = 0.0;
  for (std::size_t i = 0; i < p.r.tile_rows(); ++i) {
    for (std::size_t j = 0; j < p.r.tile_cols(); ++j) {
      if (!p.r.nonzero(i, j)) continue;
      const Index r0 = rows.tile_offset(i), c0 = cols.tile_offset(j);
      for (Index r = r0; r < r0 + rows.tile_extent(i); ++r) {
        for (Index c = c0; c < c0 + cols.tile_extent(j); ++c) {
          double expect = 0.0;
          for (Index x = 0; x < k; ++x) {
            expect += t_el[r * k + x] * v_el[x * n + c];
          }
          worst = std::max(worst, std::abs(res.c.at(r, c) - expect));
        }
      }
    }
  }
  EXPECT_LT(worst, 1e-10);
}

}  // namespace
}  // namespace bstc
