/// Tests for the 3-D molecular extension: molecule factories, the 3-D
/// orbital system, the generalized ABCD builder and the tiling optimizer.

#include <gtest/gtest.h>

#include <cmath>

#include "chem/abcd3d.hpp"
#include "chem/molecule.hpp"
#include "chem/orbitals.hpp"
#include "chem/tiling_optimizer.hpp"
#include "shape/shape_algebra.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

TEST(Molecule3D, RingComposition) {
  const Molecule ring = Molecule::ring(12);
  EXPECT_EQ(ring.formula(), "C12H24");  // cycloalkane CnH2n
  EXPECT_THROW(Molecule::ring(2), Error);
  // Atoms sit on a circle: all carbons equidistant from the centroid.
  double r0 = -1.0;
  for (const Atom& a : ring.atoms()) {
    if (a.element != Element::kC) continue;
    const double r = std::sqrt(a.x * a.x + a.y * a.y);
    if (r0 < 0) r0 = r;
    EXPECT_NEAR(r, r0, 1e-9);
  }
}

TEST(Molecule3D, HelixIsQuasiLinear) {
  const Molecule helix = Molecule::helix(40);
  EXPECT_EQ(helix.formula(), "C40H82");
  const Aabb box = helix.extent();
  // Long in x, bounded in y/z by the helix radius.
  EXPECT_GT(box.hi.x - box.lo.x, 50.0);
  EXPECT_LT(box.hi.y - box.lo.y, 6.0);
  EXPECT_LT(box.hi.z - box.lo.z, 6.0);
}

TEST(Molecule3D, CompactBallIsCompact) {
  const Molecule ball = Molecule::compact(27);
  EXPECT_EQ(ball.count(Element::kC), 27);
  const Aabb box = ball.extent();
  // 27 lattice sites fill roughly a 3x3x3 cube.
  EXPECT_LT(box.hi.x - box.lo.x, 8.0);
  EXPECT_LT(box.hi.z - box.lo.z, 8.0);
  // Much more compact than the equivalent chain.
  EXPECT_LT(box.hi.x - box.lo.x, Molecule::alkane(27).length());
}

TEST(Orbitals3D, ChainMatchesOneDSystem) {
  const Molecule chain = Molecule::alkane(20);
  const OrbitalSystem s1 = OrbitalSystem::build(chain);
  const OrbitalSystem3 s3 = OrbitalSystem3::build(chain);
  EXPECT_EQ(s1.num_ao(), s3.num_ao());
  EXPECT_EQ(s1.num_occ(), s3.num_occ());
}

TEST(Orbitals3D, RingBondCount) {
  // A ring of n carbons has n C-C bonds (wraps around) and 2n C-H bonds.
  const Molecule ring = Molecule::ring(10);
  const OrbitalSystem3 sys = OrbitalSystem3::build(ring);
  EXPECT_EQ(sys.num_occ(), 10u + 20u);
}

TEST(Abcd3D, ChainReproducesOneDStructure) {
  // The 3-D builder on a collinear molecule must land close to the 1-D
  // builder (identical ranks, similar densities; clusterings may differ
  // slightly).
  const Molecule mol = Molecule::alkane(30);
  const OrbitalSystem s1 = OrbitalSystem::build(mol);
  const OrbitalSystem3 s3 = OrbitalSystem3::build(mol);
  AbcdConfig cfg;
  cfg.ao_clusters = 30;
  cfg.occ_clusters = 6;
  const AbcdProblem p1 = build_abcd(s1, cfg);
  const AbcdProblem3 p3 = build_abcd_3d(s3, cfg);
  EXPECT_EQ(p1.n(), p3.n());
  EXPECT_EQ(p1.m(), p3.m());  // pair screening is geometry-only
  const AbcdTraits t1 = abcd_traits(p1);
  const AbcdTraits t3 = abcd_traits(p3);
  EXPECT_NEAR(t3.density_v, t1.density_v, 0.5 * t1.density_v);
  EXPECT_NEAR(t3.density_t, t1.density_t, 0.5 * t1.density_t);
}

TEST(Abcd3D, RingSparsityWrapsAround) {
  // For a ring, the "corner" AO clusters (first and last along the
  // perimeter walk) are spatial neighbours, so V couples them.
  const Molecule ring = Molecule::ring(40);
  const OrbitalSystem3 sys = OrbitalSystem3::build(ring);
  AbcdConfig cfg;
  cfg.ao_clusters = 20;
  cfg.occ_clusters = 5;
  const AbcdProblem3 p = build_abcd_3d(sys, cfg);
  // Every AO cluster pairs with at least 2 others within the V cutoff
  // (its perimeter neighbours) — check via row nnz of V.
  const std::size_t ncl = p.ao_cluster_size.size();
  for (std::size_t c = 0; c < ncl; ++c) {
    EXPECT_GE(p.v.nnz_in_row(c * ncl + c), 4u);
  }
}

TEST(Abcd3D, CompactIsDenserThanChain) {
  // The paper's closing conjecture: compact molecules give much denser
  // problems.
  AbcdConfig cfg;
  cfg.ao_clusters = 12;
  cfg.occ_clusters = 3;
  const AbcdProblem3 chain =
      build_abcd_3d(OrbitalSystem3::build(Molecule::alkane(27)), cfg);
  const AbcdProblem3 ball =
      build_abcd_3d(OrbitalSystem3::build(Molecule::compact(27)), cfg);
  const AbcdTraits tc = abcd_traits(chain);
  const AbcdTraits tb = abcd_traits(ball);
  EXPECT_GT(tb.density_v, 2.0 * tc.density_v);
  EXPECT_GT(tb.density_t, tc.density_t);
}

TEST(Abcd3D, RIsInsideClosure) {
  const AbcdProblem3 p = build_abcd_3d(
      OrbitalSystem3::build(Molecule::helix(25)), AbcdConfig{
                                                      .occ_clusters = 4,
                                                      .ao_clusters = 12,
                                                  });
  const Shape closure = contract_shape(p.t, p.v);
  for (std::size_t i = 0; i < p.r.tile_rows(); ++i) {
    for (std::size_t j = 0; j < p.r.tile_cols(); ++j) {
      if (p.r.nonzero(i, j)) {
        ASSERT_TRUE(closure.nonzero(i, j));
      }
    }
  }
}

TEST(TilingOptimizer, FindsACandidateAndOrdersConsistently) {
  const OrbitalSystem sys = OrbitalSystem::build(Molecule::alkane(30));
  AbcdConfig base;
  const MachineModel machine = MachineModel::summit_gpus(6);
  TilingSearchConfig search;
  search.min_ao_clusters = 6;
  search.max_ao_clusters = 30;
  search.step = 1.6;
  const TilingSearchResult result =
      optimize_tiling(sys, base, machine, search);
  ASSERT_GE(result.candidates.size(), 3u);
  const TilingCandidate& best = result.best_candidate();
  for (const TilingCandidate& c : result.candidates) {
    EXPECT_GE(c.makespan_s, best.makespan_s);
    EXPECT_GT(c.flops, 0.0);
    EXPECT_GE(c.occ_clusters, 2u);
  }
  // Coarser tilings do at least as many flops (same physical cutoffs).
  for (std::size_t i = 1; i < result.candidates.size(); ++i) {
    EXPECT_GE(result.candidates[i - 1].flops * 1.5,
              result.candidates[i].flops * 0.5);
  }
}

TEST(TilingOptimizer, TilingsThatCannotBeLoweredAreInfeasible) {
  // On 300 MB GPUs the three coarsest tilings leave a block no room for
  // an A chunk; the search marks them infinite and picks the one that
  // lowers. On 100 MB GPUs none lowers.
  const OrbitalSystem sys = OrbitalSystem::build(Molecule::alkane(30));
  MachineModel machine = MachineModel::summit_gpus(6);
  machine.node.gpu.memory_bytes = 3.0e8;
  TilingSearchConfig search;
  search.min_ao_clusters = 6;
  search.max_ao_clusters = 30;
  search.step = 1.6;
  const TilingSearchResult result =
      optimize_tiling(sys, AbcdConfig{}, machine, search);
  ASSERT_EQ(result.candidates.size(), 4u);
  for (std::size_t i = 0; i + 1 < result.candidates.size(); ++i) {
    EXPECT_TRUE(std::isinf(result.candidates[i].makespan_s)) << i;
  }
  EXPECT_TRUE(std::isfinite(result.candidates.back().makespan_s));
  EXPECT_EQ(result.best, result.candidates.size() - 1);

  machine.node.gpu.memory_bytes = 1.0e8;
  EXPECT_THROW(optimize_tiling(sys, AbcdConfig{}, machine, search), Error);
}

TEST(TilingOptimizer, InvalidSearchThrows) {
  const OrbitalSystem sys = OrbitalSystem::build(Molecule::alkane(10));
  const MachineModel machine = MachineModel::summit_gpus(1);
  TilingSearchConfig bad;
  bad.step = 1.0;
  EXPECT_THROW(optimize_tiling(sys, AbcdConfig{}, machine, bad), Error);
}

}  // namespace
}  // namespace bstc
