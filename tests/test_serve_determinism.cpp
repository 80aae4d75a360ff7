/// Satellite audit of the property the whole serving layer rests on:
/// spec expansion is byte-stable (same ServeProblemSpec => same bits in
/// every process) and the FNV routing keys derived from it are stable.
/// audit_serve_spec_determinism is the self-checking witness; the tests
/// here regression-pin its behavior and the program-key folding rules.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "bsm/block_sparse_matrix.hpp"
#include "expr/executor.hpp"
#include "service/serve_api.hpp"
#include "support/rng.hpp"

namespace bstc {
namespace {

ServeProblemSpec audit_spec() {
  ServeProblemSpec spec;
  spec.m = 48;
  spec.k = 96;
  spec.n = 96;
  spec.density = 0.5;
  spec.tile_lo = 8;
  spec.tile_hi = 24;
  spec.seed = 42;
  return spec;
}

TEST(ServeDeterminism, AuditIsStableAndThrowsOnNothing) {
  const ServeProblemSpec spec = audit_spec();
  // The audit itself expands the spec twice from scratch and requires
  // byte-identical shapes, fingerprints, B tiles and A matrices; any
  // instability throws. Its checksum must also be call-stable.
  const std::uint64_t first = audit_serve_spec_determinism(spec);
  const std::uint64_t second = audit_serve_spec_determinism(spec);
  EXPECT_NE(first, 0u);
  EXPECT_EQ(first, second);
}

TEST(ServeDeterminism, AuditChecksumIsSpecSensitive) {
  const std::uint64_t base = audit_serve_spec_determinism(audit_spec());

  ServeProblemSpec seeded = audit_spec();
  seeded.seed = 43;
  EXPECT_NE(audit_serve_spec_determinism(seeded), base);

  ServeProblemSpec denser = audit_spec();
  denser.density = 0.7;
  EXPECT_NE(audit_serve_spec_determinism(denser), base);

  ServeProblemSpec wider = audit_spec();
  wider.k = 128;
  EXPECT_NE(audit_serve_spec_determinism(wider), base);
}

TEST(ServeDeterminism, RoutingKeysAreStableAndFieldSensitive) {
  const ServeProblemSpec spec = audit_spec();
  const std::uint64_t key = serve_routing_key(spec);
  EXPECT_NE(key, 0u);
  EXPECT_EQ(serve_routing_key(spec), key);

  // Equal specs route equally; every identity field participates.
  ServeProblemSpec other = audit_spec();
  EXPECT_EQ(serve_routing_key(other), key);
  other.seed += 1;
  EXPECT_NE(serve_routing_key(other), key);

  ServeProblemSpec knobs = audit_spec();
  knobs.gpu_mem *= 2;
  EXPECT_NE(serve_routing_key(knobs), key);
}

TEST(ServeDeterminism, ProgramRoutingKeyFoldsTheName) {
  const ServeProblemSpec spec = audit_spec();
  const std::uint64_t plain = serve_routing_key(spec);

  // Empty name: non-program requests are unaffected.
  EXPECT_EQ(serve_program_routing_key(spec, ""), plain);

  const std::uint64_t abcd = serve_program_routing_key(spec, "abcd");
  const std::uint64_t ccsd =
      serve_program_routing_key(spec, "ccsd-doubles");
  EXPECT_NE(abcd, plain);
  EXPECT_NE(ccsd, plain);
  EXPECT_NE(abcd, ccsd);

  // Stable across calls, and spec-sensitive with the name held fixed.
  EXPECT_EQ(serve_program_routing_key(spec, "abcd"), abcd);
  ServeProblemSpec other = audit_spec();
  other.seed += 1;
  EXPECT_NE(serve_program_routing_key(other, "abcd"), abcd);
}

TEST(ServeDeterminism, ExpansionIsByteStableAcrossRebuilds) {
  const ServeProblemSpec spec = audit_spec();
  const BuiltServeProblem one = build_serve_problem(spec);
  const BuiltServeProblem two = build_serve_problem(spec);

  EXPECT_EQ(one.fingerprint, two.fingerprint);
  EXPECT_EQ(one.a_shape.nnz_tiles(), two.a_shape.nnz_tiles());
  EXPECT_EQ(one.b_shape.nnz_tiles(), two.b_shape.nnz_tiles());
  EXPECT_EQ(one.c_shape.nnz_tiles(), two.c_shape.nnz_tiles());

  // Every generated B tile and every A value, bit for bit.
  const BlockSparseMatrix b1 = expr::materialize(one.b_shape, one.b_gen);
  const BlockSparseMatrix b2 = expr::materialize(two.b_shape, two.b_gen);
  EXPECT_EQ(bsm_content_checksum(b1), bsm_content_checksum(b2));
  EXPECT_EQ(b1.max_abs_diff(b2), 0.0);

  const BlockSparseMatrix a1 = build_serve_a(one, 1234);
  const BlockSparseMatrix a2 = build_serve_a(two, 1234);
  EXPECT_EQ(bsm_content_checksum(a1), bsm_content_checksum(a2));
  EXPECT_EQ(a1.max_abs_diff(a2), 0.0);

  // A different iteration seed refreshes A's values, never its shape.
  const BlockSparseMatrix a3 = build_serve_a(one, 1235);
  EXPECT_NE(bsm_content_checksum(a3), bsm_content_checksum(a1));
  EXPECT_EQ(a3.shape().nnz_tiles(), a1.shape().nnz_tiles());
}

TEST(ServeDeterminism, StoreFingerprintIgnoresMachineKnobs) {
  const ServeProblemSpec spec = audit_spec();
  const std::uint64_t store = serve_store_fingerprint(spec);
  EXPECT_NE(store, 0u);

  // B's bits don't depend on the machine knobs, so neither may the
  // store fingerprint — one sealed store serves every such request.
  ServeProblemSpec knobs = audit_spec();
  knobs.gpu_mem *= 4;
  knobs.gpus = 2;
  knobs.p = 2;
  EXPECT_EQ(serve_store_fingerprint(knobs), store);

  // Anything defining B's content must change it.
  ServeProblemSpec reseeded = audit_spec();
  reseeded.seed += 1;
  EXPECT_NE(serve_store_fingerprint(reseeded), store);
}

// ---------------------------------------------------------------------------
// bsm_content_checksum (digest v2): every payload bit, tile order and
// extents are part of the witness.

BlockSparseMatrix digest_matrix() {
  Rng rng(77);
  const Tiling rows = Tiling::from_extents(std::vector<Index>{3, 5, 4});
  const Tiling cols = Tiling::from_extents(std::vector<Index>{6, 2, 7});
  return BlockSparseMatrix::random(Shape::dense(rows, cols), rng);
}

void flip_bit(Tile& t, std::size_t elem, int bit) {
  std::uint64_t word = 0;
  std::memcpy(&word, t.data() + elem, sizeof word);
  word ^= std::uint64_t{1} << bit;
  std::memcpy(t.data() + elem, &word, sizeof word);
}

TEST(ServeDeterminism, DigestSeesEveryBitOfFirstAndLastTile) {
  const BlockSparseMatrix m = digest_matrix();
  const std::uint64_t base = bsm_content_checksum(m);
  const Shape& s = m.shape();
  const std::size_t last_r = s.tile_rows() - 1;
  const std::size_t last_c = s.tile_cols() - 1;
  for (const auto& [r, c] : {std::pair<std::size_t, std::size_t>{0, 0},
                             std::pair<std::size_t, std::size_t>{last_r,
                                                                 last_c}}) {
    const auto elems = static_cast<std::size_t>(m.tile(r, c).size());
    for (const std::size_t elem : {std::size_t{0}, elems / 2, elems - 1}) {
      for (int bit = 0; bit < 64; ++bit) {
        BlockSparseMatrix flipped = m;
        flip_bit(flipped.tile(r, c), elem, bit);
        EXPECT_NE(bsm_content_checksum(flipped), base)
            << "tile (" << r << "," << c << ") elem " << elem << " bit "
            << bit;
      }
    }
  }
}

TEST(ServeDeterminism, DigestSeesTileOrder) {
  // Two tiles of equal extents trade payloads: same multiset of bytes,
  // different matrix.
  const Tiling rows = Tiling::uniform(8, 4);
  const Tiling cols = Tiling::uniform(4, 4);
  Rng rng(3);
  const BlockSparseMatrix m =
      BlockSparseMatrix::random(Shape::dense(rows, cols), rng);
  BlockSparseMatrix swapped = m;
  swapped.tile(0, 0) = m.tile(1, 0);
  swapped.tile(1, 0) = m.tile(0, 0);
  ASSERT_GT(swapped.max_abs_diff(m), 0.0);
  EXPECT_NE(bsm_content_checksum(swapped), bsm_content_checksum(m));
}

TEST(ServeDeterminism, DigestSeesExtents) {
  // The same six doubles as one 2x3 tile and as one 3x2 tile.
  const double values[6] = {1.5, -2.0, 3.25, 0.5, 8.0, -1.0};
  BlockSparseMatrix wide(
      Shape::dense(Tiling::uniform(2, 2), Tiling::uniform(3, 3)));
  BlockSparseMatrix tall(
      Shape::dense(Tiling::uniform(3, 3), Tiling::uniform(2, 2)));
  std::memcpy(wide.tile(0, 0).data(), values, sizeof values);
  std::memcpy(tall.tile(0, 0).data(), values, sizeof values);
  EXPECT_NE(bsm_content_checksum(wide), bsm_content_checksum(tall));
}

TEST(ServeDeterminism, DigestIsEqualForEqualMatrices) {
  const BlockSparseMatrix m = digest_matrix();
  const BlockSparseMatrix copy = m;
  EXPECT_EQ(bsm_content_checksum(copy), bsm_content_checksum(m));
  EXPECT_EQ(bsm_content_checksum(digest_matrix()), bsm_content_checksum(m));
}

}  // namespace
}  // namespace bstc
