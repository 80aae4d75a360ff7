#include "service/serve_api.hpp"

#include <bit>

#include "service/fingerprint.hpp"
#include "shape/shape_algebra.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace bstc {

const char* serve_request_kind_name(ServeRequestKind kind) {
  switch (kind) {
    case ServeRequestKind::kContract: return "contract";
    case ServeRequestKind::kSessionIterate: return "session-iterate";
    case ServeRequestKind::kSessionClose: return "session-close";
    case ServeRequestKind::kPlanExplain: return "plan-explain";
    case ServeRequestKind::kProgramRun: return "program-run";
  }
  return "unknown";
}

std::uint64_t serve_routing_key(const ServeProblemSpec& spec) {
  std::uint64_t h = fnv1a64("bstc-serve-spec-v1");
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.m), h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.k), h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.n), h);
  h = fnv1a64_u64(std::bit_cast<std::uint64_t>(spec.density), h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.tile_lo), h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.tile_hi), h);
  h = fnv1a64_u64(spec.seed, h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.gpus), h);
  h = fnv1a64_u64(std::bit_cast<std::uint64_t>(spec.gpu_mem), h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.p), h);
  return h;
}

std::uint64_t serve_program_routing_key(const ServeProblemSpec& spec,
                                        const std::string& program) {
  std::uint64_t h = serve_routing_key(spec);
  if (program.empty()) return h;
  h = fnv1a64("bstc-serve-program-v1", h);
  return fnv1a64(program, h);
}

std::uint64_t audit_serve_spec_determinism(const ServeProblemSpec& spec) {
  const BuiltServeProblem one = build_serve_problem(spec);
  const BuiltServeProblem two = build_serve_problem(spec);
  BSTC_REQUIRE(one.a_shape == two.a_shape && one.b_shape == two.b_shape &&
                   one.c_shape == two.c_shape,
               "serve audit: spec expansion produced different shapes on "
               "re-expansion");
  BSTC_REQUIRE(one.fingerprint == two.fingerprint,
               "serve audit: engine fingerprint unstable across expansion");
  BSTC_REQUIRE(serve_routing_key(spec) == serve_routing_key(spec) &&
                   serve_store_fingerprint(spec) ==
                       serve_store_fingerprint(spec),
               "serve audit: FNV routing keys unstable across recomputation");

  // Fold every checked identity into one regression witness; tile bytes
  // go in raw so any value-level drift moves the checksum.
  std::uint64_t h = fnv1a64("bstc-serve-audit-v1");
  h = fnv1a64_u64(serve_routing_key(spec), h);
  h = fnv1a64_u64(serve_store_fingerprint(spec), h);
  h = fnv1a64_u64(one.fingerprint, h);
  h = fingerprint_shape(one.a_shape, h);
  h = fingerprint_shape(one.b_shape, h);
  h = fingerprint_shape(one.c_shape, h);

  // Sample generated B tiles from both expansions and require bitwise
  // equality (the shared-store attach path depends on this).
  const Shape& bs = one.b_shape;
  std::size_t sampled = 0;
  for (std::size_t r = 0; r < bs.tile_rows() && sampled < 8; ++r) {
    for (std::size_t c = 0; c < bs.tile_cols() && sampled < 8; ++c) {
      if (!bs.nonzero(r, c)) continue;
      const Tile t1 = one.b_gen(r, c);
      const Tile t2 = two.b_gen(r, c);
      BSTC_REQUIRE(t1.rows() == t2.rows() && t1.cols() == t2.cols() &&
                       std::string_view(
                           reinterpret_cast<const char*>(t1.data()),
                           t1.bytes()) ==
                           std::string_view(
                               reinterpret_cast<const char*>(t2.data()),
                               t2.bytes()),
               "serve audit: generated B tiles differ across expansion");
      h = hash64(t1.data(), t1.bytes(), h);
      ++sampled;
    }
  }

  // The per-iteration A build must be byte-stable too.
  const std::uint64_t a_seed = spec.seed + 1;
  const std::uint64_t a1 = bsm_content_checksum(build_serve_a(one, a_seed));
  const std::uint64_t a2 = bsm_content_checksum(build_serve_a(two, a_seed));
  BSTC_REQUIRE(a1 == a2,
               "serve audit: A matrices differ across expansion");
  h = fnv1a64_u64(a1, h);
  return h;
}

std::uint64_t serve_store_fingerprint(const ServeProblemSpec& spec) {
  // Only the fields B's shape and values depend on (see
  // build_serve_problem: B is seeded from spec.seed over tilings drawn
  // from (k, n, tile_lo, tile_hi, density)).
  std::uint64_t h = fnv1a64("bstc-serve-store-v1");
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.m), h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.k), h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.n), h);
  h = fnv1a64_u64(std::bit_cast<std::uint64_t>(spec.density), h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.tile_lo), h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.tile_hi), h);
  h = fnv1a64_u64(spec.seed, h);
  return h;
}

BuiltServeProblem build_serve_problem(const ServeProblemSpec& spec) {
  BSTC_REQUIRE(spec.m >= 1 && spec.k >= 1 && spec.n >= 1,
               "serve: problem extents must be >= 1");
  BSTC_REQUIRE(spec.gpus >= 1, "serve: spec.gpus must be >= 1");
  BSTC_REQUIRE(spec.p >= 1, "serve: spec.p must be >= 1");
  BuiltServeProblem b;
  Rng rng(spec.seed);
  const Tiling mt =
      Tiling::random_uniform(spec.m, spec.tile_lo, spec.tile_hi, rng);
  const Tiling kt =
      Tiling::random_uniform(spec.k, spec.tile_lo, spec.tile_hi, rng);
  const Tiling nt =
      Tiling::random_uniform(spec.n, spec.tile_lo, spec.tile_hi, rng);
  b.a_shape = Shape::random(mt, kt, spec.density, rng);
  b.b_shape = Shape::random(kt, nt, spec.density, rng);
  b.c_shape = contract_shape(b.a_shape, b.b_shape);
  b.b_gen = random_tile_generator(b.b_shape, spec.seed * 31 + 7);
  b.machine = MachineModel::summit_gpus(spec.gpus);
  b.machine.node.gpu.memory_bytes = spec.gpu_mem;
  b.engine.plan.p = spec.p;
  b.fingerprint = fingerprint_problem(b.a_shape, b.b_shape, b.c_shape,
                                      b.machine, b.engine.plan);
  return b;
}

BlockSparseMatrix build_serve_a(const BuiltServeProblem& built,
                                std::uint64_t a_seed) {
  Rng rng(a_seed);
  return BlockSparseMatrix::random(built.a_shape, rng);
}

std::uint64_t bsm_content_checksum(const BlockSparseMatrix& m) {
  std::uint64_t h = fnv1a64("bstc-bsm-v2");
  const Shape& s = m.shape();
  for (std::size_t i = 0; i < s.tile_rows(); ++i) {
    for (std::size_t j = 0; j < s.tile_cols(); ++j) {
      if (!s.nonzero(i, j)) continue;
      const Tile& t = m.tile(i, j);
      h = fnv1a64_u64((static_cast<std::uint64_t>(i) << 32) | j, h);
      h = fnv1a64_u64(static_cast<std::uint64_t>(t.rows()), h);
      h = fnv1a64_u64(static_cast<std::uint64_t>(t.cols()), h);
      h = hash64(t.data(), t.bytes(), h);
    }
  }
  return h;
}

ServiceStatus serve_dispatch(ServeInterface& service,
                             const ServeRequest& request,
                             ServeOutcome& outcome) {
  switch (request.kind) {
    case ServeRequestKind::kContract:
      return service.Contract(request, outcome);
    case ServeRequestKind::kSessionIterate:
      return service.SessionIterate(request, outcome);
    case ServeRequestKind::kSessionClose:
      return service.SessionClose(request, outcome);
    case ServeRequestKind::kPlanExplain:
      return service.PlanExplain(request, outcome);
    case ServeRequestKind::kProgramRun:
      return service.ProgramRun(request, outcome);
  }
  outcome.error = "unknown request kind";
  return ServiceStatus::kInvalidRequest;
}

}  // namespace bstc
