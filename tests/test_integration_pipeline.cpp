/// End-to-end randomized pipeline fuzzing: for many random problem/machine
/// configurations, the full stack (shapes -> inspector -> validation ->
/// real engine -> verification -> simulator) must hold its invariants.

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "plan/builder.hpp"
#include "plan/serialize.hpp"
#include "plan/stats.hpp"
#include "shape/shape_algebra.hpp"
#include "sim/simulator.hpp"

namespace bstc {
namespace {

class PipelineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PipelineFuzz, FullStackInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17);

  // Random problem.
  const Index m = 24 + static_cast<Index>(rng.uniform_index(80));
  const Index k = 60 + static_cast<Index>(rng.uniform_index(240));
  const Index n = 60 + static_cast<Index>(rng.uniform_index(240));
  const Index tile_lo = 4 + static_cast<Index>(rng.uniform_index(6));
  const Index tile_hi = tile_lo + 4 + static_cast<Index>(rng.uniform_index(16));
  const double da = rng.uniform(0.15, 1.0);
  const double db = rng.uniform(0.15, 1.0);
  const Tiling mt = Tiling::random_uniform(m, tile_lo, tile_hi, rng);
  const Tiling kt = Tiling::random_uniform(k, tile_lo, tile_hi, rng);
  const Tiling nt = Tiling::random_uniform(n, tile_lo, tile_hi, rng);
  const Shape sa = Shape::random(mt, kt, da, rng);
  const Shape sb = Shape::random(kt, nt, db, rng);
  const Shape sc = contract_shape(sa, sb);

  // Random machine.
  const int nodes = 1 + static_cast<int>(rng.uniform_index(4));
  MachineModel machine = MachineModel::summit(nodes);
  machine.node.gpus = 1 + static_cast<int>(rng.uniform_index(3));
  machine.gpu_total = nodes * machine.node.gpus;
  machine.node.gpu.memory_bytes = rng.uniform(1.5e5, 2.0e6);

  PlanConfig cfg;
  // Random valid p (divides or not — builder only needs p <= nodes).
  cfg.p = 1 + static_cast<int>(rng.uniform_index(
                  static_cast<std::uint64_t>(nodes)));
  cfg.prefetch_depth = 1 + static_cast<int>(rng.uniform_index(2));

  // Inspector output validates.
  const ExecutionPlan plan = build_plan(sa, sb, sc, machine, cfg);
  const auto violations = validate_plan(plan, sa, sb, sc);
  for (const auto& v : violations) ADD_FAILURE() << v;

  // Plan serialization round trip preserves statistics.
  const ExecutionPlan reloaded = deserialize_plan(serialize_plan(plan));
  EXPECT_EQ(compute_stats(reloaded, sa, sb, sc).gemm_tasks,
            compute_stats(plan, sa, sb, sc).gemm_tasks);

  // Real engine is exact.
  const BlockSparseMatrix a = BlockSparseMatrix::random(sa, rng);
  const TileGenerator b_gen =
      random_tile_generator(sb, static_cast<std::uint64_t>(GetParam()) + 99);
  EngineConfig ecfg;
  ecfg.plan = cfg;
  const EngineResult result =
      contract(a, sb, b_gen, sc, nullptr, machine, ecfg);
  BlockSparseMatrix b_full(sb);
  for (std::size_t r = 0; r < sb.tile_rows(); ++r) {
    for (std::size_t c = 0; c < sb.tile_cols(); ++c) {
      if (sb.nonzero(r, c)) b_full.tile(r, c) = b_gen(r, c);
    }
  }
  BlockSparseMatrix expected(sc);
  multiply_reference(a, b_full, expected);
  EXPECT_LT(result.c.max_abs_diff(expected), 1e-10);
  EXPECT_EQ(result.b_max_generations, 1u);
  for (const std::size_t peak : result.device_peak_bytes) {
    EXPECT_LE(peak, static_cast<std::size_t>(machine.node.gpu.memory_bytes));
  }

  // Simulator agrees with the shape algebra and respects bounds.
  const SimResult sim = simulate(plan, sa, sb, sc, machine);
  const ContractionStats st = contraction_stats(sa, sb, sc);
  EXPECT_NEAR(sim.total_flops, st.flops, 1e-6 * std::max(1.0, st.flops));
  EXPECT_GE(sim.makespan_s, st.flops / machine.aggregate_gpu_peak());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz, ::testing::Range(1, 13));

}  // namespace
}  // namespace bstc
