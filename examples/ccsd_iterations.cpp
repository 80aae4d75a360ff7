/// \file ccsd_iterations.cpp
/// The contraction in its application context: coupled-cluster amplitude
/// equations are solved by refining T "iteratively (in typically 10-20
/// iterations) to make tensor R vanish" (paper §2), with V fixed across
/// iterations. This example runs that loop with a mock (but contractive)
/// amplitude equation
///
///     R(T) = B0 + T * V,   T <- T - R(T),
///
/// where V = I + eps*noise is generated on demand (and, being fixed,
/// regenerated identically every iteration). The residual norm must drop
/// geometrically; every iteration runs the full distributed engine.

#include <cstdio>
#include <memory>

#include "bsm/block_sparse_matrix.hpp"
#include "core/engine.hpp"
#include "plan/builder.hpp"
#include "shape/shape_algebra.hpp"
#include "support/format.hpp"

using namespace bstc;

int main() {
  Rng rng(99);
  const Tiling row_tiling = Tiling::random_uniform(48, 8, 16, rng);
  const Tiling ao_tiling = Tiling::random_uniform(120, 8, 16, rng);

  // Banded block-sparse V (diagonal tiles present for the identity part).
  Shape v_shape(ao_tiling, ao_tiling);
  for (std::size_t r = 0; r < v_shape.tile_rows(); ++r) {
    for (std::size_t c = 0; c < v_shape.tile_cols(); ++c) {
      const std::size_t diff = r > c ? r - c : c - r;
      if (diff <= 2) v_shape.set(r, c);
    }
  }
  // V = I + eps*noise, generated on demand; eps keeps the iteration
  // contractive.
  const double eps = 0.4 / static_cast<double>(ao_tiling.extent());
  const Tiling ao_copy = ao_tiling;
  const TileGenerator v_gen = [ao_copy, eps](std::size_t r, std::size_t c) {
    Tile t(ao_copy.tile_extent(r), ao_copy.tile_extent(c));
    Rng tile_rng(r * 7919 + c + 1);
    t.fill_random(tile_rng);
    for (Index i = 0; i < t.rows(); ++i) {
      for (Index j = 0; j < t.cols(); ++j) {
        t.at(i, j) *= eps;
      }
    }
    if (r == c) {
      for (Index i = 0; i < t.rows(); ++i) t.at(i, i) += 1.0;
    }
    return t;
  };

  // T starts at zero over a banded shape; B0 is the fixed inhomogeneity.
  Shape t_shape(row_tiling, ao_tiling);
  for (std::size_t r = 0; r < t_shape.tile_rows(); ++r) {
    for (std::size_t c = 0; c < t_shape.tile_cols(); ++c) {
      t_shape.set(r, c);  // keep T dense across the band closure
    }
  }
  BlockSparseMatrix t_amplitudes(t_shape);
  const BlockSparseMatrix b0 = BlockSparseMatrix::random(t_shape, rng);
  const Shape r_shape = contract_shape(t_shape, v_shape);

  MachineModel machine = MachineModel::summit(2);
  machine.node.gpus = 2;
  machine.gpu_total = 4;
  machine.node.gpu.memory_bytes = 3.0e5;
  EngineConfig cfg;
  cfg.plan.p = 2;

  // Inspect and lower once: V is fixed across iterations, so one plan and
  // its task graph serve the whole solve (the paper's inspector/executor
  // separation).
  const ExecutionPlan plan =
      build_plan(t_shape, v_shape, r_shape, machine, cfg.plan);
  const std::shared_ptr<const LoweredPlan> lowered =
      lower_plan(plan, t_shape, v_shape, r_shape, machine, cfg);

  std::printf("Mock CCSD amplitude iterations (T <- T - (B0 + T*V))\n");
  std::printf("T: %lld x %lld, V: %lld x %lld at %s fill\n\n",
              static_cast<long long>(t_amplitudes.rows()),
              static_cast<long long>(t_amplitudes.cols()),
              static_cast<long long>(ao_tiling.extent()),
              static_cast<long long>(ao_tiling.extent()),
              fmt_percent(v_shape.density()).c_str());

  double prev_norm = 1e300;
  std::size_t total_tasks = 0;
  for (int iter = 0; iter < 12; ++iter) {
    // R = B0 + T*V on the distributed engine (B0 enters as initial C).
    const EngineResult result =
        contract_lowered(plan, *lowered, t_amplitudes, v_shape, v_gen,
                         r_shape, &b0, machine, cfg);
    total_tasks += result.tasks_executed;
    const double norm = result.c.norm();
    std::printf("iter %2d: |R| = %.6e\n", iter, norm);
    if (iter > 0 && norm > prev_norm) {
      std::printf("residual grew — iteration not contractive!\n");
      return 1;
    }
    prev_norm = norm;
    if (norm < 1e-10) break;

    // T <- T - R (Jacobi step with unit denominators).
    axpy(-1.0, result.c, t_amplitudes);
  }
  std::printf("\nconverged; %zu runtime tasks executed across iterations\n",
              total_tasks);
  return prev_norm < 1e-6 ? 0 : 1;
}
