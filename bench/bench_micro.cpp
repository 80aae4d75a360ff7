/// google-benchmark micro-benchmarks for the library's hot paths: the
/// CPU GEMM kernel, shape algebra (the inspector's dominant cost) and the
/// three inspector phases.

#include <benchmark/benchmark.h>

#include "plan/builder.hpp"
#include "plan/column_assignment.hpp"
#include "runtime/compute_pool.hpp"
#include "runtime/scheduler.hpp"
#include "shape/shape_algebra.hpp"
#include "tile/gemm.hpp"

namespace bstc {
namespace {

void BM_GemmKernel(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(7);
  Tile a(n, n), b(n, n), c(n, n);
  a.fill_random(rng);
  b.fill_random(rng);
  for (auto _ : state) {
    gemm(1.0, a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flop/s"] = benchmark::Counter(
      gemm_flops(a, b) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmKernel)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNaive(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(7);
  Tile a(n, n), b(n, n), c(n, n);
  a.fill_random(rng);
  b.fill_random(rng);
  for (auto _ : state) {
    gemm_naive(1.0, a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128);

struct ShapePair {
  Shape a, b;
};

ShapePair make_shapes(Index size, double density) {
  Rng rng(11);
  const Tiling mt = Tiling::random_uniform(size / 4, 512, 2048, rng);
  const Tiling kt = Tiling::random_uniform(size, 512, 2048, rng);
  const Tiling nt = Tiling::random_uniform(size, 512, 2048, rng);
  return {Shape::random(mt, kt, density, rng),
          Shape::random(kt, nt, density, rng)};
}

void BM_ContractShape(benchmark::State& state) {
  const ShapePair s =
      make_shapes(static_cast<Index>(state.range(0)), 0.25);
  for (auto _ : state) {
    const Shape c = contract_shape(s.a, s.b);
    benchmark::DoNotOptimize(c.nnz_tiles());
  }
}
BENCHMARK(BM_ContractShape)->Arg(48000)->Arg(192000);

void BM_ContractionStats(benchmark::State& state) {
  const ShapePair s =
      make_shapes(static_cast<Index>(state.range(0)), 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(contraction_stats(s.a, s.b).flops);
  }
}
BENCHMARK(BM_ContractionStats)->Arg(48000)->Arg(192000);

void BM_ColumnAssignment(benchmark::State& state) {
  const ShapePair s =
      make_shapes(static_cast<Index>(state.range(0)), 0.25);
  const std::vector<double> flops = column_flops(s.a, s.b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assign_columns_mirrored_cyclic(flops, 16).flops_of[0]);
  }
}
BENCHMARK(BM_ColumnAssignment)->Arg(48000)->Arg(192000);

void BM_SchedulerThroughput(benchmark::State& state) {
  // Tasks/second of the unrolled-DAG scheduler on an embarrassingly
  // parallel graph (runtime overhead floor).
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    TaskGraph graph;
    for (std::size_t t = 0; t < n; ++t) {
      graph.add_task("t", static_cast<std::uint32_t>(t % 2), [] {});
    }
    state.ResumeTiming();
    run_graph(graph, 2);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SchedulerThroughput)->Arg(1000)->Arg(10000);

void BM_PoolForkJoin(benchmark::State& state) {
  // One empty ComputePool::parallel_for round trip with one unit per
  // member: wake the helpers, claim, finish, wake the caller. The grain
  // constants of the gemmbatch column split (tile/gemm.cpp) and of the
  // B-generation fan-out (core/engine.cpp) are sized against this.
  const auto members = static_cast<unsigned>(state.range(0));
  ComputePool pool(members);
  std::vector<std::size_t> touched(members, 0);
  const std::function<void(std::size_t)> unit = [&touched](std::size_t u) {
    ++touched[u];
  };
  for (auto _ : state) {
    pool.parallel_for(members, unit);
    benchmark::DoNotOptimize(touched.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolForkJoin)->DenseRange(1, 4)->UseRealTime();

void BM_FullInspector(benchmark::State& state) {
  const ShapePair s =
      make_shapes(static_cast<Index>(state.range(0)), 0.25);
  const Shape c = contract_shape(s.a, s.b);
  const MachineModel machine = MachineModel::summit(16);
  PlanConfig cfg;
  cfg.p = 2;
  for (auto _ : state) {
    const ExecutionPlan plan = build_plan(s.a, s.b, c, machine, cfg);
    benchmark::DoNotOptimize(plan.nodes.size());
  }
}
BENCHMARK(BM_FullInspector)->Arg(48000)->Arg(96000);

}  // namespace
}  // namespace bstc

BENCHMARK_MAIN();
