/// google-benchmark micro-benchmarks for the library's hot paths: the
/// CPU GEMM kernel, shape algebra (the inspector's dominant cost), the
/// three inspector phases, plan lowering, the scheduler's per-run and
/// per-task costs, the bulk-byte hash and the large-tile storage cycle.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "chem/abcd.hpp"
#include "core/engine.hpp"
#include "plan/builder.hpp"
#include "plan/column_assignment.hpp"
#include "runtime/compute_pool.hpp"
#include "runtime/scheduler.hpp"
#include "service/fingerprint.hpp"
#include "service/serve_api.hpp"
#include "shape/shape_algebra.hpp"
#include "support/hash.hpp"
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

/// Runs nothing: the scheduler's own cost per task and per run.
struct NoopDispatch final : TaskDispatch {
  void run(const TaskNode&) override {}
  void name(const TaskNode&, std::string& out) const override { out += "t"; }
};

void BM_SchedulerThroughput(benchmark::State& state) {
  // Tasks/second of the unrolled-DAG scheduler on an embarrassingly
  // parallel graph (runtime overhead floor). The graph is built and
  // sealed once and replayed, as the engine replays a cached lowering.
  const auto n = static_cast<std::size_t>(state.range(0));
  TaskGraph graph;
  for (std::size_t t = 0; t < n; ++t) {
    graph.add_task(static_cast<std::uint32_t>(t % 2));
  }
  graph.seal();
  NoopDispatch dispatch;
  for (auto _ : state) run_graph(graph, 2, dispatch);
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SchedulerThroughput)->Arg(1000)->Arg(10000)->UseRealTime();

void BM_RunGraphFixed(benchmark::State& state) {
  // The fixed cost of one run: a 1-task graph on 3 queues (serve-mix's
  // queue count is 2-3) — waking the lanes, one task, every lane leaving.
  TaskGraph graph;
  graph.add_task(0);
  graph.seal();
  NoopDispatch dispatch;
  for (auto _ : state) run_graph(graph, 3, dispatch);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunGraphFixed)->UseRealTime();

/// A problem and its plan, lowered by BM_LowerPlan.
struct PlannedProblem {
  Shape a, b, c;
  MachineModel machine;
  ExecutionPlan plan;
};

PlannedProblem planned_problem(int which) {
  PlannedProblem p;
  if (which == 0) {
    // serve-mix's second hot spec: m 80, k = n 400, density 0.4, tiles
    // 8-24, one device with 1e6 B.
    ServeProblemSpec spec;
    spec.m = 80;
    spec.k = spec.n = 400;
    spec.seed = 1001;
    const BuiltServeProblem built = build_serve_problem(spec);
    p.a = built.a_shape;
    p.b = built.b_shape;
    p.c = built.c_shape;
    p.machine = built.machine;
  } else {
    // abcd-fine: C10H22 ABCD, 3 occupied / 10 AO clusters, 2 devices of
    // 1e7 B (7,594 tasks).
    AbcdConfig cfg;
    cfg.occ_clusters = 3;
    cfg.ao_clusters = 10;
    cfg.symmetric_pairs = true;
    const AbcdProblem abcd = build_abcd(
        OrbitalSystem::build(Molecule::alkane(10), BasisSet::kSto3g), cfg);
    p.a = abcd.t;
    p.b = abcd.v;
    p.c = abcd.r;
    p.machine = MachineModel::summit_gpus(2);
    p.machine.node.gpu.memory_bytes = 1e7;
  }
  p.plan = build_plan(p.a, p.b, p.c, p.machine, PlanConfig{});
  return p;
}

void BM_LowerPlan(benchmark::State& state) {
  // Plan -> sealed task graph + plan stats: paid once per cached plan
  // (and on every one-shot contract()).
  const PlannedProblem p = planned_problem(static_cast<int>(state.range(0)));
  std::size_t tasks = 0;
  for (auto _ : state) {
    const auto lowered = lower_plan(p.plan, p.a, p.b, p.c, p.machine, {});
    tasks = lowered->graph.size();
  }
  state.counters["tasks"] = static_cast<double>(tasks);
}
BENCHMARK(BM_LowerPlan)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

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

/// Batch shapes for BM_GemmBatchSplit. 0, 1, 2: abcd-fine's skinny
/// shared-B group (83x52 . 52x52, 0.45 Mflop per item) with 6, 3 and 2
/// items; 3: an abcd-coarse-like group of 3 unequal A tiles against a
/// 324x324 B (102 Mflop).
struct SplitBatch {
  std::vector<Tile> a, c;
  Tile b;
  std::vector<GemmBatchItem> items;
};

SplitBatch make_split_batch(std::int64_t shape) {
  Rng rng(19);
  SplitBatch s;
  std::vector<Index> ms;
  Index k = 52;
  if (shape == 3) {
    ms = {150, 165, 181};
    k = 324;
  } else {
    ms.assign(shape == 0 ? 6 : shape == 1 ? 3 : 2, 83);
  }
  s.b = Tile(k, k);
  s.b.fill_random(rng);
  for (const Index m : ms) {
    s.a.emplace_back(m, k);
    s.a.back().fill_random(rng);
    s.c.emplace_back(m, k);
  }
  for (std::size_t q = 0; q < ms.size(); ++q) {
    s.items.push_back({&s.a[q], &s.c[q]});
  }
  return s;
}

void BM_GemmBatchSplit(benchmark::State& state) {
  // One shared-B batch run single-thread (mode 0, gemm_batch_with), split
  // into `members` NR-aligned column panels (mode 1) or into `members`
  // item ranges of near-equal item count (mode 2) on a pool of `members`.
  // The split grains in tile/gemm.cpp are sized against these rates.
  const SplitBatch s = make_split_batch(state.range(0));
  const std::int64_t mode = state.range(1);
  const auto members = static_cast<unsigned>(state.range(2));
  const MicroKernel& mk = select_batch_microkernel(s.items, s.b);
  ComputePool pool(members);
  GemmBatchLayout layout;
  layout.units = members;
  if (mode == 2) {
    layout.cut = GemmBatchLayout::Cut::kItems;
    const std::size_t n = s.items.size();
    const std::size_t units = std::min<std::size_t>(members, n);
    layout.units = static_cast<Index>(units);
    for (std::size_t u = 0; u <= units; ++u) {
      layout.item_begin.push_back(u * n / units);
    }
  }
  double flops = 0.0;
  for (const GemmBatchItem& item : s.items) flops += gemm_flops(*item.a, s.b);
  for (auto _ : state) {
    if (mode == 0) {
      gemm_batch_with(mk, 1.0, s.items, s.b, 1.0);
    } else {
      gemm_batch_split(pool, layout, mk, 1.0, s.items, s.b, 1.0);
    }
    benchmark::DoNotOptimize(s.c.front().data());
    benchmark::ClobberMemory();
  }
  state.counters["flop/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmBatchSplit)
    ->ArgNames({"shape", "mode", "members"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (std::int64_t shape = 0; shape < 4; ++shape) {
        b->Args({shape, 0, 1});
        for (std::int64_t mode = 1; mode <= 2; ++mode) {
          for (std::int64_t members = 1; members <= 3; ++members) {
            b->Args({shape, mode, members});
          }
        }
      }
    })
    ->UseRealTime();

/// Bulk-byte hashing at 4 KiB, 64 KiB and 1 MiB: XXH64 (hash64, the
/// checksum of wire frames, served C digests, shm payloads and the tune
/// cache) next to byte-serial FNV-1a (fnv1a64, kept for short identity
/// keys), both reported in bytes/s.
std::vector<char> hash_input(std::size_t bytes) {
  Rng rng(5);
  std::vector<char> buf(bytes);
  for (char& ch : buf) ch = static_cast<char>(rng.uniform_int(0, 255));
  return buf;
}

void BM_Hash64(benchmark::State& state) {
  const std::vector<char> buf =
      hash_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash64(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Hash64)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_Fnv1aBytes(benchmark::State& state) {
  const std::vector<char> buf =
      hash_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fnv1a64(std::string_view(buf.data(), buf.size())));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fnv1aBytes)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

/// A large tile's storage round trip: construct (zero-filled), fill and
/// destroy a 324x324 tile (820 KiB, abcd-coarse's B tile shape), in turn
/// on the benchmark thread and on a second thread, as pool helpers
/// generate B tiles that device lanes free. `tile_time` is per tile;
/// `fresh_maps` counts the tiles that made a new mapping instead of
/// reusing a cached one, per tile.
void BM_TileStorageCycle(benchmark::State& state) {
  constexpr Index kExtent = 324;
  std::atomic<int> turn{0};  // 1: the second thread's tile, -1: stop
  std::thread other([&turn] {
    while (true) {
      int t;
      while ((t = turn.load(std::memory_order_acquire)) == 0) {
      }
      if (t < 0) return;
      Tile tile(kExtent, kExtent);
      tile.fill(1.0);
      benchmark::DoNotOptimize(tile.data());
      turn.store(0, std::memory_order_release);
    }
  });
  const TileStorageStats before = tile_storage_stats();
  for (auto _ : state) {
    {
      Tile tile(kExtent, kExtent);
      tile.fill(1.0);
      benchmark::DoNotOptimize(tile.data());
    }
    turn.store(1, std::memory_order_release);
    while (turn.load(std::memory_order_acquire) != 0) {
    }
  }
  turn.store(-1, std::memory_order_release);
  other.join();
  const double tiles = 2.0 * static_cast<double>(state.iterations());
  state.SetItemsProcessed(2 * state.iterations());
  state.counters["fresh_maps"] = static_cast<double>(
      tile_storage_stats().fresh_maps - before.fresh_maps) / tiles;
  state.counters["tile_time"] = benchmark::Counter(
      tiles, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TileStorageCycle)->UseRealTime();

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
