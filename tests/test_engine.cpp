/// Integration tests: the distributed executor must produce the exact
/// product, respect device-memory budgets, generate B at most once per
/// node, and match the analytic communication/plan statistics.

#include <gtest/gtest.h>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <tuple>

#include "bsm/block_sparse_matrix.hpp"
#include "core/engine.hpp"
#include "obs/obs.hpp"
#include "plan/builder.hpp"
#include "plan/serialize.hpp"
#include "runtime/compute_pool.hpp"
#include "service/contraction_service.hpp"
#include "shape/shape_algebra.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

/// Builds a random contraction problem and runs the engine against the
/// reference product.
struct EngineHarness {
  EngineHarness(Index m, Index k, Index n, double da, double db,
                std::uint64_t seed, Index tile_lo = 8, Index tile_hi = 24)
      : rng(seed),
        mt(Tiling::random_uniform(m, tile_lo, tile_hi, rng)),
        kt(Tiling::random_uniform(k, tile_lo, tile_hi, rng)),
        nt(Tiling::random_uniform(n, tile_lo, tile_hi, rng)),
        a(BlockSparseMatrix::random(Shape::random(mt, kt, da, rng), rng)),
        b_shape(Shape::random(kt, nt, db, rng)),
        b_gen(random_tile_generator(b_shape, seed * 31 + 7)),
        c_shape(contract_shape(a.shape(), b_shape)) {}

  BlockSparseMatrix reference() const {
    BlockSparseMatrix b(b_shape);
    for (std::size_t r = 0; r < b_shape.tile_rows(); ++r) {
      for (std::size_t c = 0; c < b_shape.tile_cols(); ++c) {
        if (b_shape.nonzero(r, c)) b.tile(r, c) = b_gen(r, c);
      }
    }
    BlockSparseMatrix c(c_shape);
    multiply_reference(a, b, c);
    return c;
  }

  Rng rng;
  Tiling mt, kt, nt;
  BlockSparseMatrix a;
  Shape b_shape;
  TileGenerator b_gen;
  Shape c_shape;
};

TEST(Engine, SingleNodeExactProduct) {
  EngineHarness h(60, 200, 200, 0.6, 0.5, 11);
  MachineModel machine = MachineModel::summit_gpus(2);
  machine.node.gpu.memory_bytes = 1.0e6;
  EngineConfig cfg;
  const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                       nullptr, machine, cfg);
  const BlockSparseMatrix expected = h.reference();
  EXPECT_LT(result.c.max_abs_diff(expected), 1e-10);
  EXPECT_EQ(result.b_max_generations, 1u);
  EXPECT_DOUBLE_EQ(result.a_network_bytes, 0.0);  // single node
}

TEST(Engine, MultiNodeGridsProduceExactProduct) {
  EngineHarness h(80, 240, 240, 0.5, 0.4, 13);
  const BlockSparseMatrix expected = h.reference();
  for (const auto& [nodes, p] :
       std::vector<std::pair<int, int>>{{2, 1}, {2, 2}, {4, 2}, {6, 3}}) {
    MachineModel machine = MachineModel::summit(nodes);
    machine.gpu_total = nodes * 2;
    machine.node.gpus = 2;
    machine.node.gpu.memory_bytes = 1.0e6;
    EngineConfig cfg;
    cfg.plan.p = p;
    const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                         nullptr, machine, cfg);
    EXPECT_LT(result.c.max_abs_diff(expected), 1e-10)
        << nodes << " nodes, p=" << p;
    EXPECT_EQ(result.b_max_generations, 1u);
  }
}

TEST(Engine, DeviceBudgetsNeverExceeded) {
  EngineHarness h(60, 300, 300, 0.7, 0.6, 17);
  MachineModel machine = MachineModel::summit_gpus(3);
  machine.node.gpu.memory_bytes = 4.0e5;  // tight: many blocks and chunks
  EngineConfig cfg;
  const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                       nullptr, machine, cfg);
  // DeviceMemory would have thrown on overflow; additionally the peak must
  // respect the capacity.
  for (const std::size_t peak : result.device_peak_bytes) {
    EXPECT_LE(peak, static_cast<std::size_t>(machine.node.gpu.memory_bytes));
  }
  EXPECT_LT(result.c.max_abs_diff(h.reference()), 1e-10);
  EXPECT_GT(result.plan_stats.chunks, result.plan_stats.blocks);
}

TEST(Engine, AccumulatesIntoInitialC) {
  EngineHarness h(40, 120, 120, 0.8, 0.8, 19);
  // c_init random on the closure shape.
  Rng rng(23);
  const BlockSparseMatrix c_init = BlockSparseMatrix::random(h.c_shape, rng);
  MachineModel machine = MachineModel::summit_gpus(1);
  machine.node.gpu.memory_bytes = 1.0e6;
  EngineConfig cfg;
  const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                       &c_init, machine, cfg);
  BlockSparseMatrix expected = h.reference();
  for (std::size_t i = 0; i < h.c_shape.tile_rows(); ++i) {
    for (std::size_t j = 0; j < h.c_shape.tile_cols(); ++j) {
      if (h.c_shape.nonzero(i, j)) {
        expected.tile(i, j).axpy(1.0, c_init.tile(i, j));
      }
    }
  }
  EXPECT_LT(result.c.max_abs_diff(expected), 1e-10);
}

TEST(Engine, CommunicationMatchesPlanStats) {
  EngineHarness h(80, 200, 200, 0.5, 0.5, 29);
  MachineModel machine = MachineModel::summit(4);
  machine.node.gpus = 2;
  machine.gpu_total = 8;
  machine.node.gpu.memory_bytes = 1.0e6;
  EngineConfig cfg;
  cfg.plan.p = 2;
  const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                       nullptr, machine, cfg);
  EXPECT_NEAR(result.a_network_bytes, result.plan_stats.a_network_bytes,
              1e-6);
  EXPECT_NEAR(result.c_network_bytes, result.plan_stats.c_network_bytes,
              1e-6);
  EXPECT_LT(result.c.max_abs_diff(h.reference()), 1e-10);
}

TEST(Engine, StationaryBNeverCrossesNodes) {
  // B generation happens per node: total generated bytes across nodes can
  // exceed nnz(B) (replication across grid rows) but no B bytes are ever
  // recorded as network traffic — the recorded traffic equals A + C.
  EngineHarness h(60, 160, 160, 0.6, 0.6, 31);
  MachineModel machine = MachineModel::summit(2);
  machine.node.gpus = 1;
  machine.gpu_total = 2;
  machine.node.gpu.memory_bytes = 1.0e6;
  EngineConfig cfg;
  const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                       nullptr, machine, cfg);
  EXPECT_LT(result.c.max_abs_diff(h.reference()), 1e-10);
  // With one grid row (p=1) every node generates only its own columns:
  // the union is at most nnz(B) bytes.
  EXPECT_LE(result.plan_stats.b_generated_bytes, h.b_shape.nnz_bytes() + 1.0);
}

TEST(Engine, ScreenedCSkipsWork) {
  EngineHarness h(40, 120, 120, 1.0, 1.0, 37);
  // Screen: keep only even (i+j) C tiles.
  Shape screened(h.c_shape.row_tiling(), h.c_shape.col_tiling());
  for (std::size_t i = 0; i < h.c_shape.tile_rows(); ++i) {
    for (std::size_t j = 0; j < h.c_shape.tile_cols(); ++j) {
      if (h.c_shape.nonzero(i, j) && (i + j) % 2 == 0) screened.set(i, j);
    }
  }
  const ContractionStats full = contraction_stats(h.a.shape(), h.b_shape);
  const BlockSparseMatrix expected = h.reference();

  // Two inputs: the default inspector on one device, and first-fit
  // packing with no prefetch (prefetch_depth = 1) across two devices.
  MachineModel one_gpu = MachineModel::summit_gpus(1);
  one_gpu.node.gpu.memory_bytes = 1.0e6;
  MachineModel two_gpus = MachineModel::summit_gpus(2);
  two_gpus.node.gpu.memory_bytes = 5.0e5;
  EngineConfig first_fit;
  first_fit.plan.packing = PackingPolicy::kFirstFit;
  first_fit.plan.prefetch_depth = 1;
  for (const auto& [machine, cfg] :
       std::vector<std::pair<MachineModel, EngineConfig>>{
           {one_gpu, EngineConfig{}}, {two_gpus, first_fit}}) {
    const EngineResult result = contract(h.a, h.b_shape, h.b_gen, screened,
                                         nullptr, machine, cfg);
    EXPECT_LT(result.plan_stats.gemm_tasks, full.gemm_tasks);
    // Screened tiles match the reference restricted to the screen.
    for (std::size_t i = 0; i < screened.tile_rows(); ++i) {
      for (std::size_t j = 0; j < screened.tile_cols(); ++j) {
        if (screened.nonzero(i, j)) {
          EXPECT_LT(result.c.tile(i, j).max_abs_diff(expected.tile(i, j)),
                    1e-10)
              << machine.node.gpus << " device(s)";
        }
      }
    }
  }
}

TEST(Engine, InspectOnceExecuteMany) {
  // The paper's production loop: the inspector runs once (its plan can
  // even round-trip through serialization) and the executor replays it
  // every CCSD iteration.
  EngineHarness h(48, 150, 150, 0.6, 0.5, 59);
  MachineModel machine = MachineModel::summit_gpus(2);
  machine.node.gpu.memory_bytes = 1.0e6;
  EngineConfig cfg;
  const ExecutionPlan plan =
      build_plan(h.a.shape(), h.b_shape, h.c_shape, machine, cfg.plan);
  const ExecutionPlan replayed = deserialize_plan(serialize_plan(plan));

  const BlockSparseMatrix expected = h.reference();
  for (int iteration = 0; iteration < 3; ++iteration) {
    const EngineResult result =
        contract_with_plan(replayed, h.a, h.b_shape, h.b_gen, h.c_shape,
                           nullptr, machine, cfg);
    EXPECT_LT(result.c.max_abs_diff(expected), 1e-10)
        << "iteration " << iteration;
  }
}

TEST(Engine, SessionStagingLeavesNoPins) {
  // Session mode stages persistent B tiles without pinning them, so a
  // completed call leaves nothing pinned: evicting every cache entry
  // returns the host B footprint to zero. Checked on the default plan
  // and on a first-fit plan with several blocks per device.
  EngineHarness h(48, 200, 200, 0.7, 0.6, 61);
  const BlockSparseMatrix expected = h.reference();
  MachineModel machine = MachineModel::summit_gpus(2);
  EngineConfig worst_fit;
  EngineConfig first_fit;
  first_fit.plan.packing = PackingPolicy::kFirstFit;
  for (const auto& [memory, cfg_in] :
       std::vector<std::pair<double, EngineConfig>>{{1.0e6, worst_fit},
                                                    {1.0e5, first_fit}}) {
    machine.node.gpu.memory_bytes = memory;
    const ExecutionPlan plan =
        build_plan(h.a.shape(), h.b_shape, h.c_shape, machine, cfg_in.plan);
    ASSERT_EQ(plan.nodes.size(), 1u);
    std::map<std::uint32_t, int> blocks_per_gpu;
    for (const BlockPlan& block : plan.nodes[0].blocks) {
      ++blocks_per_gpu[block.gpu];
    }
    ASSERT_EQ(blocks_per_gpu.size(), 2u);
    if (cfg_in.plan.packing == PackingPolicy::kFirstFit) {
      ASSERT_GT(blocks_per_gpu[0], 1);
      ASSERT_GT(blocks_per_gpu[1], 1);
    }

    std::vector<std::unique_ptr<TileSource>> b_cache;
    EngineConfig cfg = cfg_in;
    cfg.b_cache = &b_cache;
    for (int iteration = 0; iteration < 2; ++iteration) {
      const EngineResult result =
          contract_with_plan(plan, h.a, h.b_shape, h.b_gen, h.c_shape,
                             nullptr, machine, cfg);
      EXPECT_LT(result.c.max_abs_diff(expected), 1e-10);
      EXPECT_EQ(result.b_max_generations, 1u);
    }
    ASSERT_EQ(b_cache.size(), 1u);
    EXPECT_GT(b_cache[0]->cached_bytes(), 0u);
    b_cache[0]->evict_unpinned();
    EXPECT_EQ(b_cache[0]->cached_bytes(), 0u)
        << "pinned B tiles left behind, memory " << memory;
  }
}

TEST(Engine, GenerationFollowsConsumptionOrder) {
  // The CPU queue generates B in the order the devices consume it: the
  // first piece of the second device's first block comes before the
  // second piece of the first device's, so device 1 does not idle while
  // all of device 0's block is generated.
  EngineHarness h(48, 200, 200, 0.7, 0.6, 67);
  MachineModel machine = MachineModel::summit_gpus(2);
  machine.node.gpu.memory_bytes = 1.0e6;
  const EngineConfig cfg;
  const ExecutionPlan plan =
      build_plan(h.a.shape(), h.b_shape, h.c_shape, machine, cfg.plan);
  ASSERT_EQ(plan.nodes.size(), 1u);
  const std::vector<BlockPlan>& blocks = plan.nodes[0].blocks;
  ASSERT_GE(blocks.size(), 2u);
  ASSERT_EQ(blocks[0].gpu, 0u);
  ASSERT_EQ(blocks[1].gpu, 1u);
  ASSERT_GE(blocks[0].pieces.size(), 2u);
  ASSERT_GE(blocks[1].pieces.size(), 2u);

  obs::Registry& reg = obs::Registry::instance();
  reg.clear();
  reg.set_enabled(true);
  const EngineResult result = contract_with_plan(
      plan, h.a, h.b_shape, h.b_gen, h.c_shape, nullptr, machine, cfg);
  const std::vector<obs::Span> spans = reg.spans();
  reg.clear();
  reg.set_enabled(false);
  EXPECT_LT(result.c.max_abs_diff(h.reference()), 1e-10);

  std::map<std::string, double> cpu_start;
  for (const obs::Span& s : spans) {
    if (s.category == obs::Category::kTask && s.lane == 0) {
      cpu_start[s.name] = s.start_s;
    }
  }
  ASSERT_EQ(cpu_start.count("gen(n0,b1,p0)"), 1u);
  ASSERT_EQ(cpu_start.count("gen(n0,b0,p1)"), 1u);
  EXPECT_LT(cpu_start["gen(n0,b1,p0)"], cpu_start["gen(n0,b0,p1)"]);
}

/// A problem whose gemmbatches clear the column-split grain and whose
/// pieces clear the generation fan-out grain, on 2 devices.
EngineHarness pool_sized_problem() {
  return EngineHarness(400, 1024, 384, 1.0, 0.6, 71, 128, 192);
}

MachineModel pool_sized_machine() {
  MachineModel machine = MachineModel::summit_gpus(2);
  machine.node.gpu.memory_bytes = 8.0e6;
  return machine;
}

std::uint64_t counter(const char* name) {
  const auto counters = obs::Registry::instance().counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// Tiles of `x` and `y` that differ in any bit (same shape assumed).
int bitwise_mismatches(const BlockSparseMatrix& x, const BlockSparseMatrix& y,
                       const Shape& shape) {
  int mismatches = 0;
  for (std::size_t i = 0; i < shape.tile_rows(); ++i) {
    for (std::size_t j = 0; j < shape.tile_cols(); ++j) {
      if (!shape.nonzero(i, j)) continue;
      const Tile& a = x.tile(i, j);
      const Tile& b = y.tile(i, j);
      if (a.size() != b.size() ||
          std::memcmp(a.data(), b.data(), a.bytes()) != 0) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

TEST(Engine, PoolSplitsBatchesAndGenerationExactly) {
  // The lanes hand column panels and B-tile misses to the process pool;
  // the product stays exact, B is generated once, budgets hold.
  EngineHarness h = pool_sized_problem();
  const MachineModel machine = pool_sized_machine();
  const std::uint64_t fanouts = counter("bstc_pool_fanouts_total");
  const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                       nullptr, machine, EngineConfig{});
  EXPECT_LT(result.c.max_abs_diff(h.reference()), 1e-9);
  EXPECT_EQ(result.b_max_generations, 1u);
  for (const std::size_t peak : result.device_peak_bytes) {
    EXPECT_LE(peak, static_cast<std::size_t>(machine.node.gpu.memory_bytes));
  }
  if (ComputePool::process(1).size() > 1) {
    EXPECT_GT(counter("bstc_pool_fanouts_total"), fanouts);
  }
}

/// Runs `body` in a forked child pinned to one CPU (so its process pool
/// has no helpers) and returns the child's exit code: body's result, 16
/// when it threw, or 10/11 when pinning failed.
int exit_code_on_one_cpu(const std::function<int()>& body) {
  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    int rc = 0;
    try {
      cpu_set_t set;
      CPU_ZERO(&set);
      if (sched_getaffinity(0, sizeof(set), &set) != 0) _exit(10);
      int first = 0;
      while (!CPU_ISSET(first, &set)) ++first;
      CPU_ZERO(&set);
      CPU_SET(first, &set);
      if (sched_setaffinity(0, sizeof(set), &set) != 0) _exit(11);
      rc = body();
    } catch (...) {
      rc = 16;
    }
    _exit(rc);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(EnginePoolFork, OneCpuChildMatchesFullPoolBitwise) {
  // C must not depend on the pool size: a child pinned to one CPU (its
  // process pool has no helpers) reproduces the parent's full-pool C bit
  // for bit. fork() keeps this test out of the TSan job.
  if (process_pool_members(1) < 2) GTEST_SKIP() << "needs 3+ CPUs";
  EngineHarness h = pool_sized_problem();
  const MachineModel machine = pool_sized_machine();
  const std::uint64_t fanouts = counter("bstc_pool_fanouts_total");
  const EngineResult full = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                     nullptr, machine, EngineConfig{});
  ASSERT_GT(ComputePool::process(1).size(), 1u);
  ASSERT_GT(counter("bstc_pool_fanouts_total"), fanouts);

  const int rc = exit_code_on_one_cpu([&] {
    const EngineResult one = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                      nullptr, machine, EngineConfig{});
    if (ComputePool::process(1).size() != 1) return 12;
    if (bitwise_mismatches(one.c, full.c, h.c_shape) != 0) return 13;
    if (one.b_max_generations > 1) return 14;
    for (const std::size_t peak : one.device_peak_bytes) {
      if (peak > static_cast<std::size_t>(machine.node.gpu.memory_bytes)) {
        return 15;
      }
    }
    return 0;
  });
  EXPECT_EQ(rc, 0)
      << "12: child pool has helpers, 13: C differs bitwise, 14: B "
         "regenerated, 15: device budget exceeded, 16: exception";
  EXPECT_LE(full.b_max_generations, 1u);
}

/// A fine tiling (tiles of 48-64) whose gemmbatches hold several small A
/// tiles: each batch is a few Mflop, below the column-panel grain but
/// above two item grains. B tiles average ~3k elements, below the
/// generation fan-out grain, so every pool fan-out here is an item split.
EngineHarness fine_tiled_problem() {
  return EngineHarness(512, 384, 384, 1.0, 0.6, 73, 48, 64);
}

SessionConfig fine_tiled_session(const EngineHarness& h) {
  SessionConfig cfg;
  cfg.a_shape = h.a.shape();
  cfg.b_shape = h.b_shape;
  cfg.c_shape = h.c_shape;
  cfg.b_generator = h.b_gen;
  cfg.machine = MachineModel::summit_gpus(2);
  cfg.machine.node.gpu.memory_bytes = 4.0e6;
  return cfg;
}

/// Two session iterations (the second on a cached B) of `h` with a fresh
/// A; returns the second one's C.
BlockSparseMatrix iterate_fine_session(const EngineHarness& h,
                                       const BlockSparseMatrix& a_iter) {
  ContractionService service;
  std::uint64_t id = 0;
  BSTC_REQUIRE(service.open_session(fine_tiled_session(h), id) ==
                   ServiceStatus::kOk,
               "open_session failed");
  ContractionResponse resp;
  for (const BlockSparseMatrix* a : {&h.a, &a_iter}) {
    BSTC_REQUIRE(service.iterate(id, *a, nullptr, resp) == ServiceStatus::kOk,
                 "iterate failed: " + resp.error);
  }
  return std::move(resp.c);
}

TEST(Engine, FineTilingSessionSplitsBatchesByItems) {
  // At a fine tiling the lanes hand item ranges of their gemmbatches to
  // the pool, and the session's C stays exact.
  const EngineHarness h = fine_tiled_problem();
  Rng rng(5);
  const BlockSparseMatrix a_iter = BlockSparseMatrix::random(h.a.shape(), rng);
  BlockSparseMatrix b(h.b_shape);
  for (std::size_t r = 0; r < h.b_shape.tile_rows(); ++r) {
    for (std::size_t c = 0; c < h.b_shape.tile_cols(); ++c) {
      if (h.b_shape.nonzero(r, c)) b.tile(r, c) = h.b_gen(r, c);
    }
  }
  BlockSparseMatrix expected(h.c_shape);
  multiply_reference(a_iter, b, expected);
  const std::uint64_t fanouts = counter("bstc_pool_fanouts_total");
  const BlockSparseMatrix c = iterate_fine_session(h, a_iter);
  EXPECT_LT(c.max_abs_diff(expected), 1e-10);
  if (ComputePool::process(1).size() > 1) {
    EXPECT_GT(counter("bstc_pool_fanouts_total"), fanouts);
  }
}

TEST(EnginePoolFork, FineTilingSessionOneCpuChildMatchesBitwise) {
  // The item split is as invisible in C as the column split: a session
  // iteration at a fine tiling in a one-CPU child equals the full pool's.
  if (process_pool_members(1) < 2) GTEST_SKIP() << "needs 3+ CPUs";
  const EngineHarness h = fine_tiled_problem();
  Rng rng(5);
  const BlockSparseMatrix a_iter = BlockSparseMatrix::random(h.a.shape(), rng);
  const std::uint64_t fanouts = counter("bstc_pool_fanouts_total");
  // The service is gone before the fork.
  const BlockSparseMatrix full = iterate_fine_session(h, a_iter);
  ASSERT_GT(ComputePool::process(1).size(), 1u);
  ASSERT_GT(counter("bstc_pool_fanouts_total"), fanouts);

  const int rc = exit_code_on_one_cpu([&] {
    const BlockSparseMatrix one = iterate_fine_session(h, a_iter);
    if (ComputePool::process(1).size() != 1) return 12;
    return bitwise_mismatches(one, full, h.c_shape) != 0 ? 13 : 0;
  });
  EXPECT_EQ(rc, 0) << "12: child pool has helpers, 13: C differs bitwise, "
                      "16: exception";
}

TEST(LaneTeamFork, ChildContractsAfterParentUse) {
  // The parent's runs leave its lane teams parked; a forked child has
  // none of those threads, so it must start its own lanes instead of
  // posting to the parent's (it would wait forever), and reproduce the
  // parent's C bit for bit. fork() keeps this test out of the TSan job.
  const EngineHarness h(48, 200, 200, 0.7, 0.6, 79);
  MachineModel machine = MachineModel::summit_gpus(2);
  machine.node.gpu.memory_bytes = 1.0e6;
  const EngineResult parent = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                       nullptr, machine, EngineConfig{});
  ASSERT_GT(counter("bstc_lanes_started_total"), 0u);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    alarm(60);  // a child stuck on inherited lanes dies instead of hanging
    int rc = 0;
    try {
      const std::uint64_t started = counter("bstc_lanes_started_total");
      for (int run = 0; run < 2 && rc == 0; ++run) {
        const EngineResult child =
            contract(h.a, h.b_shape, h.b_gen, h.c_shape, nullptr, machine,
                     EngineConfig{});
        if (bitwise_mismatches(child.c, parent.c, h.c_shape) != 0) rc = 13;
      }
      if (rc == 0 && counter("bstc_lanes_started_total") == started) rc = 12;
    } catch (...) {
      rc = 16;
    }
    _exit(rc);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed (signal "
                                 << WTERMSIG(status) << ")";
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "12: child started no lanes, 13: C differs bitwise, 16: exception";
}

/// Parameterized sweep over problem densities and grid shapes.
class EngineSweep
    : public ::testing::TestWithParam<std::tuple<double, double, int, int>> {};

TEST_P(EngineSweep, ExactForAllConfigurations) {
  const auto [da, db, nodes, p] = GetParam();
  EngineHarness h(48, 150, 150, da, db,
                  static_cast<std::uint64_t>(da * 100 + db * 10 + nodes + p));
  MachineModel machine = MachineModel::summit(nodes);
  machine.node.gpus = 2;
  machine.gpu_total = 2 * nodes;
  machine.node.gpu.memory_bytes = 5.0e5;
  EngineConfig cfg;
  cfg.plan.p = p;
  const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                       nullptr, machine, cfg);
  EXPECT_LT(result.c.max_abs_diff(h.reference()), 1e-10);
  EXPECT_EQ(result.b_max_generations, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineSweep,
    ::testing::Values(std::make_tuple(1.0, 1.0, 1, 1),
                      std::make_tuple(0.75, 0.5, 2, 1),
                      std::make_tuple(0.5, 0.25, 2, 2),
                      std::make_tuple(0.25, 0.1, 4, 2),
                      std::make_tuple(0.1, 0.1, 4, 4),
                      std::make_tuple(0.5, 0.5, 3, 3)));

}  // namespace
}  // namespace bstc
