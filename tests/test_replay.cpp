/// Tests for plan lowering and graph replay: a plan is lowered to its task
/// graph once and every later execution replays that graph, through the
/// engine (lower_plan / contract_lowered) and through the service (plan
/// cache entries and sessions hold the lowering). Every replay must give
/// C bit for bit equal to a fresh contract().

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "bsm/block_sparse_matrix.hpp"
#include "core/engine.hpp"
#include "obs/obs.hpp"
#include "plan/builder.hpp"
#include "service/contraction_service.hpp"
#include "shape/shape_algebra.hpp"

namespace bstc {
namespace {

struct Problem {
  Problem(Index m, Index k, Index n, double da, double db, std::uint64_t seed)
      : rng(seed),
        mt(Tiling::random_uniform(m, 8, 24, rng)),
        kt(Tiling::random_uniform(k, 8, 24, rng)),
        nt(Tiling::random_uniform(n, 8, 24, rng)),
        a(BlockSparseMatrix::random(Shape::random(mt, kt, da, rng), rng)),
        b_shape(Shape::random(kt, nt, db, rng)),
        b_gen(random_tile_generator(b_shape, seed * 31 + 7)),
        c_shape(contract_shape(a.shape(), b_shape)),
        machine(MachineModel::summit_gpus(2)) {
    machine.node.gpu.memory_bytes = 1.0e6;
  }

  EngineResult fresh(const BlockSparseMatrix& a_in,
                     const EngineConfig& cfg = {}) const {
    return contract(a_in, b_shape, b_gen, c_shape, nullptr, machine, cfg);
  }

  ContractionRequest request() const {
    ContractionRequest req;
    req.a = &a;
    req.b_shape = &b_shape;
    req.b_generator = b_gen;
    req.c_shape = &c_shape;
    req.machine = machine;
    return req;
  }

  SessionConfig session() const {
    SessionConfig cfg;
    cfg.a_shape = a.shape();
    cfg.b_shape = b_shape;
    cfg.c_shape = c_shape;
    cfg.b_generator = b_gen;
    cfg.machine = machine;
    return cfg;
  }

  Rng rng;
  Tiling mt, kt, nt;
  BlockSparseMatrix a;
  Shape b_shape;
  TileGenerator b_gen;
  Shape c_shape;
  MachineModel machine;
};

/// Whether x and y hold the same bits in every tile of `shape`.
bool bitwise_equal(const BlockSparseMatrix& x, const BlockSparseMatrix& y,
                   const Shape& shape) {
  for (std::size_t i = 0; i < shape.tile_rows(); ++i) {
    for (std::size_t j = 0; j < shape.tile_cols(); ++j) {
      if (!shape.nonzero(i, j)) continue;
      const Tile& a = x.tile(i, j);
      const Tile& b = y.tile(i, j);
      if (a.size() != b.size() ||
          std::memcmp(a.data(), b.data(), a.bytes()) != 0) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t lowerings() {
  const auto counters = obs::Registry::instance().counters();
  const auto it = counters.find("bstc_plan_lowerings_total");
  return it == counters.end() ? 0 : it->second;
}

TEST(Replay, OneLoweringRunsManyTimesBitwise) {
  const Problem p(48, 150, 150, 0.6, 0.5, 81);
  const EngineConfig cfg;
  const EngineResult expected = p.fresh(p.a);
  const ExecutionPlan plan =
      build_plan(p.a.shape(), p.b_shape, p.c_shape, p.machine, cfg.plan);
  const std::uint64_t before = lowerings();
  const std::shared_ptr<const LoweredPlan> lowered =
      lower_plan(plan, p.a.shape(), p.b_shape, p.c_shape, p.machine, cfg);
  EXPECT_EQ(lowerings(), before + 1);
  EXPECT_TRUE(lowered->graph.sealed());
  ASSERT_EQ(plan.nodes.size(), 1u);
  EXPECT_EQ(lowered->num_queues, 1u + static_cast<std::uint32_t>(
                                          plan.gpus_of_node[0]));
  for (const std::vector<int>& node : lowered->prefetch_depth) {
    for (const int depth : node) {
      EXPECT_GE(depth, 1);
      EXPECT_LE(depth, plan.config.prefetch_depth);
    }
  }
  for (int run = 0; run < 3; ++run) {
    const EngineResult result =
        contract_lowered(plan, *lowered, p.a, p.b_shape, p.b_gen, p.c_shape,
                         nullptr, p.machine, cfg);
    EXPECT_TRUE(bitwise_equal(result.c, expected.c, p.c_shape)) << run;
    EXPECT_EQ(result.tasks_executed, lowered->graph.size());
    EXPECT_EQ(result.tasks_executed, expected.tasks_executed);
    EXPECT_EQ(result.plan_stats.total_flops, expected.plan_stats.total_flops);
    EXPECT_LE(result.b_max_generations, 1u);
  }
  EXPECT_EQ(lowerings(), before + 1) << "replays lower nothing";
}

TEST(Replay, ASendsComeInFirstNeedOrder) {
  // 1x2 grid, one device per rank: a rank's chunk sequence is its blocks'
  // chunks in plan order. Each asend's tile is first needed at the
  // earliest position any consumer (not its home) loads it; the sends
  // follow that order (ties by tile), not tile order.
  Problem p(96, 240, 240, 0.7, 0.6, 17);
  MachineModel machine = MachineModel::summit(2);
  machine.node.gpus = 1;
  machine.gpu_total = 2;
  machine.node.gpu.memory_bytes = 1.0e5;
  const ExecutionPlan plan = build_plan(p.a.shape(), p.b_shape, p.c_shape,
                                        machine, PlanConfig{});
  ASSERT_EQ(plan.grid.q, 2);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> first_need;
  for (int n = 0; n < plan.grid.nodes(); ++n) {
    std::size_t position = 0;
    const NodePlan& node = plan.nodes[static_cast<std::size_t>(n)];
    for (const BlockPlan& block : node.blocks) {
      for (const Chunk& chunk : block.chunks) {
        for (const auto& tile : chunk.a_tiles) {
          if (plan.grid.home_of(tile.first, tile.second) == n) continue;
          const auto [it, fresh] = first_need.try_emplace(tile, position);
          if (!fresh) it->second = std::min(it->second, position);
        }
        ++position;
      }
    }
  }
  const auto lowered = lower_plan(plan, p.a.shape(), p.b_shape, p.c_shape,
                                  machine, EngineConfig{});
  const std::vector<LoweredPlan::ASend>& sends = lowered->a_sends;
  ASSERT_GT(sends.size(), 1u);
  std::set<std::size_t> positions;
  const auto key = [&](const LoweredPlan::ASend& send) {
    return std::make_tuple(first_need.at({send.i, send.k}), send.i, send.k);
  };
  for (std::size_t x = 1; x < sends.size(); ++x) {
    EXPECT_LT(key(sends[x - 1]), key(sends[x])) << x;
    positions.insert(std::get<0>(key(sends[x])));
  }
  EXPECT_GT(positions.size(), 1u) << "the problem needs several chunks";
  // The asend tasks are created in the same order.
  std::size_t next = 0;
  for (TaskId t = 0; t < lowered->graph.size(); ++t) {
    const TaskNode& task = lowered->graph.task(t);
    if (static_cast<TaskKind>(task.kind) != TaskKind::kASend) continue;
    EXPECT_EQ(task.index, next++);
  }
  EXPECT_EQ(next, sends.size());
}

TEST(Replay, SessionItersAndHotSubmitsAreBitwiseAndLowerOnce) {
  const Problem p(48, 200, 200, 0.7, 0.6, 83);
  const BlockSparseMatrix expected = p.fresh(p.a).c;
  ContractionService service;

  const std::uint64_t before = lowerings();
  std::uint64_t id = 0;
  ASSERT_EQ(service.open_session(p.session(), id), ServiceStatus::kOk);
  ContractionResponse resp;
  for (int it = 0; it < 3; ++it) {
    ASSERT_EQ(service.iterate(id, p.a, nullptr, resp), ServiceStatus::kOk)
        << resp.error;
    EXPECT_TRUE(bitwise_equal(resp.c, expected, p.c_shape)) << it;
  }
  EXPECT_EQ(lowerings(), before + 1)
      << "open_session lowers once, iterations replay";

  // The session cached the plan and its lowering: submits of the same
  // problem hit both.
  const ContractionRequest req = p.request();
  for (int it = 0; it < 3; ++it) {
    ASSERT_EQ(service.submit(req, resp), ServiceStatus::kOk) << resp.error;
    EXPECT_TRUE(resp.plan_cache_hit);
    EXPECT_TRUE(bitwise_equal(resp.c, expected, p.c_shape)) << it;
  }
  EXPECT_EQ(lowerings(), before + 1);
  EXPECT_EQ(service.close_session(id), ServiceStatus::kOk);
}

TEST(Replay, EvictedPlanKeepsItsLoweringWhileARequestRuns) {
  // Capacity 1: a second problem evicts the first one's entry while a
  // request of the first is still executing its lowering, and a session
  // opened on the first keeps replaying its own reference afterwards.
  const Problem p(48, 150, 150, 0.6, 0.5, 85);
  const Problem other(40, 120, 120, 0.6, 0.5, 87);
  const BlockSparseMatrix expected = p.fresh(p.a).c;
  ServiceConfig cfg;
  cfg.plan_cache_capacity = 1;
  ContractionService service(cfg);

  std::uint64_t id = 0;
  ASSERT_EQ(service.open_session(p.session(), id), ServiceStatus::kOk);

  // A request of `p` whose B generation waits until the eviction is done.
  std::atomic<bool> generating{false};
  std::atomic<bool> evicted{false};
  ContractionRequest slow = p.request();
  slow.b_generator = [&](std::size_t r, std::size_t c) {
    generating = true;
    while (!evicted) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return p.b_gen(r, c);
  };
  ContractionResponse slow_resp;
  std::thread slow_client(
      [&] { EXPECT_EQ(service.submit(slow, slow_resp), ServiceStatus::kOk); });
  while (!generating) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ContractionResponse other_resp;
  EXPECT_EQ(service.submit(other.request(), other_resp), ServiceStatus::kOk);
  EXPECT_EQ(service.metrics().plan_cache.evictions, 1u);
  evicted = true;
  slow_client.join();
  EXPECT_TRUE(slow_resp.plan_cache_hit);
  EXPECT_TRUE(bitwise_equal(slow_resp.c, expected, p.c_shape));

  const std::uint64_t before = lowerings();
  ContractionResponse resp;
  ASSERT_EQ(service.iterate(id, p.a, nullptr, resp), ServiceStatus::kOk);
  EXPECT_TRUE(bitwise_equal(resp.c, expected, p.c_shape));
  EXPECT_EQ(lowerings(), before) << "the session still holds its lowering";
}

/// A 1x2 grid of one-device nodes, so A crosses ranks.
Problem two_node_problem() {
  Problem p(48, 150, 150, 0.7, 0.6, 89);
  p.machine = MachineModel::summit(2);
  p.machine.node.gpus = 1;
  p.machine.gpu_total = 2;
  p.machine.node.gpu.memory_bytes = 1.0e6;
  return p;
}

TEST(Replay, LoweringForOtherEngineFieldsIsNeverReused) {
  const Problem p = two_node_problem();
  const EngineConfig plain;
  EngineConfig shared_node;  // both ranks on one node
  shared_node.node_of_rank = {0, 0};
  const EngineResult expected = p.fresh(p.a, plain);
  ASSERT_GT(expected.plan_stats.a_network_bytes, 0.0);

  const ExecutionPlan plan =
      build_plan(p.a.shape(), p.b_shape, p.c_shape, p.machine, plain.plan);
  const std::shared_ptr<const LoweredPlan> lowered =
      lower_plan(plan, p.a.shape(), p.b_shape, p.c_shape, p.machine, plain);
  EXPECT_FALSE(lowered->a_sends.empty());
  EXPECT_TRUE(lowered->fits(plain));
  EXPECT_FALSE(lowered->fits(shared_node));
  EngineConfig other_rank = plain;
  other_rank.local_rank = 0;
  EXPECT_FALSE(lowered->fits(other_rank));
  EXPECT_DOUBLE_EQ(lowered->stats.a_internode_bytes,
                   lowered->stats.a_network_bytes);

  // A call handed a lowering made for other engine fields lowers afresh:
  // its statistics follow its own node map (all A hops intra-node).
  const std::uint64_t before = lowerings();
  const EngineResult result =
      contract_lowered(plan, *lowered, p.a, p.b_shape, p.b_gen, p.c_shape,
                       nullptr, p.machine, shared_node);
  EXPECT_EQ(lowerings(), before + 1);
  EXPECT_EQ(result.tasks_executed, expected.tasks_executed);
  EXPECT_DOUBLE_EQ(result.plan_stats.a_internode_bytes, 0.0);
  EXPECT_DOUBLE_EQ(result.plan_stats.a_intranode_bytes,
                   expected.plan_stats.a_network_bytes);
  EXPECT_DOUBLE_EQ(result.a_network_bytes,
                   expected.plan_stats.a_network_bytes);
  EXPECT_TRUE(bitwise_equal(result.c, expected.c, p.c_shape));

  // Through the service: a session with its own node map over the plan a
  // plain submit cached lowers once for itself, then replays.
  ContractionService service;
  ContractionResponse resp;
  ASSERT_EQ(service.submit(p.request(), resp), ServiceStatus::kOk);
  SessionConfig session = p.session();
  session.engine = shared_node;
  const std::uint64_t at_open = lowerings();
  std::uint64_t id = 0;
  ASSERT_EQ(service.open_session(session, id), ServiceStatus::kOk);
  EXPECT_EQ(lowerings(), at_open + 1);
  for (int it = 0; it < 2; ++it) {
    ASSERT_EQ(service.iterate(id, p.a, nullptr, resp), ServiceStatus::kOk);
    EXPECT_EQ(resp.tasks_executed, expected.tasks_executed);
    EXPECT_TRUE(bitwise_equal(resp.c, expected.c, p.c_shape));
  }
  EXPECT_EQ(lowerings(), at_open + 1);
}

}  // namespace
}  // namespace bstc
