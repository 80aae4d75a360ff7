/// Tests for task timelines: the scheduler records every executed task
/// body as a `task` span in the obs registry (the spans `--trace-out`
/// writes), and the contraction engine's spans are well formed.
///
/// The registry is process-global, so every test that enables it cleans
/// up with clear() + set_enabled(false).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "bsm/block_sparse_matrix.hpp"
#include "closure_graph.hpp"
#include "core/engine.hpp"
#include "obs/obs.hpp"
#include "shape/shape_algebra.hpp"

namespace bstc {
namespace {

struct RegistryGuard {
  RegistryGuard() {
    obs::Registry::instance().clear();
    obs::Registry::instance().set_enabled(true);
  }
  ~RegistryGuard() {
    obs::Registry::instance().clear();
    obs::Registry::instance().set_enabled(false);
  }
};

std::vector<obs::Span> task_spans() {
  std::vector<obs::Span> out;
  for (obs::Span& s : obs::Registry::instance().spans()) {
    if (s.category == obs::Category::kTask) out.push_back(std::move(s));
  }
  return out;
}

TEST(Trace, SchedulerRecordsEveryTask) {
  RegistryGuard guard;
  obs::Registry& reg = obs::Registry::instance();
  ClosureGraph graph;
  const TaskId a = graph.add_task("first", 0, [] {});
  const TaskId b = graph.add_task("second", 1, [] {});
  graph.add_edge(a, b);
  const double before = reg.now();
  const SchedulerStats stats = graph.run(2);

  const std::vector<obs::Span> spans = task_spans();
  ASSERT_EQ(spans.size(), stats.tasks_executed);
  // Order of collection may vary; find by name.
  const obs::Span* first = nullptr;
  const obs::Span* second = nullptr;
  for (const obs::Span& s : spans) {
    if (s.name == "first") first = &s;
    if (s.name == "second") second = &s;
  }
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->lane, 0u);
  EXPECT_EQ(second->lane, 1u);
  // Registry-epoch times: after the call began, and the dependence shows.
  EXPECT_GE(first->start_s, before);
  EXPECT_LE(first->end_s, second->start_s);
  const auto names = reg.lane_names();
  EXPECT_EQ(names.at(0), "queue 0");
  EXPECT_EQ(names.at(1), "queue 1");
}

TEST(Trace, EngineWritesTraceFile) {
  RegistryGuard guard;
  Rng rng(3);
  const Tiling mt = Tiling::uniform(24, 8);
  const Tiling kt = Tiling::uniform(48, 8);
  const Tiling nt = Tiling::uniform(48, 8);
  const Shape a_shape = Shape::dense(mt, kt);
  const Shape b_shape = Shape::dense(kt, nt);
  const Shape c_shape = contract_shape(a_shape, b_shape);
  const BlockSparseMatrix a = BlockSparseMatrix::random(a_shape, rng);

  MachineModel machine = MachineModel::summit_gpus(2);
  machine.node.gpu.memory_bytes = 1e5;
  const EngineResult result =
      contract(a, b_shape, random_tile_generator(b_shape, 9), c_shape,
               nullptr, machine, EngineConfig{});

  // One task span per executed task.
  const std::vector<obs::Span> spans = task_spans();
  EXPECT_EQ(spans.size(), result.tasks_executed);

  // Every task name must carry balanced parentheses — malformed names
  // (a "chunkload(n0,b1,2" with no closing paren) corrupt downstream
  // trace tooling silently.
  std::set<std::uint32_t> device_lanes;
  for (const obs::Span& s : spans) {
    int depth = 0;
    for (const char ch : s.name) {
      if (ch == '(') ++depth;
      if (ch == ')') --depth;
      ASSERT_GE(depth, 0) << "unbalanced parens in task name: " << s.name;
    }
    EXPECT_EQ(depth, 0) << "unbalanced parens in task name: " << s.name;
    if (s.name.rfind("gemmbatch(", 0) == 0) device_lanes.insert(s.lane);
  }

  // One node with two devices: queue 0 generates B, queues 1 and 2 are
  // the devices, and each device lane is labelled with its queue id.
  EXPECT_EQ(device_lanes, (std::set<std::uint32_t>{1, 2}));
  const auto names = obs::Registry::instance().lane_names();
  for (const std::uint32_t lane : device_lanes) {
    ASSERT_EQ(names.count(lane), 1u) << "lane " << lane << " unnamed";
    EXPECT_EQ(names.at(lane), "queue " + std::to_string(lane));
  }
}

TEST(Trace, EngineTaskNamesAreGolden) {
  // Span names are an interface: the benchmark's lane ledger and
  // bstc_trace_check sort task spans by these prefixes. The names are
  // formatted from each task record while tracing is on, and must stay
  // byte for byte what they are here. 2 nodes of 1 device each on a 1x2
  // grid, so A travels as messages: queues 0 and 1 are the nodes' CPU
  // queues, 2 and 3 their devices.
  RegistryGuard guard;
  Rng rng(5);
  const Tiling mt = Tiling::uniform(32, 8);
  const Tiling kt = Tiling::uniform(64, 8);
  const Tiling nt = Tiling::uniform(64, 8);
  const Shape a_shape = Shape::dense(mt, kt);
  const Shape b_shape = Shape::dense(kt, nt);
  const Shape c_shape = contract_shape(a_shape, b_shape);
  const BlockSparseMatrix a = BlockSparseMatrix::random(a_shape, rng);
  MachineModel machine = MachineModel::summit(2);
  machine.node.gpus = 1;
  machine.gpu_total = 2;
  machine.node.gpu.memory_bytes = 1e4;
  const EngineResult result =
      contract(a, b_shape, random_tile_generator(b_shape, 9), c_shape,
               nullptr, machine, EngineConfig{});

  std::map<std::string, std::uint32_t> lane_of;
  std::map<std::string, int> per_kind;
  for (const obs::Span& s : task_spans()) {
    lane_of[s.name] = s.lane;
    ++per_kind[s.name.substr(0, s.name.find('('))];
  }
  EXPECT_EQ(lane_of.size(), result.tasks_executed) << "names are unique";
  const std::map<std::string, std::uint32_t> golden = {
      {"asend(0,0->x1)", 0},       {"asend(0,1->x1)", 1},
      {"gen(n0,b0,p0)", 0},        {"gen(n1,b1,p0)", 1},
      {"load(n0,b0,p0)", 2},       {"load(n0,b3,p0)", 2},
      {"chunkload(n0,b0,0)", 2},   {"chunkload(n1,b0,2)", 3},
      {"gemmbatch(0,0,x4)", 2},    {"gemmbatch(0,1,x4)", 3},
      {"chunkunload(n0,b0,3)", 2}, {"store(n0,b0)", 2},
      {"store(n1,b1)", 3},
  };
  for (const auto& [name, lane] : golden) {
    ASSERT_EQ(lane_of.count(name), 1u) << "no task span named " << name;
    EXPECT_EQ(lane_of.at(name), lane) << name;
  }
  EXPECT_EQ(per_kind, (std::map<std::string, int>{{"asend", 32},
                                                  {"chunkload", 64},
                                                  {"chunkunload", 64},
                                                  {"gemmbatch", 64},
                                                  {"gen", 16},
                                                  {"load", 16},
                                                  {"store", 16}}));
}

}  // namespace
}  // namespace bstc
