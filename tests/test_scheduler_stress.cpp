/// Stress/property tests for the runtime: random DAGs must execute in
/// topological order with every task running exactly once, under many
/// queues, fan patterns and repeated runs.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "closure_graph.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace bstc {
namespace {

/// Build a random DAG: edges only from lower to higher ids (acyclic by
/// construction), each task records its completion order.
struct RandomDag {
  RandomDag(std::size_t tasks, std::uint32_t queues, double edge_prob,
            std::uint64_t seed)
      : finish_order(tasks, 0) {
    Rng rng(seed);
    for (std::size_t t = 0; t < tasks; ++t) {
      const auto queue = static_cast<std::uint32_t>(rng.uniform_index(queues));
      std::string name = "t";
      name.append(std::to_string(t));
      graph.add_task(std::move(name), queue, [this, t] {
        finish_order[t] = ++counter;
      });
    }
    for (std::size_t from = 0; from < tasks; ++from) {
      for (std::size_t to = from + 1; to < tasks; ++to) {
        if (rng.uniform() < edge_prob) {
          edges.emplace_back(from, to);
          graph.add_edge(static_cast<TaskId>(from), static_cast<TaskId>(to),
                         rng.uniform() < 0.3 ? EdgeKind::kControl
                                             : EdgeKind::kData);
        }
      }
    }
  }

  ClosureGraph graph;
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  std::atomic<std::size_t> counter{0};
  std::vector<std::size_t> finish_order;
};

class SchedulerStress
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(SchedulerStress, RandomDagsExecuteTopologically) {
  const auto [tasks, queues, prob] = GetParam();
  RandomDag dag(static_cast<std::size_t>(tasks),
                static_cast<std::uint32_t>(queues), prob,
                static_cast<std::uint64_t>(tasks * 31 + queues));
  const SchedulerStats stats =
      dag.graph.run(static_cast<std::uint32_t>(queues));
  EXPECT_EQ(stats.tasks_executed, static_cast<std::size_t>(tasks));
  // Every task ran exactly once.
  for (const std::size_t order : dag.finish_order) {
    EXPECT_GE(order, 1u);
    EXPECT_LE(order, static_cast<std::size_t>(tasks));
  }
  // Every edge respected: predecessor finished before successor.
  for (const auto& [from, to] : dag.edges) {
    EXPECT_LT(dag.finish_order[from], dag.finish_order[to]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SchedulerStress,
    ::testing::Values(std::make_tuple(50, 1, 0.1),
                      std::make_tuple(100, 4, 0.05),
                      std::make_tuple(200, 8, 0.02),
                      std::make_tuple(400, 3, 0.01),
                      std::make_tuple(30, 16, 0.3),
                      std::make_tuple(500, 2, 0.005)));

TEST(SchedulerStress, DeepChainAcrossQueues) {
  ClosureGraph graph;
  const int depth = 500;
  std::vector<int> log;
  std::mutex m;
  TaskId prev = 0;
  for (int i = 0; i < depth; ++i) {
    const TaskId t = graph.add_task(
        "link", static_cast<std::uint32_t>(i % 5), [&log, &m, i] {
          std::lock_guard lock(m);
          log.push_back(i);
        });
    if (i > 0) graph.add_edge(prev, t);
    prev = t;
  }
  graph.run(5);
  ASSERT_EQ(log.size(), static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) EXPECT_EQ(log[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerStress, WideFanOutAllQueuesParticipate) {
  ClosureGraph graph;
  const std::uint32_t queues = 8;
  std::atomic<int> done{0};
  const TaskId root = graph.add_task("root", 0, [] {});
  for (int i = 0; i < 800; ++i) {
    const TaskId t = graph.add_task(
        "leaf", static_cast<std::uint32_t>(i) % queues, [&done] { ++done; });
    graph.add_edge(root, t);
  }
  const SchedulerStats stats = graph.run(queues);
  EXPECT_EQ(done.load(), 800);
  for (const std::size_t n : stats.per_queue) EXPECT_GT(n, 0u);
}

TEST(SchedulerStress, ExceptionDoesNotHangWideGraphs) {
  ClosureGraph graph;
  const TaskId root = graph.add_task("root", 0, [] {});
  for (int i = 0; i < 100; ++i) {
    const TaskId t = graph.add_task("leaf", static_cast<std::uint32_t>(i % 4),
                                    i == 50 ? std::function<void()>([] {
                                      throw Error("boom");
                                    })
                                            : std::function<void()>([] {}));
    graph.add_edge(root, t);
  }
  EXPECT_THROW(graph.run(4), Error);
}

}  // namespace
}  // namespace bstc
