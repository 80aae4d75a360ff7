/// Tests for the task graph, the multi-queue scheduler and device-memory
/// accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "closure_graph.hpp"
#include "obs/obs.hpp"
#include "runtime/device.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

TEST(TaskGraph, BasicConstruction) {
  TaskGraph g;
  const TaskId a = g.add_task(0);
  const TaskId b = g.add_task(1, 2, 3, 4, 5);
  g.add_edge(a, b);
  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.control_edge_count(), 0u);
  EXPECT_EQ(g.task(b).predecessors, 1u);
  EXPECT_EQ(g.task(b).kind, 2u);
  EXPECT_EQ(g.task(b).node, 3u);
  EXPECT_EQ(g.task(b).block, 4u);
  EXPECT_EQ(g.task(b).index, 5u);
  EXPECT_EQ(g.queues(), 2u);
  g.seal();
  ASSERT_EQ(g.successors(a).size(), 1u);
  EXPECT_EQ(g.successors(a)[0], b);
  EXPECT_TRUE(g.successors(b).empty());
  EXPECT_EQ(g.queue_begin(1) - g.queue_begin(0), 1u);
  EXPECT_THROW(g.add_task(0), Error);
  EXPECT_THROW(g.add_edge(b, a), Error);
}

TEST(TaskGraph, SuccessorsKeepEdgeOrder) {
  // The run releases successors in this order, so sealing must not
  // reorder them.
  TaskGraph g;
  for (int t = 0; t < 5; ++t) g.add_task(0);
  g.add_edge(3, 4);
  g.add_edge(0, 4);
  g.add_edge(0, 2);
  g.add_edge(0, 1);
  g.add_edge(3, 1);
  g.seal();
  const auto s0 = g.successors(0);
  EXPECT_EQ(std::vector<TaskId>(s0.begin(), s0.end()),
            (std::vector<TaskId>{4, 2, 1}));
  const auto s3 = g.successors(3);
  EXPECT_EQ(std::vector<TaskId>(s3.begin(), s3.end()),
            (std::vector<TaskId>{4, 1}));
}

TEST(TaskGraph, ControlEdgesCounted) {
  TaskGraph g;
  const TaskId a = g.add_task(0);
  const TaskId b = g.add_task(0);
  g.add_edge(a, b, EdgeKind::kControl);
  EXPECT_EQ(g.control_edge_count(), 1u);
  EXPECT_EQ(g.task(b).control_in, 1u);
}

TEST(TaskGraph, SelfEdgeRejected) {
  TaskGraph g;
  const TaskId a = g.add_task(0);
  EXPECT_THROW(g.add_edge(a, a), Error);
  EXPECT_THROW(g.add_edge(a, 5), Error);
}

TEST(TaskGraph, CycleDetected) {
  TaskGraph g;
  const TaskId a = g.add_task(0);
  const TaskId b = g.add_task(0);
  const TaskId c = g.add_task(0);
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, a);
  EXPECT_THROW(g.seal(), Error);
  EXPECT_FALSE(g.sealed());
}

TEST(Scheduler, ExecutesInDependenceOrder) {
  ClosureGraph g;
  std::vector<int> log;
  std::mutex m;
  auto push = [&](int v) {
    std::lock_guard lock(m);
    log.push_back(v);
  };
  const TaskId a = g.add_task("a", 0, [&] { push(1); });
  const TaskId b = g.add_task("b", 1, [&] { push(2); });
  const TaskId c = g.add_task("c", 0, [&] { push(3); });
  g.add_edge(a, b);
  g.add_edge(b, c);
  const SchedulerStats st = g.run(2);
  EXPECT_EQ(st.tasks_executed, 3u);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, FanOutFanIn) {
  ClosureGraph g;
  std::atomic<int> counter{0};
  std::atomic<int> final_seen{-1};
  const TaskId src = g.add_task("src", 0, [&] { counter = 0; });
  std::vector<TaskId> mids;
  for (int i = 0; i < 50; ++i) {
    const TaskId t = g.add_task("mid", static_cast<std::uint32_t>(i % 4),
                                [&] { ++counter; });
    g.add_edge(src, t);
    mids.push_back(t);
  }
  const TaskId sink = g.add_task("sink", 3, [&] { final_seen = counter.load(); });
  for (const TaskId t : mids) g.add_edge(t, sink);
  g.run(4);
  EXPECT_EQ(final_seen.load(), 50);
}

TEST(Scheduler, CyclicGraphRejected) {
  ClosureGraph g;
  const TaskId a = g.add_task("a", 0, [] {});
  const TaskId b = g.add_task("b", 0, [] {});
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_THROW(g.graph.seal(), Error);
  EXPECT_THROW(run_graph(g.graph, 1, g), Error) << "unsealed graphs never run";
}

TEST(Scheduler, TaskExceptionPropagates) {
  ClosureGraph g;
  g.add_task("boom", 0, [] { throw Error("task failed"); });
  g.add_task("other", 1, [] {});
  EXPECT_THROW(g.run(2), Error);
}

TEST(Scheduler, QueueBindingEnforced) {
  ClosureGraph g;
  g.add_task("a", 5, [] {});
  EXPECT_THROW(g.run(2), Error);
}

TEST(Scheduler, PerQueueCountsSumToTotal) {
  ClosureGraph g;
  for (int i = 0; i < 20; ++i) {
    g.add_task("t", static_cast<std::uint32_t>(i % 3), [] {});
  }
  const SchedulerStats st = g.run(3);
  EXPECT_EQ(st.tasks_executed, 20u);
  EXPECT_EQ(st.per_queue.size(), 3u);
  EXPECT_EQ(st.per_queue[0] + st.per_queue[1] + st.per_queue[2], 20u);
  EXPECT_EQ(st.per_queue[0], 7u);  // tasks 0,3,...,18
  EXPECT_EQ(st.lanes_joined, 3u);
}

TEST(Scheduler, OnlyLanesOfQueuesWithTasksJoin) {
  // Lanes of empty queues are not woken: a graph with tasks on 1 of 3
  // queues joins 1 lane, one with tasks on queues 0 and 2 joins 2.
  ClosureGraph one;
  const TaskId first = one.add_task("a", 1, [] {});
  one.add_edge(first, one.add_task("b", 1, [] {}));
  for (int r = 0; r < 3; ++r) {
    const SchedulerStats st = one.run(3);
    EXPECT_EQ(st.lanes_joined, 1u);
    EXPECT_EQ(st.tasks_executed, 2u);
    EXPECT_EQ(st.per_queue, (std::vector<std::size_t>{0, 2, 0}));
  }
  ClosureGraph ends;
  ends.add_edge(ends.add_task("a", 2, [] {}), ends.add_task("b", 0, [] {}));
  EXPECT_EQ(ends.run(3).lanes_joined, 2u);
  ClosureGraph none;
  EXPECT_EQ(none.run(3).lanes_joined, 0u);
}

TEST(Scheduler, EmptyGraphCompletes) {
  ClosureGraph g;
  const SchedulerStats st = g.run(2);
  EXPECT_EQ(st.tasks_executed, 0u);
}

TEST(Scheduler, SealedGraphReplaysConcurrently) {
  // A sealed graph is read-only to a run: several threads may run it at
  // once and repeatedly, each run with its own dependence counts.
  ClosureGraph g;
  std::atomic<int> ran{0};
  const TaskId root = g.add_task("root", 0, [&] { ++ran; });
  for (int i = 0; i < 30; ++i) {
    const TaskId t =
        g.add_task("t", static_cast<std::uint32_t>(i % 3), [&] { ++ran; });
    g.add_edge(root, t);
  }
  g.graph.seal();
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&g] {
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(run_graph(g.graph, 3, g).tasks_executed, 31u);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(ran.load(), 3 * 4 * 31);
}

std::uint64_t lanes_started() {
  const auto counters = obs::Registry::instance().counters();
  const auto it = counters.find("bstc_lanes_started_total");
  return it == counters.end() ? 0 : it->second;
}

/// A graph of one task per queue that records the thread serving each.
struct LaneProbe {
  explicit LaneProbe(std::uint32_t queues) : seen(queues) {
    for (std::uint32_t q = 0; q < queues; ++q) {
      g.add_task("probe", q,
                 [this, q] { seen[q] = std::this_thread::get_id(); });
    }
  }
  std::vector<std::thread::id> run() {
    g.run(static_cast<std::uint32_t>(seen.size()));
    return seen;
  }
  ClosureGraph g;
  std::vector<std::thread::id> seen;
};

TEST(LaneTeam, ReusedAcrossRunsAndCallers) {
  // Lanes outlive a run: later runs, from this thread or another one
  // calling after it, are served by the same lane threads and start none.
  LaneProbe probe(3);
  const std::vector<std::thread::id> first = probe.run();
  const std::uint64_t started = lanes_started();
  EXPECT_GT(started, 0u);
  EXPECT_EQ(std::set<std::thread::id>(first.begin(), first.end()).size(), 3u)
      << "each queue has its own lane";
  EXPECT_EQ(std::count(first.begin(), first.end(), std::this_thread::get_id()),
            0);
  for (int r = 0; r < 5; ++r) EXPECT_EQ(probe.run(), first);
  std::thread other([&] { EXPECT_EQ(probe.run(), first); });
  other.join();
  EXPECT_EQ(lanes_started(), started);
}

TEST(LaneTeam, GrowsWhenARunNeedsMoreQueues) {
  LaneProbe small(2);
  const std::vector<std::thread::id> two = small.run();
  LaneProbe wide(9);
  const std::vector<std::thread::id> nine = wide.run();
  EXPECT_EQ(std::set<std::thread::id>(nine.begin(), nine.end()).size(), 9u);
  // The grown team keeps its first lanes on their queues.
  EXPECT_EQ(nine[0], two[0]);
  EXPECT_EQ(nine[1], two[1]);
  const std::uint64_t started = lanes_started();
  EXPECT_EQ(wide.run(), nine);
  EXPECT_EQ(small.run(), two);
  EXPECT_EQ(lanes_started(), started);
}

TEST(LaneTeam, ConcurrentRunsGetTheirOwnLanes) {
  // Two runs in flight at once each need their own lanes: every task
  // here waits until the task of the other run has started, which only
  // happens if neither run waits for the other's lanes.
  std::mutex m;
  std::condition_variable cv;
  int started = 0;
  bool timed_out = false;
  auto meet = [&] {
    std::unique_lock lock(m);
    ++started;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(20),
                     [&] { return started == 2; })) {
      timed_out = true;
    }
  };
  ClosureGraph a, b;
  a.add_task("a", 1, meet);
  b.add_task("b", 1, meet);
  std::thread ta([&] { a.run(2); });
  std::thread tb([&] { b.run(2); });
  ta.join();
  tb.join();
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(started, 2);
}

TEST(DeviceMemory, TracksUsageAndPeak) {
  DeviceMemory dev("gpu0", 100);
  dev.allocate(60);
  EXPECT_EQ(dev.used(), 60u);
  dev.allocate(40);
  EXPECT_EQ(dev.used(), 100u);
  dev.release(70);
  EXPECT_EQ(dev.used(), 30u);
  EXPECT_EQ(dev.peak_used(), 100u);
}

TEST(DeviceMemory, OverflowThrows) {
  DeviceMemory dev("gpu0", 100);
  dev.allocate(80);
  EXPECT_THROW(dev.allocate(21), Error);
  EXPECT_EQ(dev.used(), 80u);  // failed allocation does not leak
}

TEST(DeviceMemory, OverFreeThrows) {
  DeviceMemory dev("gpu0", 100);
  dev.allocate(10);
  EXPECT_THROW(dev.release(11), Error);
}

}  // namespace
}  // namespace bstc
