#pragma once

/// A TaskGraph whose tasks run closures, for runtime tests: each task's
/// `index` is its id, and the dispatcher runs and names it from the
/// parallel vectors.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/scheduler.hpp"
#include "runtime/task_graph.hpp"

namespace bstc {

struct ClosureGraph final : TaskDispatch {
  TaskId add_task(std::string name, std::uint32_t queue,
                  std::function<void()> body) {
    const auto id = static_cast<TaskId>(bodies.size());
    graph.add_task(queue, 0, 0, 0, id);
    names.push_back(std::move(name));
    bodies.push_back(std::move(body));
    return id;
  }
  void add_edge(TaskId from, TaskId to, EdgeKind kind = EdgeKind::kData) {
    graph.add_edge(from, to, kind);
  }
  /// Seal the graph (once) and run it.
  SchedulerStats run(std::uint32_t queues) {
    if (!graph.sealed()) graph.seal();
    return run_graph(graph, queues, *this);
  }

  void run(const TaskNode& task) override {
    if (bodies[task.index]) bodies[task.index]();
  }
  void name(const TaskNode& task, std::string& out) const override {
    out += names[task.index];
  }

  TaskGraph graph;
  std::vector<std::string> names;
  std::vector<std::function<void()>> bodies;
};

}  // namespace bstc
