#include "runtime/task_graph.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace bstc {

TaskId TaskGraph::add_task(std::uint32_t queue, std::uint8_t kind,
                           std::uint32_t node, std::uint32_t block,
                           std::uint32_t index) {
  BSTC_REQUIRE(!sealed_, "a sealed task graph takes no more tasks");
  TaskNode task;
  task.queue = queue;
  task.kind = kind;
  task.node = node;
  task.block = block;
  task.index = index;
  tasks_.push_back(task);
  queues_ = std::max(queues_, queue + 1);
  return static_cast<TaskId>(tasks_.size() - 1);
}

void TaskGraph::add_edge(TaskId from, TaskId to, EdgeKind kind) {
  BSTC_REQUIRE(!sealed_, "a sealed task graph takes no more edges");
  BSTC_REQUIRE(from < tasks_.size() && to < tasks_.size(),
               "edge endpoints must exist");
  BSTC_REQUIRE(from != to, "self-edges are not allowed");
  edges_.emplace_back(from, to);
  ++tasks_[to].predecessors;
  ++edge_count_;
  if (kind == EdgeKind::kControl) {
    ++tasks_[to].control_in;
    ++control_edges_;
  }
}

void TaskGraph::seal() {
  BSTC_REQUIRE(!sealed_, "task graph is already sealed");
  const std::size_t n = tasks_.size();
  // Counting sort by source; a stable one keeps each task's successors in
  // the order their edges were added, which fixes the order the run
  // releases them in.
  succ_begin_.assign(n + 1, 0);
  for (const auto& [from, to] : edges_) ++succ_begin_[from + 1];
  for (std::size_t t = 0; t < n; ++t) succ_begin_[t + 1] += succ_begin_[t];
  succ_.resize(edges_.size());
  std::vector<std::uint32_t> fill(succ_begin_.begin(), succ_begin_.end() - 1);
  for (const auto& [from, to] : edges_) succ_[fill[from]++] = to;

  queue_begin_.assign(static_cast<std::size_t>(queues_) + 1, 0);
  for (const TaskNode& task : tasks_) ++queue_begin_[task.queue + 1];
  for (std::uint32_t q = 0; q < queues_; ++q) {
    queue_begin_[q + 1] += queue_begin_[q];
  }

  // Kahn: every task must become ready.
  std::vector<std::uint32_t> deps(n);
  std::vector<TaskId> ready;
  ready.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    deps[t] = tasks_[t].predecessors;
    if (deps[t] == 0) ready.push_back(static_cast<TaskId>(t));
  }
  for (std::size_t r = 0; r < ready.size(); ++r) {
    for (std::uint32_t e = succ_begin_[ready[r]]; e < succ_begin_[ready[r] + 1];
         ++e) {
      if (--deps[succ_[e]] == 0) ready.push_back(succ_[e]);
    }
  }
  BSTC_REQUIRE(ready.size() == n, "task graph has a cycle");
  std::vector<std::pair<TaskId, TaskId>>().swap(edges_);
  sealed_ = true;
}

}  // namespace bstc
