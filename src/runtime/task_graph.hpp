#pragma once

/// \file task_graph.hpp
/// Task DAG for the dataflow runtime.
///
/// The paper expresses its algorithm as the superposition of two DAGs over
/// the same tasks (§4): a *dataflow* DAG (real data dependencies) and a
/// *control* DAG (architecture-specific ordering constraints that keep the
/// scheduler from thrashing GPU memory). Both kinds are ordinary edges
/// here; the tag is kept so tools and tests can distinguish them.
///
/// A task is a record, not a closure: its queue, a kind and a few indices
/// that the run's TaskDispatch interprets (scheduler.hpp). A sealed graph
/// is immutable data, so one graph can be built once per plan and run any
/// number of times, concurrently too.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace bstc {

using TaskId = std::uint32_t;

/// Why an edge exists (purely informational for execution).
enum class EdgeKind : std::uint8_t {
  kData,     ///< consumer reads data the producer wrote
  kControl,  ///< ordering constraint for memory-pressure control
};

/// A node of the DAG: what to run, as the dispatcher reads it, and the
/// execution queue it is bound to. The engine's kinds and the meaning of
/// the indices are in core/engine.hpp (TaskKind).
struct TaskNode {
  std::uint32_t queue = 0;  ///< execution queue (device / CPU stream)
  std::uint8_t kind = 0;    ///< the dispatcher's task kind
  std::uint32_t node = 0;   ///< the dispatcher's operands
  std::uint32_t block = 0;
  std::uint32_t index = 0;
  std::uint32_t predecessors = 0;
  std::uint32_t control_in = 0;  ///< how many incoming edges are control
};

/// An append-only task DAG, frozen by seal(). Not thread-safe during
/// construction; a sealed graph may be read (and run) by any number of
/// threads.
class TaskGraph {
 public:
  /// Add a task bound to `queue`; returns its id.
  TaskId add_task(std::uint32_t queue, std::uint8_t kind = 0,
                  std::uint32_t node = 0, std::uint32_t block = 0,
                  std::uint32_t index = 0);

  /// Add an edge from -> to. Self-edges are rejected.
  void add_edge(TaskId from, TaskId to, EdgeKind kind = EdgeKind::kData);

  /// Freeze the graph: lay every task's successors out flat (in the order
  /// their edges were added) and group task ids by queue. Throws
  /// bstc::Error if the graph has a cycle. No task or edge may be added
  /// afterwards.
  void seal();
  bool sealed() const { return sealed_; }

  std::size_t size() const { return tasks_.size(); }
  const TaskNode& task(TaskId id) const { return tasks_.at(id); }

  /// The successors of `id`, in edge insertion order (sealed graphs).
  std::span<const TaskId> successors(TaskId id) const {
    return {succ_.data() + succ_begin_[id],
            succ_begin_[id + 1] - succ_begin_[id]};
  }

  /// One more than the largest queue any task is bound to (0 if empty).
  std::uint32_t queues() const { return queues_; }
  /// Tasks bound to queues below `queue` (sealed graphs; queue <=
  /// queues()): queue q's tasks are counted by
  /// queue_begin(q + 1) - queue_begin(q).
  std::uint32_t queue_begin(std::uint32_t queue) const {
    return queue_begin_[queue];
  }

  std::size_t edge_count() const { return edge_count_; }
  std::size_t control_edge_count() const { return control_edges_; }

 private:
  std::vector<TaskNode> tasks_;
  /// Edges in insertion order, until seal() lays them out in succ_.
  std::vector<std::pair<TaskId, TaskId>> edges_;
  std::vector<std::uint32_t> succ_begin_;   ///< size() + 1 offsets
  std::vector<TaskId> succ_;                ///< successors, flat
  std::vector<std::uint32_t> queue_begin_;  ///< queues() + 1 offsets
  std::size_t edge_count_ = 0;
  std::size_t control_edges_ = 0;
  std::uint32_t queues_ = 0;
  bool sealed_ = false;
};

}  // namespace bstc
