#pragma once

/// \file scheduler.hpp
/// Multi-queue work execution of a TaskGraph.
///
/// Each queue models one execution stream — a GPU device or a CPU worker —
/// served by a dedicated thread, matching the paper's runtime where tasks
/// are bound to devices and "scheduled as soon as the data they need is
/// available". Dependence counting releases successors; control edges flow
/// through the same mechanism, which is exactly how the paper constrains
/// the PaRSEC scheduler.

#include <cstdint>

#include "runtime/task_graph.hpp"

namespace bstc {

/// Execution statistics of one run.
struct SchedulerStats {
  std::size_t tasks_executed = 0;
  double wall_seconds = 0.0;
  /// Tasks executed per queue.
  std::vector<std::size_t> per_queue;
};

/// Execute every task of a graph over `num_queues` worker threads (one
/// per queue). Throws bstc::Error on a cyclic graph; exceptions thrown by
/// task bodies are captured and rethrown after all workers stop (the first
/// one wins). The graph's dependence counters are consumed by the run, so
/// a graph can be executed once. While obs::Registry span recording is
/// enabled, every task body is recorded as a `task` span named after the
/// task, on lane = its queue id (labelled "queue N").
SchedulerStats run_graph(TaskGraph& graph, std::uint32_t num_queues);

}  // namespace bstc
