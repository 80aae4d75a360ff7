#pragma once

/// \file scheduler.hpp
/// Multi-queue work execution of a TaskGraph.
///
/// Each queue models one execution stream — a GPU device or a CPU worker —
/// served by a dedicated lane thread, matching the paper's runtime where
/// tasks are bound to devices and "scheduled as soon as the data they need
/// is available". Dependence counting releases successors; control edges
/// flow through the same mechanism, which is exactly how the paper
/// constrains the PaRSEC scheduler.
///
/// The lanes are persistent: a run borrows a team of lane threads from a
/// process-wide stack of idle teams and returns it afterwards, last in
/// first out, so sequential runs from any thread reuse one team while
/// concurrent runs take one team each. A team grows when a run needs more
/// queues and is never destroyed. Lane q serves queue q in every run
/// that has tasks on it (the lanes of empty queues stay parked), so
/// a lane keeps its thread-local state (malloc arena, pack buffers)
/// across runs. A child forked after a run sets the inherited teams aside
/// and starts its own lanes on its first run.

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/task_graph.hpp"

namespace bstc {

/// Execution statistics of one run.
struct SchedulerStats {
  std::size_t tasks_executed = 0;
  double wall_seconds = 0.0;
  /// Tasks executed per queue.
  std::vector<std::size_t> per_queue;
  /// Lanes that served the run: one per queue holding tasks. The lanes of
  /// empty queues are not woken.
  std::uint32_t lanes_joined = 0;
};

/// What a run does with each task record.
class TaskDispatch {
 public:
  /// Execute `task`, on the lane of its queue. A lane runs one task at a
  /// time; lanes of different queues call this concurrently.
  virtual void run(const TaskNode& task) = 0;
  /// Append the task's span name to `out`. Called only while obs::Registry
  /// span recording is enabled, after run() returned.
  virtual void name(const TaskNode& task, std::string& out) const = 0;

 protected:
  ~TaskDispatch() = default;
};

/// Execute every task of a sealed graph over `num_queues` queues, each
/// queue holding tasks served by its own lane of a borrowed lane team
/// (lanes of empty queues stay parked), calling `dispatch.run` once
/// per task. The graph is only read: each run copies its dependence
/// counts, so one graph may be run any number of times, from several
/// threads at once. Throws bstc::Error when the graph is not sealed or
/// binds a task to a queue >= num_queues; exceptions thrown by
/// dispatch.run are captured and rethrown after every lane has left the
/// run (the first one wins). While obs::Registry span recording is
/// enabled, every task is recorded as a `task` span named by
/// dispatch.name, on lane = its queue id (labelled "queue N").
SchedulerStats run_graph(const TaskGraph& graph, std::uint32_t num_queues,
                         TaskDispatch& dispatch);

}  // namespace bstc
