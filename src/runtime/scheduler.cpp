#include "runtime/scheduler.hpp"

#include <pthread.h>

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace bstc {
namespace {

/// Shared state of one run_graph call, guarded by its team's mutex. Each
/// task is released into its queue exactly once, so queue q's ready FIFO
/// is the slice [graph.queue_begin(q), graph.queue_begin(q + 1)) of
/// `ready`, filled at `tail[q]` and drained at `head[q]`. Only the lanes
/// of queues holding tasks join the run.
struct Run {
  Run(const TaskGraph& g, std::uint32_t num_queues, TaskDispatch& d)
      : graph(g),
        dispatch(d),
        queues(num_queues),
        traced(obs::Registry::instance().enabled()),
        deps(g.size()),
        ready(g.size()),
        head(num_queues),
        tail(num_queues),
        executed(num_queues, 0),
        remaining(g.size()) {
    for (std::uint32_t q = 0; q < g.queues(); ++q) lanes += joins(q);
    for (std::uint32_t q = 0; q < queues; ++q) {
      head[q] = tail[q] = q < g.queues()
                              ? g.queue_begin(q)
                              : static_cast<std::uint32_t>(g.size());
    }
    for (std::size_t t = 0; t < g.size(); ++t) {
      const TaskNode& task = g.task(static_cast<TaskId>(t));
      deps[t] = task.predecessors;
      if (deps[t] == 0) ready[tail[task.queue]++] = static_cast<TaskId>(t);
    }
  }

  /// True when queue q holds tasks, so its lane serves this run.
  bool joins(std::uint32_t q) const {
    return q < graph.queues() &&
           graph.queue_begin(q + 1) > graph.queue_begin(q);
  }

  const TaskGraph& graph;
  TaskDispatch& dispatch;
  const std::uint32_t queues;
  const bool traced;
  std::vector<std::uint32_t> deps;  ///< unmet dependences per task
  std::vector<TaskId> ready;
  std::vector<std::uint32_t> head, tail;
  std::vector<std::size_t> executed;  ///< per queue
  std::size_t remaining;              ///< tasks not yet executed
  std::uint32_t lanes = 0;            ///< lanes that join the run
  std::uint32_t lanes_joined = 0;     ///< lanes that have joined so far
  std::uint32_t lanes_left = 0;       ///< lanes still inside the run
  bool aborted = false;
  std::exception_ptr error;
};

/// Persistent lane threads serving one run at a time: lane q serves
/// queue q. Teams are never destroyed (their lanes may still be parked
/// when static destructors run), like the ComputePool.
class LaneTeam {
 public:
  /// Serve `run` on the lanes of its queues holding tasks, starting lanes
  /// the team lacks; returns once every one of them has left the run.
  void execute(Run& run);

 private:
  void lane_main(std::uint32_t q);
  /// Lane q's part of `run`; `lock` is held on entry and exit.
  void serve(Run& run, std::uint32_t q, std::unique_lock<std::mutex>& lock);
  /// Wakes every lane that joins `run`.
  void wake_lanes(const Run& run) {
    for (std::uint32_t q = 0; q < run.graph.queues(); ++q) {
      if (run.joins(q)) wake_[q]->notify_one();
    }
  }

  std::mutex mutex_;
  std::condition_variable done_;  ///< lanes parked, or a run's lanes left
  /// One wake-up per lane, so a release wakes only the lane it feeds.
  std::vector<std::unique_ptr<std::condition_variable>> wake_;
  Run* run_ = nullptr;     ///< the run being served
  std::uint64_t runs_ = 0; ///< runs posted; a lane joins each one once
  std::size_t parked_ = 0; ///< lanes that reached their loop
  std::vector<std::thread> lanes_;
};

void LaneTeam::execute(Run& run) {
  std::unique_lock lock(mutex_);
  const std::size_t had = lanes_.size();
  while (lanes_.size() < run.graph.queues()) {
    const auto q = static_cast<std::uint32_t>(lanes_.size());
    wake_.push_back(std::make_unique<std::condition_variable>());
    try {
      lanes_.emplace_back([this, q] { lane_main(q); });
    } catch (...) {
      wake_.pop_back();
      throw;
    }
  }
  // Post only to parked lanes (a lane joins the runs posted after it
  // parked), and let a fork() right after never catch a lane inside its
  // thread start-up (see ComputePool).
  done_.wait(lock, [this] { return parked_ == lanes_.size(); });
  if (lanes_.size() > had) {
    obs::Registry::instance().counter_add("bstc_lanes_started_total",
                                          lanes_.size() - had);
  }
  run.lanes_left = run.lanes;
  run_ = &run;
  ++runs_;
  wake_lanes(run);
  done_.wait(lock, [&run] { return run.lanes_left == 0; });
  run_ = nullptr;
}

void LaneTeam::lane_main(std::uint32_t q) {
  std::unique_lock lock(mutex_);
  if (++parked_ == lanes_.size()) done_.notify_all();
  std::uint64_t joined = runs_;
  while (true) {
    wake_[q]->wait(lock, [&] {
      return runs_ != joined && run_ != nullptr && run_->joins(q);
    });
    joined = runs_;
    Run& run = *run_;
    ++run.lanes_joined;
    serve(run, q, lock);
    if (--run.lanes_left == 0) done_.notify_all();
  }
}

void LaneTeam::serve(Run& run, std::uint32_t q,
                     std::unique_lock<std::mutex>& lock) {
  obs::Registry& reg = obs::Registry::instance();
  bool lane_named = false;
  while (true) {
    wake_[q]->wait(lock, [&] {
      return run.aborted || run.remaining == 0 || run.head[q] != run.tail[q];
    });
    if (run.aborted || run.remaining == 0) return;
    const TaskId id = run.ready[run.head[q]++];
    lock.unlock();

    try {
      const TaskNode& task = run.graph.task(id);
      if (run.traced && !lane_named) {
        reg.name_lane(q, "queue " + std::to_string(q));
        lane_named = true;
      }
      const double start = run.traced ? reg.now() : 0.0;
      run.dispatch.run(task);
      if (run.traced) {
        const double end = reg.now();
        std::string name;
        run.dispatch.name(task, name);
        reg.record(obs::Category::kTask, std::move(name), q, start, end);
      }
    } catch (...) {
      lock.lock();
      if (!run.error) run.error = std::current_exception();
      run.aborted = true;
      wake_lanes(run);
      return;
    }

    lock.lock();
    ++run.executed[q];
    --run.remaining;
    for (const TaskId s : run.graph.successors(id)) {
      if (--run.deps[s] == 0) {
        const std::uint32_t sq = run.graph.task(s).queue;
        run.ready[run.tail[sq]++] = s;
        if (sq != q) wake_[sq]->notify_one();
      }
    }
    if (run.remaining == 0) {
      wake_lanes(run);
    }
  }
}

// Idle teams, most recently returned on top: sequential runs reuse one
// team whatever thread calls, so its lanes (and their malloc arenas) stay
// the same; concurrent runs take one team each. A forked child has none
// of these lanes, so the fork handler sets every team aside (kept
// reachable, never touched) and the child starts its own. Holding the
// mutex across fork() keeps a concurrent borrow from leaving it locked in
// the child.
std::mutex g_teams_mutex;
std::vector<LaneTeam*>* g_idle_teams = nullptr;
std::vector<LaneTeam*>* g_all_teams = nullptr;
std::vector<LaneTeam*>* g_inherited_teams = nullptr;
std::once_flag g_fork_handlers;

void lock_for_fork() { g_teams_mutex.lock(); }
void unlock_after_fork() { g_teams_mutex.unlock(); }
void reset_in_child() {
  if (g_all_teams != nullptr) {
    if (g_inherited_teams == nullptr) {
      g_inherited_teams = new std::vector<LaneTeam*>;
    }
    g_inherited_teams->insert(g_inherited_teams->end(), g_all_teams->begin(),
                              g_all_teams->end());
    g_all_teams->clear();
    g_idle_teams->clear();
  }
  g_teams_mutex.unlock();
}

LaneTeam& borrow_team() {
  std::call_once(g_fork_handlers, [] {
    pthread_atfork(lock_for_fork, unlock_after_fork, reset_in_child);
  });
  std::lock_guard lock(g_teams_mutex);
  if (g_all_teams == nullptr) {
    g_all_teams = new std::vector<LaneTeam*>;
    g_idle_teams = new std::vector<LaneTeam*>;
  }
  if (g_idle_teams->empty()) {
    g_all_teams->push_back(new LaneTeam);
    g_idle_teams->reserve(g_all_teams->size());
    return *g_all_teams->back();
  }
  LaneTeam* team = g_idle_teams->back();
  g_idle_teams->pop_back();
  return *team;
}

void return_team(LaneTeam& team) {
  std::lock_guard lock(g_teams_mutex);
  g_idle_teams->push_back(&team);  // reserved in borrow_team: no malloc
}

}  // namespace

SchedulerStats run_graph(const TaskGraph& graph, std::uint32_t num_queues,
                         TaskDispatch& dispatch) {
  BSTC_REQUIRE(num_queues > 0, "need at least one queue");
  BSTC_REQUIRE(graph.sealed(), "task graph must be sealed before it runs");
  BSTC_REQUIRE(graph.queues() <= num_queues,
               "task bound to a non-existent queue");

  Timer timer;
  Run run(graph, num_queues, dispatch);
  if (run.remaining > 0) {
    LaneTeam& team = borrow_team();
    struct Return {
      LaneTeam& team;
      ~Return() { return_team(team); }
    } give_back{team};
    team.execute(run);
  }
  if (run.error) std::rethrow_exception(run.error);
  BSTC_CHECK(run.remaining == 0);

  SchedulerStats stats;
  stats.wall_seconds = timer.elapsed_s();
  stats.per_queue = run.executed;
  stats.lanes_joined = run.lanes_joined;
  for (const std::size_t n : stats.per_queue) stats.tasks_executed += n;
  return stats;
}

}  // namespace bstc
