#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <queue>
#include <tuple>
#include <unordered_map>

#include "core/engine.hpp"
#include "plan/builder.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

std::uint64_t tile_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

constexpr std::uint32_t kFree = ~0u;  ///< no resource: the task is free

}  // namespace

SimResult simulate(const ExecutionPlan& plan, const Shape& a, const Shape& b,
                   const Shape& c, const MachineModel& machine,
                   const SimConfig& cfg) {
  BSTC_REQUIRE(cfg.generation_rate > 0.0 && cfg.network_efficiency > 0.0 &&
                   cfg.sustained_kernel_fraction > 0.0,
               "simulator rates must be positive");
  EngineConfig lower_cfg;
  lower_cfg.plan = plan.config;
  const auto lowered = lower_plan(plan, a, b, c, machine, lower_cfg);
  const LoweredPlan& low = *lowered;
  const TaskGraph& graph = low.graph;
  const GpuSpec& gpu = machine.node.gpu;
  const auto num_nodes = static_cast<std::uint32_t>(plan.grid.nodes());
  const auto devices = low.num_queues - num_nodes;

  SimResult result;
  result.plan_stats = low.stats;
  result.gpus.resize(devices);

  // Inspection overhead (paper §3.2.4: O(N^t log N^t + nnz B), negligible
  // but included in the paper's measurements, so included here).
  const double n_t = static_cast<double>(b.tile_cols());
  result.inspect_s = cfg.inspect_s_per_item *
                     (n_t * std::log2(std::max(2.0, n_t)) +
                      static_cast<double>(b.nnz_tiles()));
  const double t0 = result.inspect_s;
  const double link_rate =
      machine.internode_bandwidth * cfg.network_efficiency;

  const auto a_tile_bytes = [&](std::uint32_t i, std::uint32_t k) {
    return 8.0 * static_cast<double>(a.row_tiling().tile_extent(i)) *
           static_cast<double>(a.col_tiling().tile_extent(k));
  };
  std::vector<double> start(graph.size(), t0), end(graph.size(), t0);
  std::size_t started = 0;  // tasks begun, plus the asends priced below

  // A broadcast: remote A tiles stream into each consumer node through its
  // link, in the order the asends were created (first need), so a tile
  // arrives at consumer n once n has received every earlier tile it
  // consumes. An asend's span runs until its last consumer has the tile.
  std::vector<double> received(num_nodes, t0);
  std::vector<std::unordered_map<std::uint64_t, double>> arrival(num_nodes);
  for (TaskId t = 0; t < graph.size(); ++t) {
    const TaskNode& task = graph.task(t);
    if (static_cast<TaskKind>(task.kind) != TaskKind::kASend) continue;
    ++started;
    const LoweredPlan::ASend& send = low.a_sends[task.index];
    for (const int n : send.consumers) {
      received[n] += a_tile_bytes(send.i, send.k) / link_rate;
      const double at = received[n] + machine.internode_latency_s;
      arrival[n][tile_key(send.i, send.k)] = at;
      end[t] = std::max(end[t], at);
    }
  }

  // Sibling-GPU rule: the first GPU of a node to load an A tile takes it
  // host-to-device; later loads by *other* GPUs of the node ride NVLink
  // device-to-device (paper §4: "the second GPU may use the copy residing
  // on the first one").
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> first_loader(
      num_nodes);

  // Resources: per node its CPU; per device a transfer engine and a
  // compute engine. Each runs its ready tasks FIFO, like a scheduler lane.
  const auto resource_of = [&](const TaskNode& task) -> std::uint32_t {
    switch (static_cast<TaskKind>(task.kind)) {
      case TaskKind::kGen: return task.node;
      case TaskKind::kLoad:
      case TaskKind::kChunkLoad:
      case TaskKind::kStore: return num_nodes + 2 * (task.queue - num_nodes);
      case TaskKind::kGemmBatch:
        return num_nodes + 2 * (task.queue - num_nodes) + 1;
      case TaskKind::kASend:
      case TaskKind::kChunkUnload: break;
    }
    return kFree;
  };
  const std::uint32_t resources = num_nodes + 2 * devices;
  std::vector<std::deque<TaskId>> fifo(resources);
  std::vector<bool> busy(resources, false);

  // C tiles returning to remote home nodes: (store end, bytes) per node,
  // drained through the node's egress link after the run.
  std::vector<std::vector<std::pair<double, double>>> c_egress(num_nodes);

  // (time, seq, task, arrived): the task ends, or (arrived) its remote A
  // tiles have arrived and it joins its resource's queue.
  using Event = std::tuple<double, std::uint64_t, TaskId, bool>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t seq = 0;

  // Start `t` at `now` on its resource: price it, account it to its GPU.
  const auto begin = [&](TaskId t, double now) {
    const TaskNode& task = graph.task(t);
    const BlockPlan& block = plan.nodes[task.node].blocks[task.block];
    GpuTimeline* tl =
        task.queue < num_nodes ? nullptr : &result.gpus[task.queue - num_nodes];
    double cost = 0.0;
    switch (static_cast<TaskKind>(task.kind)) {
      case TaskKind::kGen:
        cost = block.pieces[task.index].b_bytes / cfg.generation_rate;
        break;
      case TaskKind::kLoad: {
        // Transfers happen at tile granularity (paper §4), so the fixed
        // cost applies per tile.
        const ColumnPiece& piece = block.pieces[task.index];
        cost = cfg.task_overhead_s +
               static_cast<double>(piece.ks.size()) * gpu.transfer_latency_s +
               piece.bytes() / gpu.h2d_bandwidth;
        tl->h2d_busy_s += cost;
        break;
      }
      case TaskKind::kChunkLoad: {
        const Chunk& chunk = block.chunks[task.index];
        double sibling = 0.0;
        for (const auto& [i, k] : chunk.a_tiles) {
          const auto [it, fresh] =
              first_loader[task.node].emplace(tile_key(i, k), block.gpu);
          if (!fresh && it->second != block.gpu) sibling += a_tile_bytes(i, k);
        }
        cost = cfg.task_overhead_s +
               static_cast<double>(chunk.a_tiles.size()) *
                   gpu.transfer_latency_s +
               (chunk.a_bytes - sibling) / gpu.h2d_bandwidth +
               sibling / gpu.d2d_bandwidth;
        tl->h2d_busy_s += cost;
        break;
      }
      case TaskKind::kGemmBatch: {
        const GemmGroup& grp = low.groups[task.index];
        const Index n = b.col_tiling().tile_extent(grp.j);
        const Index k = a.col_tiling().tile_extent(grp.k);
        for (const std::uint32_t i : grp.is) {
          const Index m = a.row_tiling().tile_extent(i);
          cost += gpu.gemm_time(m, n, k) / cfg.sustained_kernel_fraction +
                  cfg.task_overhead_s;
          tl->flops += 2.0 * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(k);
        }
        tl->compute_busy_s += cost;
        break;
      }
      case TaskKind::kStore: {
        double c_bytes = 0.0, remote_c = 0.0;
        for (const ColumnPiece& piece : block.pieces) {
          c_bytes += piece.c_bytes;
          if (static_cast<int>(piece.col) % plan.grid.q !=
              plan.nodes[task.node].grid_col) {
            remote_c += piece.c_bytes;
          }
        }
        cost = gpu.d2h_time(c_bytes);
        tl->h2d_busy_s += cost;
        tl->end_time_s = now + cost;
        if (remote_c > 0.0) {
          c_egress[task.node].emplace_back(now + cost, remote_c);
        }
        break;
      }
      case TaskKind::kASend:
      case TaskKind::kChunkUnload: break;
    }
    ++started;
    start[t] = now;
    end[t] = now + cost;
    events.emplace(end[t], seq++, t, false);
  };
  const auto dispatch = [&](std::uint32_t r, double now) {
    if (busy[r] || fifo[r].empty()) return;
    busy[r] = true;
    const TaskId t = fifo[r].front();
    fifo[r].pop_front();
    begin(t, now);
  };
  const auto enqueue = [&](TaskId t, double now) {
    const std::uint32_t r = resource_of(graph.task(t));
    if (r == kFree) return begin(t, now);
    fifo[r].push_back(t);
    dispatch(r, now);
  };
  // A chunkload also waits for the arrival of every remote tile it loads
  // (the executor's mailbox stall; §5.1: "execution stalls until the
  // required tiles are received").
  const auto release = [&](TaskId t, double now) {
    const TaskNode& task = graph.task(t);
    if (static_cast<TaskKind>(task.kind) != TaskKind::kChunkLoad) {
      return enqueue(t, now);
    }
    double arrived = now;
    for (const auto& [i, k] :
         plan.nodes[task.node].blocks[task.block].chunks[task.index].a_tiles) {
      if (plan.grid.home_of(i, k) != static_cast<int>(task.node)) {
        arrived = std::max(arrived, arrival[task.node].at(tile_key(i, k)));
      }
    }
    if (arrived == now) return enqueue(t, now);
    result.gpus[task.queue - num_nodes].stall_network_s += arrived - now;
    events.emplace(arrived, seq++, t, true);
  };

  // List-schedule the graph: roots are released in creation order (the
  // order a lane's ready queue starts with), successors as their last
  // predecessor ends.
  std::vector<std::uint32_t> deps(graph.size());
  for (TaskId t = 0; t < graph.size(); ++t) {
    deps[t] = graph.task(t).predecessors;
    if (deps[t] == 0 &&
        static_cast<TaskKind>(graph.task(t).kind) != TaskKind::kASend) {
      release(t, t0);
    }
  }
  while (!events.empty()) {
    [[maybe_unused]] const auto [now, order, t, arrived] = events.top();
    events.pop();
    if (arrived) {
      enqueue(t, now);
      continue;
    }
    const std::uint32_t r = resource_of(graph.task(t));
    if (r != kFree) busy[r] = false;
    for (const TaskId s : graph.successors(t)) {
      if (--deps[s] == 0) release(s, now);
    }
    if (r != kFree) dispatch(r, now);
  }
  // Every task ran: none waits on a predecessor that never ends (an edge
  // out of an asend, say), which would understate the makespan.
  BSTC_CHECK(started == graph.size());

  // The node is done when its GPUs are done and the last remote C tile
  // has left through its egress link ("as soon as a computation on C is
  // complete, it can be communicated back", §3.2.4 — overlapped, but the
  // tail can spill past the last kernel).
  double makespan = t0;
  for (const GpuTimeline& tl : result.gpus) {
    makespan = std::max(makespan, tl.end_time_s);
    result.total_flops += tl.flops;
  }
  for (auto& egress : c_egress) {
    std::sort(egress.begin(), egress.end());
    double cursor = 0.0;
    for (const auto& [t, bytes] : egress) {
      cursor = std::max(cursor, t) + bytes / link_rate;
    }
    makespan = std::max(makespan, cursor);
  }
  result.makespan_s = makespan;
  if (result.makespan_s > 0.0) {
    result.performance = result.total_flops / result.makespan_s;
    result.per_gpu_performance =
        result.performance / static_cast<double>(result.gpus.size());
  }

  if (cfg.trace != nullptr) {
    for (TaskId t = 0; t < graph.size(); ++t) {
      std::string name;
      task_name(low, graph.task(t), name);
      cfg.trace->push_back(obs::Span{std::move(name), obs::Category::kTask,
                                     graph.task(t).queue, start[t], end[t]});
    }
  }
  return result;
}

SimResult simulate_contraction(const Shape& a, const Shape& b, const Shape& c,
                               const MachineModel& machine,
                               const PlanConfig& plan_cfg,
                               const SimConfig& cfg) {
  const ExecutionPlan plan = build_plan(a, b, c, machine, plan_cfg);
  return simulate(plan, a, b, c, machine, cfg);
}

}  // namespace bstc
