#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "plan/builder.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

std::uint64_t tile_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

SimResult simulate(const ExecutionPlan& plan, const Shape& a, const Shape& b,
                   const Shape& c, const MachineModel& machine,
                   const SimConfig& cfg) {
  SimResult result;
  result.plan_stats = compute_stats(plan, a, b, c);
  const GpuSpec& gpu = machine.node.gpu;

  // Inspection overhead (paper §3.2.4: O(N^t log N^t + nnz B), negligible
  // but included in the paper's measurements, so included here).
  const double n_t = static_cast<double>(b.tile_cols());
  result.inspect_s = cfg.inspect_s_per_item *
                     (n_t * std::log2(std::max(2.0, n_t)) +
                      static_cast<double>(b.nnz_tiles()));

  double makespan = 0.0;
  for (std::size_t nid = 0; nid < plan.nodes.size(); ++nid) {
    const NodePlan& node = plan.nodes[nid];
    const int gpus = plan.gpus_of_node[nid];
    const std::size_t gpu_base = result.gpus.size();
    const auto trace_span = [&](const std::string& name, std::uint32_t gpu,
                                double start, double end) {
      if (cfg.trace != nullptr) {
        cfg.trace->push_back(obs::Span{name, obs::Category::kTask,
                                       static_cast<std::uint32_t>(gpu_base) +
                                           gpu,
                                       start, end});
      }
    };

    // ---- Background A broadcast ----------------------------------------
    // Remote A bytes stream into the node at the inter-node bandwidth.
    // Attribute each remote tile to the GPU that first needs it (plan
    // order), and let each GPU's share arrive proportionally so that the
    // full volume lands at R / bandwidth — a deterministic fluid model of
    // the paper's background broadcast.
    // First GPU (plan order) to load each A tile on this node; later
    // loads by *other* GPUs ride NVLink device-to-device (paper §4: "the
    // second GPU may use the copy residing on the first one").
    std::unordered_map<std::uint64_t, std::uint32_t> first_loader;
    std::vector<std::vector<double>> remote_bytes(
        node.blocks.size());  // [block][chunk] -> newly-arriving bytes
    std::vector<std::vector<double>> d2d_bytes(
        node.blocks.size());  // [block][chunk] -> sibling-GPU bytes
    std::vector<double> gpu_remote_total(static_cast<std::size_t>(gpus), 0.0);
    double node_remote_total = 0.0;
    for (std::size_t bi = 0; bi < node.blocks.size(); ++bi) {
      const BlockPlan& block = node.blocks[bi];
      remote_bytes[bi].assign(block.chunks.size(), 0.0);
      d2d_bytes[bi].assign(block.chunks.size(), 0.0);
      for (std::size_t ci = 0; ci < block.chunks.size(); ++ci) {
        double bytes = 0.0;
        for (const auto& [i, k] : block.chunks[ci].a_tiles) {
          const double tile_bytes =
              8.0 * static_cast<double>(a.row_tiling().tile_extent(i)) *
              static_cast<double>(a.col_tiling().tile_extent(k));
          const auto [it, fresh] =
              first_loader.emplace(tile_key(i, k), block.gpu);
          if (!fresh) {
            if (it->second != block.gpu) d2d_bytes[bi][ci] += tile_bytes;
            continue;
          }
          const int home = plan.grid.node_id(
              static_cast<int>(i) % plan.grid.p,
              static_cast<int>(k) % plan.grid.q);
          if (home != static_cast<int>(nid)) bytes += tile_bytes;
        }
        remote_bytes[bi][ci] = bytes;
        gpu_remote_total[block.gpu] += bytes;
        node_remote_total += bytes;
      }
    }
    // Per-GPU arrival rate share of the node's injection bandwidth.
    const double node_net_rate =
        machine.internode_bandwidth * cfg.network_efficiency;
    std::vector<double> gpu_net_rate(static_cast<std::size_t>(gpus),
                                     node_net_rate);
    if (node_remote_total > 0.0) {
      for (int g = 0; g < gpus; ++g) {
        const double share =
            gpu_remote_total[static_cast<std::size_t>(g)] / node_remote_total;
        gpu_net_rate[static_cast<std::size_t>(g)] =
            std::max(1.0, node_net_rate * share);
      }
    }

    // ---- CPU generation of B -------------------------------------------
    // The node CPU generates B pieces in the order GPUs consume blocks
    // (round-robin across GPUs by block rank).
    std::vector<double> gen_end(node.blocks.size(), 0.0);
    {
      std::vector<std::vector<std::size_t>> blocks_of_gpu(
          static_cast<std::size_t>(gpus));
      for (std::size_t bi = 0; bi < node.blocks.size(); ++bi) {
        blocks_of_gpu[node.blocks[bi].gpu].push_back(bi);
      }
      double cpu_cursor = result.inspect_s;
      bool progressed = true;
      for (std::size_t round = 0; progressed; ++round) {
        progressed = false;
        for (int g = 0; g < gpus; ++g) {
          const auto& list = blocks_of_gpu[static_cast<std::size_t>(g)];
          if (round >= list.size()) continue;
          progressed = true;
          const std::size_t bi = list[round];
          double b_bytes = 0.0;
          for (const ColumnPiece& piece : node.blocks[bi].pieces) {
            b_bytes += piece.b_bytes;
          }
          cpu_cursor += b_bytes / cfg.generation_rate;
          gen_end[bi] = cpu_cursor;
        }
      }
    }

    // ---- Per-GPU pipeline ------------------------------------------------
    std::vector<GpuTimeline> timelines(static_cast<std::size_t>(gpus));
    std::vector<double> xfer_free(static_cast<std::size_t>(gpus),
                                  result.inspect_s);
    std::vector<double> compute_free(static_cast<std::size_t>(gpus),
                                     result.inspect_s);
    std::vector<double> prev_block_end(static_cast<std::size_t>(gpus),
                                       result.inspect_s);
    std::vector<double> net_cum(static_cast<std::size_t>(gpus), 0.0);
    // C tiles returning to remote home nodes: (block end, bytes) events
    // draining through the node's egress link.
    std::vector<std::pair<double, double>> c_egress;

    for (std::size_t bi = 0; bi < node.blocks.size(); ++bi) {
      const BlockPlan& block = node.blocks[bi];
      const std::uint32_t g = block.gpu;
      GpuTimeline& tl = timelines[g];

      double piece_bytes = 0.0, c_bytes = 0.0;
      std::size_t piece_tiles = 0;
      for (const ColumnPiece& piece : block.pieces) {
        piece_bytes += piece.bytes();
        c_bytes += piece.c_bytes;
        piece_tiles += piece.ks.size();
      }

      // Stage the block (B + C) once generation finished and the previous
      // block fully completed. Transfers happen at tile granularity
      // (paper §4), so the fixed cost applies per tile.
      const double gen_ready =
          gen_end[bi] > 0.0 ? gen_end[bi] : prev_block_end[g];
      double t = std::max({prev_block_end[g], gen_ready, xfer_free[g]});
      const double piece_h2d =
          cfg.task_overhead_s +
          static_cast<double>(piece_tiles) * gpu.transfer_latency_s +
          piece_bytes / gpu.h2d_bandwidth;
      xfer_free[g] = t + piece_h2d;
      tl.h2d_busy_s += piece_h2d;
      const double pieces_end = xfer_free[g];
      trace_span("stage(b" + std::to_string(bi) + ")", g, t, pieces_end);

      // Chunk pipeline. Oversized blocks (footprint beyond the budget, or
      // even beyond the device) degrade to unprefetched streaming.
      const double spare =
          std::max(0.0, machine.node.gpu.memory_bytes - block.bytes);
      double max_chunk_bytes = 0.0;
      for (const Chunk& chunk : block.chunks) {
        max_chunk_bytes = std::max(max_chunk_bytes, chunk.a_bytes);
      }
      std::size_t depth = 1;
      if (max_chunk_bytes > 0.0) {
        depth = std::min<std::size_t>(
            static_cast<std::size_t>(std::max(1, plan.config.prefetch_depth)),
            static_cast<std::size_t>(spare / max_chunk_bytes));
        depth = std::max<std::size_t>(depth, 1);
      }

      std::vector<double> load_end(block.chunks.size(), pieces_end);
      std::vector<double> comp_end(block.chunks.size(), pieces_end);
      double block_compute_end = pieces_end;
      const GemmEnumerator enumerator(block);
      for (std::size_t ci = 0; ci < block.chunks.size(); ++ci) {
        const Chunk& chunk = block.chunks[ci];
        // Network gate: this chunk's remote bytes must have arrived.
        net_cum[g] += remote_bytes[bi][ci];
        const double net_ready =
            machine.internode_latency_s + net_cum[g] / gpu_net_rate[g];

        double start = std::max(xfer_free[g], prev_block_end[g]);
        if (ci >= depth) start = std::max(start, comp_end[ci - depth]);
        const double gated = std::max(start, net_ready);
        tl.stall_network_s += gated - start;
        // Tiles already resident on a sibling GPU come device-to-device;
        // every tile pays the per-transfer fixed cost.
        const double sibling = d2d_bytes[bi][ci];
        const double h2d =
            cfg.task_overhead_s +
            static_cast<double>(chunk.a_tiles.size()) *
                gpu.transfer_latency_s +
            (chunk.a_bytes - sibling) / gpu.h2d_bandwidth +
            sibling / gpu.d2d_bandwidth;
        load_end[ci] = gated + h2d;
        xfer_free[g] = load_end[ci];
        tl.h2d_busy_s += h2d;
        trace_span("chunkload(b" + std::to_string(bi) + "," +
                       std::to_string(ci) + ")",
                   g, gated, load_end[ci]);

        // Kernel time of all GEMMs of this chunk.
        double kernel_s = 0.0;
        enumerator.for_each(chunk, c, [&](const GemmTask& task) {
          const Index m = a.row_tiling().tile_extent(task.i);
          const Index n = b.col_tiling().tile_extent(task.j);
          const Index k = a.col_tiling().tile_extent(task.k);
          kernel_s += gpu.gemm_time(m, n, k) / cfg.sustained_kernel_fraction +
                      cfg.task_overhead_s;
          tl.flops += 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(k);
        });
        const double cstart =
            std::max({compute_free[g], load_end[ci], pieces_end});
        comp_end[ci] = cstart + kernel_s;
        compute_free[g] = comp_end[ci];
        tl.compute_busy_s += kernel_s;
        block_compute_end = std::max(block_compute_end, comp_end[ci]);
        trace_span("compute(b" + std::to_string(bi) + "," +
                       std::to_string(ci) + ")",
                   g, cstart, comp_end[ci]);
      }

      // Write C back (serialized on the transfer engine).
      const double d2h = gpu.d2h_time(c_bytes);
      const double flush_start = std::max(xfer_free[g], block_compute_end);
      prev_block_end[g] = flush_start + d2h;
      xfer_free[g] = prev_block_end[g];
      tl.h2d_busy_s += d2h;
      tl.end_time_s = prev_block_end[g];
      trace_span("flushC(b" + std::to_string(bi) + ")", g, flush_start,
                 prev_block_end[g]);

      // Remote C tiles of this block enter the node's egress queue.
      double remote_c = 0.0;
      for (const ColumnPiece& piece : block.pieces) {
        if (static_cast<int>(piece.col) % plan.grid.q != node.grid_col) {
          remote_c += piece.c_bytes;
        }
      }
      if (remote_c > 0.0) c_egress.emplace_back(prev_block_end[g], remote_c);
    }

    // Drain the C egress queue through the node's injection link; the
    // node is done when its GPUs are done and the last remote C tile has
    // left ("as soon as a computation on C is complete, it can be
    // communicated back", §3.2.4 — overlapped, but the tail can spill
    // past the last kernel).
    double node_end = 0.0;
    for (const GpuTimeline& tl : timelines) {
      node_end = std::max(node_end, tl.end_time_s);
    }
    std::sort(c_egress.begin(), c_egress.end());
    double egress_cursor = 0.0;
    for (const auto& [t, bytes] : c_egress) {
      egress_cursor = std::max(egress_cursor, t) + bytes / node_net_rate;
    }
    node_end = std::max(node_end, egress_cursor);
    makespan = std::max(makespan, node_end);

    for (const GpuTimeline& tl : timelines) {
      result.gpus.push_back(tl);
      result.total_flops += tl.flops;
    }
  }

  result.makespan_s = std::max(makespan, result.inspect_s);
  if (result.makespan_s > 0.0) {
    result.performance = result.total_flops / result.makespan_s;
    result.per_gpu_performance =
        result.gpus.empty()
            ? 0.0
            : result.performance / static_cast<double>(result.gpus.size());
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
