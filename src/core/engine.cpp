#include "core/engine.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "comm/bcast.hpp"
#include "comm/transport.hpp"
#include "obs/obs.hpp"
#include "plan/builder.hpp"
#include "runtime/compute_pool.hpp"
#include "runtime/device.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_graph.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"
#include "tile/gemm.hpp"

namespace bstc {
namespace {

std::uint64_t tile_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Device-resident data of one block while it is being processed.
/// Devices share host memory, so A and B are staged by reference: the
/// maps hold Tile::view()s of the host tiles, and only C is owned here.
struct BlockResidence {
  std::unordered_map<std::uint64_t, Tile> b;  ///< key (k, j)
  std::unordered_map<std::uint64_t, Tile> c;  ///< key (i, j)
  std::unordered_map<std::uint64_t, Tile> a;  ///< key (i, k)
  /// Per piece, the host B tiles its gen task acquired (parallel to
  /// ColumnPiece::ks); the piece's load task stages views of them.
  std::vector<std::vector<const Tile*>> host_b;
  std::mutex mutex;  ///< guards the maps (CPU staging vs device tasks)
};

/// A host tile staged on a device without copying its payload.
Tile view_of(const Tile& host) {
  return Tile::view(host.data(), host.rows(), host.cols());
}

/// Smallest mean B-tile miss, in elements, worth fanning a piece's misses
/// out to the compute pool one tile per unit. An empty
/// ComputePool::parallel_for round trip costs 1.4-3 us with helpers
/// (bench_micro BM_PoolForkJoin, 3-4 threads); a 16k-element tile takes
/// ~33 us to generate even at the cheapest generator's rate
/// (random_tile_generator, ~2 ns per element), so the fork-join stays a
/// small fraction of each unit. Smaller tiles stay on the CPU lane.
constexpr double kGenGrainElements = 16384.0;

/// Ranks sharing this process's host, which split its cores between
/// them: in distributed mode the ranks node_of_rank places on the local
/// rank's node; 1 when this process runs every rank, or when the map is
/// empty (every rank its own node).
unsigned ranks_on_host(const EngineConfig& cfg) {
  if (cfg.local_rank < 0 || cfg.node_of_rank.empty()) return 1;
  const int host = bcast_node_of(cfg.node_of_rank, cfg.local_rank);
  return static_cast<unsigned>(std::count(cfg.node_of_rank.begin(),
                                          cfg.node_of_rank.end(), host));
}

/// Host-side state of one simulated rank.
struct NodeState {
  TileSource* b = nullptr;  ///< per-node B backend (paper §4)
  std::unordered_map<std::uint64_t, Tile> c_store;  ///< computed C tiles
  std::mutex mutex;
};

/// Both operands conform to the product (and to C's initial value).
void require_conformant(const BlockSparseMatrix& a, const Shape& b_shape,
                        const BlockSparseMatrix* c_init) {
  BSTC_REQUIRE(a.shape().col_tiling() == b_shape.row_tiling(),
               "inner tilings of A and B must agree");
  if (c_init != nullptr) {
    BSTC_REQUIRE(c_init->row_tiling() == a.row_tiling() &&
                     c_init->col_tiling() == b_shape.col_tiling(),
                 "C init tilings must match the product");
  }
}

/// The state of one call and the dispatcher that runs the lowering's
/// task records on it.
struct CallState final : TaskDispatch {
  CallState(const ExecutionPlan& plan_, const LoweredPlan& lowered_,
            const BlockSparseMatrix& a_, const Shape& b_shape_,
            const Shape& c_shape_, ComputePool& pool_, bool b_persists_)
      : plan(plan_),
        lowered(lowered_),
        a(a_),
        b_shape(b_shape_),
        c_shape(c_shape_),
        pool(pool_),
        b_persists(b_persists_),
        num_nodes(plan_.grid.nodes()) {}

  void run(const TaskNode& t) override {
    switch (static_cast<TaskKind>(t.kind)) {
      case TaskKind::kASend: return a_send(t);
      case TaskKind::kGen: return gen(t);
      case TaskKind::kLoad: return load(t);
      case TaskKind::kChunkLoad: return chunk_load(t);
      case TaskKind::kGemmBatch: return gemm_batch(t);
      case TaskKind::kChunkUnload: return chunk_unload(t);
      case TaskKind::kStore: return store(t);
    }
    BSTC_CHECK(false);
  }

  void name(const TaskNode& t, std::string& out) const override {
    task_name(lowered, t, out);
  }

  const BlockPlan& block_of(const TaskNode& t) const {
    return plan.nodes[t.node].blocks[t.block];
  }
  BlockResidence& residence_of(const TaskNode& t) {
    return residences[t.node][t.block];
  }
  /// The device whose queue runs `t` (devices are in queue order).
  DeviceMemory& device_of(const TaskNode& t) {
    return *devices[t.queue - static_cast<std::uint32_t>(num_nodes)];
  }

  // Root send tasks on the home ranks' CPU queues (the background
  // broadcast of A along grid rows, paper §3.2.4): one task per tile
  // broadcasting to its full consumer set.
  void a_send(const TaskNode& t) {
    const LoweredPlan::ASend& send = lowered.a_sends[t.index];
    transport->send_multi(send.home, send.consumers, tile_key(send.i, send.k),
                          a.tile(send.i, send.k));
  }

  void gen(const TaskNode& t) {
    NodeState& ns = node_states[t.node];
    const ColumnPiece& piece = block_of(t).pieces[t.index];
    std::vector<const Tile*>& host_b = residence_of(t).host_b[t.index];
    // Session mode: the tile survives across iterations and staging takes
    // no pin. Otherwise the pin taken here is released by the block's
    // store task.
    auto acquire = [&](std::size_t x) {
      host_b[x] = b_persists
                      ? &ns.b->acquire_persistent(piece.ks[x], piece.col)
                      : &ns.b->acquire(piece.ks[x], piece.col);
    };
    // Cached tiles resolve inline; the misses are generated tile by tile
    // on the pool when they are large enough.
    std::vector<std::size_t> misses;
    double miss_elements = 0.0;
    const Index cols = b_shape.col_tiling().tile_extent(piece.col);
    for (std::size_t x = 0; x < piece.ks.size(); ++x) {
      if (ns.b->resident(piece.ks[x], piece.col)) {
        acquire(x);
      } else {
        misses.push_back(x);
        miss_elements += static_cast<double>(
            b_shape.row_tiling().tile_extent(piece.ks[x]) * cols);
      }
    }
    if (misses.size() < 2 ||
        miss_elements <
            kGenGrainElements * static_cast<double>(misses.size())) {
      for (const std::size_t x : misses) acquire(x);
    } else {
      pool.parallel_for(misses.size(),
                        [&](std::size_t u) { acquire(misses[u]); });
    }
  }

  // Stage the generated B tiles of a piece on the device.
  void load(const TaskNode& t) {
    BlockResidence& res = residence_of(t);
    const ColumnPiece& piece = block_of(t).pieces[t.index];
    const std::vector<const Tile*>& host_b = res.host_b[t.index];
    device_of(t).allocate(static_cast<std::size_t>(piece.bytes()));
    std::lock_guard lock(res.mutex);
    for (std::size_t x = 0; x < piece.ks.size(); ++x) {
      res.b.emplace(tile_key(piece.ks[x], piece.col), view_of(*host_b[x]));
    }
    // Stage C tiles of this column for the slice rows (zero-initialised;
    // any initial C is added at assembly).
    const auto p = static_cast<std::size_t>(plan.grid.p);
    for (auto i = static_cast<std::size_t>(plan.nodes[t.node].grid_row);
         i < c_shape.tile_rows(); i += p) {
      if (!c_shape.nonzero(i, piece.col)) continue;
      const std::uint64_t key =
          tile_key(static_cast<std::uint32_t>(i), piece.col);
      if (res.c.find(key) == res.c.end()) {
        res.c.emplace(key,
                      Tile(c_shape.row_tiling().tile_extent(i),
                           c_shape.col_tiling().tile_extent(piece.col)));
      }
    }
  }

  void chunk_load(const TaskNode& t) {
    BlockResidence& res = residence_of(t);
    const Chunk& chunk = block_of(t).chunks[t.index];
    const auto n = static_cast<int>(t.node);
    device_of(t).allocate(static_cast<std::size_t>(chunk.a_bytes));
    std::lock_guard lock(res.mutex);
    for (const auto& [i, k] : chunk.a_tiles) {
      // A remote tile stalls until its message arrived (the send tasks
      // are dependence-free roots, so progress is guaranteed). Either
      // source outlives the run: mailbox entries are never evicted, and
      // `a` is the caller's.
      const Tile& host = plan.grid.home_of(i, k) != n
                             ? transport->mailbox(n).wait(tile_key(i, k))
                             : a.tile(i, k);
      res.a.emplace(tile_key(i, k), view_of(host));
    }
  }

  // One task per (k, j) B tile a chunk touches: the B panel is packed once
  // and reused across every A-row tile of the group, and scheduling
  // overhead is paid per group, not per GEMM.
  void gemm_batch(const TaskNode& t) {
    const GemmGroup& grp = lowered.groups[t.index];
    BlockResidence& res = residence_of(t);
    // A device queue runs one task at a time, so no other GEMM task
    // touches these C tiles meanwhile; the pool's units of this one write
    // disjoint columns or disjoint C tiles.
    const Tile& bt = res.b.at(tile_key(grp.k, grp.j));
    std::vector<GemmBatchItem> items;
    items.reserve(grp.is.size());
    for (const std::uint32_t i : grp.is) {
      items.push_back(
          {&res.a.at(tile_key(i, grp.k)), &res.c.at(tile_key(i, grp.j))});
    }
    // One autotuned kernel for the whole shared-B group.
    const MicroKernel& mk = select_batch_microkernel(items, bt);
    gemm_batch_split(pool, plan_gemm_batch_split(mk, items, bt, pool.size()),
                     mk, 1.0, items, bt, 1.0);
  }

  void chunk_unload(const TaskNode& t) {
    BlockResidence& res = residence_of(t);
    const Chunk& chunk = block_of(t).chunks[t.index];
    std::lock_guard lock(res.mutex);
    for (const auto& [i, k] : chunk.a_tiles) res.a.erase(tile_key(i, k));
    device_of(t).release(static_cast<std::size_t>(chunk.a_bytes));
  }

  // Flush C to the host store and free the block.
  void store(const TaskNode& t) {
    NodeState& ns = node_states[t.node];
    BlockResidence& res = residence_of(t);
    const BlockPlan& block = block_of(t);
    std::lock_guard lock(res.mutex);
    {
      std::lock_guard node_lock(ns.mutex);
      for (auto& [key, tile] : res.c) {
        const auto it = ns.c_store.find(key);
        if (it == ns.c_store.end()) {
          ns.c_store.emplace(key, std::move(tile));
        } else {
          it->second.axpy(1.0, tile);  // segmented-column reduce
        }
      }
    }
    res.c.clear();
    res.b.clear();
    // Drop the gen tasks' pins now that no view of the tiles is left
    // (session mode took none).
    if (!b_persists) {
      for (const ColumnPiece& piece : block.pieces) {
        for (const std::uint32_t k : piece.ks) ns.b->release(k, piece.col);
      }
    }
    device_of(t).release(static_cast<std::size_t>(block.bytes));
  }

  const ExecutionPlan& plan;
  const LoweredPlan& lowered;
  const BlockSparseMatrix& a;
  const Shape& b_shape;
  const Shape& c_shape;
  ComputePool& pool;
  const bool b_persists;
  const int num_nodes;
  Transport* transport = nullptr;  ///< null only on a one-rank grid
  /// Per-device memory trackers, flattened in queue order.
  std::vector<std::unique_ptr<DeviceMemory>> devices;
  std::vector<NodeState> node_states;
  /// Residences, pre-sized so tasks can hold stable pointers.
  std::vector<std::vector<BlockResidence>> residences;
};

/// Visit every (block, item) of `node` in consumption order, where block
/// `bi` has items(bi) items: round r holds the r-th block of every GPU,
/// and within a round item x of each such block comes before item x + 1
/// of any, so every device gets its first item early instead of waiting
/// for the whole of another device's block.
template <typename Items, typename Visit>
void for_each_in_rounds(const NodePlan& node, Items items, Visit visit) {
  std::map<std::uint32_t, std::vector<std::size_t>> blocks_of_gpu;
  std::size_t rounds = 0;
  for (std::size_t bi = 0; bi < node.blocks.size(); ++bi) {
    auto& blocks = blocks_of_gpu[node.blocks[bi].gpu];
    blocks.push_back(bi);
    rounds = std::max(rounds, blocks.size());
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t x = 0;; ++x) {
      bool any = false;
      for (const auto& [gpu, blocks] : blocks_of_gpu) {
        if (r >= blocks.size() || x >= items(blocks[r])) continue;
        any = true;
        visit(blocks[r], x);
      }
      if (!any) break;
    }
  }
}

TaskId add_task(TaskGraph& graph, std::uint32_t queue, TaskKind kind,
                std::size_t node, std::size_t block, std::size_t index = 0) {
  return graph.add_task(queue, static_cast<std::uint8_t>(kind),
                        static_cast<std::uint32_t>(node),
                        static_cast<std::uint32_t>(block),
                        static_cast<std::uint32_t>(index));
}

}  // namespace

EngineResult contract(const BlockSparseMatrix& a, const Shape& b_shape,
                      const TileGenerator& b_generator, const Shape& c_shape,
                      const BlockSparseMatrix* c_init,
                      const MachineModel& machine, const EngineConfig& cfg) {
  const ExecutionPlan plan =
      build_plan(a.shape(), b_shape, c_shape, machine, cfg.plan);
  return contract_with_plan(plan, a, b_shape, b_generator, c_shape, c_init,
                            machine, cfg);
}

EngineResult contract_with_plan(const ExecutionPlan& plan,
                                const BlockSparseMatrix& a,
                                const Shape& b_shape,
                                const TileGenerator& b_generator,
                                const Shape& c_shape,
                                const BlockSparseMatrix* c_init,
                                const MachineModel& machine,
                                const EngineConfig& cfg) {
  require_conformant(a, b_shape, c_init);
  Timer timer;
  const std::shared_ptr<const LoweredPlan> lowered =
      lower_plan(plan, a.shape(), b_shape, c_shape, machine, cfg);
  EngineResult result = contract_lowered(plan, *lowered, a, b_shape,
                                         b_generator, c_shape, c_init,
                                         machine, cfg);
  result.wall_seconds = timer.elapsed_s();
  return result;
}

void task_name(const LoweredPlan& lowered, const TaskNode& task,
               std::string& out) {
  // "kind(n<node>,b<block>[,<prefix><index>])"
  auto block_task = [&](const char* kind, const char* index_prefix) {
    out.append(kind).append("(n").append(std::to_string(task.node));
    out.append(",b").append(std::to_string(task.block));
    if (index_prefix != nullptr) {
      out.append(",").append(index_prefix).append(std::to_string(task.index));
    }
    out.append(")");
  };
  switch (static_cast<TaskKind>(task.kind)) {
    case TaskKind::kASend: {
      const LoweredPlan::ASend& send = lowered.a_sends[task.index];
      out.append("asend(").append(std::to_string(send.i)).append(",");
      out.append(std::to_string(send.k)).append("->x");
      out.append(std::to_string(send.consumers.size())).append(")");
      return;
    }
    case TaskKind::kGen: return block_task("gen", "p");
    case TaskKind::kLoad: return block_task("load", "p");
    case TaskKind::kChunkLoad: return block_task("chunkload", "");
    case TaskKind::kGemmBatch: {
      const GemmGroup& grp = lowered.groups[task.index];
      out.append("gemmbatch(").append(std::to_string(grp.k)).append(",");
      out.append(std::to_string(grp.j)).append(",x");
      out.append(std::to_string(grp.is.size())).append(")");
      return;
    }
    case TaskKind::kChunkUnload: return block_task("chunkunload", "");
    case TaskKind::kStore: return block_task("store", nullptr);
  }
}

bool LoweredPlan::fits(const EngineConfig& cfg) const {
  return local_rank == cfg.local_rank && node_of_rank == cfg.node_of_rank;
}

std::shared_ptr<const LoweredPlan> lower_plan(const ExecutionPlan& plan,
                                              const Shape& a_shape,
                                              const Shape& b_shape,
                                              const Shape& c_shape,
                                              const MachineModel& machine,
                                              const EngineConfig& cfg) {
  auto lowered = std::make_shared<LoweredPlan>();
  LoweredPlan& low = *lowered;
  const int num_nodes = plan.grid.nodes();
  // Tile homes are 2D-cyclic over grid *slots*; the grid's layout maps
  // slots to ranks (identity unless a node-aware permutation was planned).

  // Distributed single-rank mode: lower only local_rank's share of the
  // DAG (it runs against an external network transport).
  const bool distributed = cfg.local_rank >= 0;
  if (distributed) {
    BSTC_REQUIRE(cfg.local_rank < num_nodes,
                 "local_rank out of range for the plan's grid");
  }
  low.local_rank = cfg.local_rank;
  low.node_of_rank = cfg.node_of_rank;

  // Queue layout: [0, num_nodes) are CPU queues (B generation), then one
  // queue per device.
  std::vector<std::uint32_t> device_queue_base(
      static_cast<std::size_t>(num_nodes));
  std::uint32_t next_queue = static_cast<std::uint32_t>(num_nodes);
  for (int n = 0; n < num_nodes; ++n) {
    device_queue_base[static_cast<std::size_t>(n)] = next_queue;
    next_queue += static_cast<std::uint32_t>(
        plan.gpus_of_node[static_cast<std::size_t>(n)]);
  }
  low.num_queues = next_queue;

  // Messages for remote A tiles: per A tile, its home rank and the
  // ascending list of consumer ranks. One *collective* send per tile (not
  // one per consumer) so the transport can serialize once and fan out
  // tree/ring/shm. A home sends its tiles in first-need order: by the
  // earliest position at which any consumer loads the tile in its chunk
  // sequence (chunks in consumption order), ties by (i, k), so the first
  // chunks of every consumer fill before the last ones.
  struct PendingSend {
    std::size_t first_need = 0;
    LoweredPlan::ASend send;
  };
  std::vector<PendingSend> sends;
  std::unordered_map<std::uint64_t, std::size_t> send_of_tile;
  for (int n = 0; n < num_nodes; ++n) {
    const NodePlan& node_plan = plan.nodes[static_cast<std::size_t>(n)];
    std::size_t position = 0;
    for_each_in_rounds(
        node_plan,
        [&](std::size_t bi) { return node_plan.blocks[bi].chunks.size(); },
        [&](std::size_t bi, std::size_t ci) {
          for (const auto& [i, k] : node_plan.blocks[bi].chunks[ci].a_tiles) {
            const int home = plan.grid.home_of(i, k);
            if (home == n) continue;
            // Each rank runs only its *own* send tasks in distributed mode
            // (it holds only its home share of A authoritatively).
            if (distributed && home != cfg.local_rank) continue;
            const auto [it, fresh] =
                send_of_tile.try_emplace(tile_key(i, k), sends.size());
            if (fresh) sends.push_back({position, {i, k, home, {}}});
            PendingSend& pending = sends[it->second];
            pending.first_need = std::min(pending.first_need, position);
            LoweredPlan::ASend& send = pending.send;
            // Ascending, once per consumer: the n loop ascends.
            if (send.consumers.empty() || send.consumers.back() != n) {
              send.consumers.push_back(n);
            }
          }
          ++position;
        });
  }
  std::sort(sends.begin(), sends.end(),
            [](const PendingSend& x, const PendingSend& y) {
              return std::tie(x.first_need, x.send.i, x.send.k) <
                     std::tie(y.first_need, y.send.i, y.send.k);
            });
  TaskGraph& graph = low.graph;
  for (PendingSend& pending : sends) {
    add_task(graph, static_cast<std::uint32_t>(pending.send.home),
             TaskKind::kASend, 0, 0, low.a_sends.size());
    low.a_sends.push_back(std::move(pending.send));
  }

  low.prefetch_depth.resize(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    // Distributed: only the local rank's blocks become tasks (queue ids
    // stay global so the plan's device numbering is unchanged).
    if (distributed && n != cfg.local_rank) continue;
    const NodePlan& node_plan = plan.nodes[static_cast<std::size_t>(n)];
    const auto cpu_queue = static_cast<std::uint32_t>(n);
    const auto node = static_cast<std::size_t>(n);

    // --- Gen tasks, created first and in consumption order. ---
    // They are the CPU queue's roots, which it runs in creation order.
    std::vector<std::vector<TaskId>> gen_of_piece(node_plan.blocks.size());
    for_each_in_rounds(
        node_plan,
        [&](std::size_t bi) { return node_plan.blocks[bi].pieces.size(); },
        [&](std::size_t bi, std::size_t pi) {
          gen_of_piece[bi].push_back(
              add_task(graph, cpu_queue, TaskKind::kGen, node, bi, pi));
        });

    // Per GPU: the previous block's store task (for sequential-block
    // control edges).
    std::unordered_map<std::uint32_t, TaskId> prev_store_of_gpu;

    for (std::size_t bi = 0; bi < node_plan.blocks.size(); ++bi) {
      const BlockPlan& block = node_plan.blocks[bi];
      const std::uint32_t dq = device_queue_base[node] + block.gpu;

      // How much device memory the block leaves for A chunks decides the
      // prefetch depth (2 = paper's 25% + 25% scheme).
      const double spare = machine.node.gpu.memory_bytes - block.bytes;
      double max_chunk_bytes = 0.0;
      for (const Chunk& chunk : block.chunks) {
        max_chunk_bytes = std::max(max_chunk_bytes, chunk.a_bytes);
      }
      BSTC_REQUIRE(leaves_room_for_a_chunk(block,
                                           machine.node.gpu.memory_bytes),
                   "block footprint leaves no room for any A chunk; the "
                   "tiling is too coarse for this GPU memory");
      const int prefetch_depth =
          max_chunk_bytes > 0.0
              ? std::max(1, std::min(plan.config.prefetch_depth,
                                     static_cast<int>(spare /
                                                      max_chunk_bytes)))
              : 1;
      low.prefetch_depth[node].push_back(prefetch_depth);

      // --- Piece tasks: stage the generated B tiles on the device. ---
      std::vector<TaskId> piece_loads;
      for (std::size_t pi = 0; pi < block.pieces.size(); ++pi) {
        const TaskId load = add_task(graph, dq, TaskKind::kLoad, node, bi, pi);
        graph.add_edge(gen_of_piece[bi][pi], load, EdgeKind::kData);
        piece_loads.push_back(load);
      }

      // --- Chunk tasks: A loads, batched GEMMs, unloads. ---
      const GemmEnumerator enumerator(block);
      std::vector<TaskId> chunk_loads, chunk_unloads;
      std::vector<std::vector<TaskId>> chunk_gemms(block.chunks.size());
      for (std::size_t ci = 0; ci < block.chunks.size(); ++ci) {
        const TaskId load =
            add_task(graph, dq, TaskKind::kChunkLoad, node, bi, ci);
        chunk_loads.push_back(load);

        for (GemmGroup& grp :
             enumerator.gemm_groups(block.chunks[ci], c_shape)) {
          const TaskId g = add_task(graph, dq, TaskKind::kGemmBatch, node,
                                    bi, low.groups.size());
          chunk_gemms[ci].push_back(g);
          // Dataflow: the batch needs the piece owning its B tile staged.
          graph.add_edge(piece_loads[grp.piece], g, EdgeKind::kData);
          low.groups.push_back(std::move(grp));
        }

        const TaskId unload =
            add_task(graph, dq, TaskKind::kChunkUnload, node, bi, ci);
        chunk_unloads.push_back(unload);

        // Dataflow: load -> gemms -> unload (or load -> unload directly
        // when the chunk drives no GEMM under the C screen).
        if (chunk_gemms[ci].empty()) {
          graph.add_edge(load, unload, EdgeKind::kData);
        }
        for (const TaskId g : chunk_gemms[ci]) {
          graph.add_edge(load, g, EdgeKind::kData);
          graph.add_edge(g, unload, EdgeKind::kData);
        }
        // Control: bounded prefetch — chunk ci may only start loading
        // after chunk ci - prefetch_depth has been evicted.
        if (ci >= static_cast<std::size_t>(prefetch_depth)) {
          graph.add_edge(
              chunk_unloads[ci - static_cast<std::size_t>(prefetch_depth)],
              load, EdgeKind::kControl);
        }
      }

      // --- Store task: flush C to the host store, free the block. ---
      const TaskId store = add_task(graph, dq, TaskKind::kStore, node, bi);
      for (const auto& gemms : chunk_gemms) {
        for (const TaskId g : gemms) graph.add_edge(g, store, EdgeKind::kData);
      }
      for (const TaskId u : chunk_unloads) {
        graph.add_edge(u, store, EdgeKind::kData);
      }
      for (const TaskId l : piece_loads) {
        graph.add_edge(l, store, EdgeKind::kData);
      }

      // Control: the next block of this GPU may only start loading after
      // this block is flushed (blocks are streamed one at a time, §3.2.2),
      // and its first chunks wait as well.
      const auto prev = prev_store_of_gpu.find(block.gpu);
      if (prev != prev_store_of_gpu.end()) {
        for (const TaskId l : piece_loads) {
          graph.add_edge(prev->second, l, EdgeKind::kControl);
        }
        for (std::size_t ci = 0;
             ci < std::min<std::size_t>(chunk_loads.size(),
                                        static_cast<std::size_t>(
                                            prefetch_depth));
             ++ci) {
          graph.add_edge(prev->second, chunk_loads[ci], EdgeKind::kControl);
        }
      }
      prev_store_of_gpu[block.gpu] = store;
    }
  }

  graph.seal();
  BSTC_CHECK(graph.queues() <= low.num_queues);
  low.stats =
      compute_stats(plan, a_shape, b_shape, c_shape, cfg.node_of_rank);
  obs::Registry::instance().counter_add("bstc_plan_lowerings_total");
  return lowered;
}

EngineResult contract_lowered(const ExecutionPlan& plan,
                              const LoweredPlan& lowered,
                              const BlockSparseMatrix& a,
                              const Shape& b_shape,
                              const TileGenerator& b_generator,
                              const Shape& c_shape,
                              const BlockSparseMatrix* c_init,
                              const MachineModel& machine,
                              const EngineConfig& cfg) {
  if (!lowered.fits(cfg)) {
    return contract_with_plan(plan, a, b_shape, b_generator, c_shape, c_init,
                              machine, cfg);
  }
  require_conformant(a, b_shape, c_init);

  Timer timer;
  const int num_nodes = plan.grid.nodes();
  const bool distributed = cfg.local_rank >= 0;
  if (distributed) {
    BSTC_REQUIRE(cfg.transport != nullptr,
                 "distributed execution needs an external transport");
  }

  // Lanes lend their divisible work (gemmbatch column panels or item
  // ranges, a piece's missing B tiles) to the host's otherwise idle cores.
  const bool b_persists = cfg.b_cache != nullptr;
  CallState call(plan, lowered, a, b_shape, c_shape,
                 ComputePool::process(ranks_on_host(cfg)), b_persists);

  for (int n = 0; n < num_nodes; ++n) {
    for (int g = 0; g < plan.gpus_of_node[static_cast<std::size_t>(n)]; ++g) {
      std::string name = "node";
      name.append(std::to_string(n)).append(".gpu").append(std::to_string(g));
      call.devices.push_back(std::make_unique<DeviceMemory>(
          std::move(name),
          static_cast<std::size_t>(machine.node.gpu.memory_bytes)));
    }
  }

  // Node state (per-rank on-demand B, C accumulation store). In session
  // mode (cfg.b_cache) the caches are caller-owned and survive this call;
  // otherwise they are fresh and die with it.
  std::vector<std::unique_ptr<TileSource>> owned_b;
  if (b_persists && cfg.b_cache->empty()) {
    for (int n = 0; n < num_nodes; ++n) {
      cfg.b_cache->push_back(
          std::make_unique<OnDemandMatrix>(b_shape, b_generator));
    }
  }
  if (b_persists) {
    BSTC_REQUIRE(cfg.b_cache->size() == static_cast<std::size_t>(num_nodes),
                 "b_cache was filled for a different grid");
  }
  call.node_states = std::vector<NodeState>(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    call.node_states[static_cast<std::size_t>(n)].b =
        b_persists
            ? (*cfg.b_cache)[static_cast<std::size_t>(n)].get()
            : owned_b
                  .emplace_back(
                      std::make_unique<OnDemandMatrix>(b_shape, b_generator))
                  .get();
  }

  // The transport of remote A tiles: the caller's, or a private
  // in-process one when the grid has more than one rank. An external
  // transport's byte count accumulates across calls, so traffic is
  // measured as a delta.
  std::unique_ptr<Transport> owned_transport;
  call.transport = cfg.transport;
  if (call.transport == nullptr && num_nodes > 1) {
    owned_transport = std::make_unique<Transport>(num_nodes);
    call.transport = owned_transport.get();
  }
  Transport* const transport = call.transport;
  if (transport != nullptr) {
    BSTC_REQUIRE(transport->nodes() == num_nodes,
                 "transport was built for a different grid");
  }
  const double transport_bytes_before =
      transport != nullptr ? transport->payload_bytes() : 0.0;

  call.residences.resize(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    const NodePlan& node_plan = plan.nodes[static_cast<std::size_t>(n)];
    auto& node_res = call.residences[static_cast<std::size_t>(n)];
    node_res = std::vector<BlockResidence>(node_plan.blocks.size());
    for (std::size_t bi = 0; bi < node_plan.blocks.size(); ++bi) {
      auto& host_b = node_res[bi].host_b;
      for (const ColumnPiece& piece : node_plan.blocks[bi].pieces) {
        host_b.emplace_back(piece.ks.size(), nullptr);
      }
    }
  }

  const SchedulerStats sched =
      run_graph(lowered.graph, lowered.num_queues, call);

  // --- Assemble the global C and count return traffic. ---
  // The first contribution to a tile is moved in (a GEMM that starts
  // from +0.0 never yields -0.0, so this equals adding it to zero
  // bitwise); later ones (segmented columns, several nodes) are added.
  // Only tiles nobody computed are zero-allocated.
  EngineResult result;
  std::unordered_map<std::uint64_t, Tile> assembled;  // key (i, j)
  for (int n = 0; n < num_nodes; ++n) {
    if (distributed && n != cfg.local_rank) continue;
    NodeState& ns = call.node_states[static_cast<std::size_t>(n)];
    for (auto& [key, tile] : ns.c_store) {
      const auto i = static_cast<std::uint32_t>(key >> 32);
      const auto j = static_cast<std::uint32_t>(key & 0xffffffffu);
      result.computed_c_tiles.emplace_back(i, j);
      if (plan.grid.home_of(i, j) != n) {
        result.c_network_bytes += static_cast<double>(tile.bytes());
      }
      // try_emplace leaves `tile` untouched when the key already exists.
      const auto [it, first] = assembled.try_emplace(key, std::move(tile));
      if (!first) it->second.axpy(1.0, tile);
    }
    result.b_max_generations =
        std::max(result.b_max_generations, ns.b->max_generation_count());
    result.host_b_peak_bytes =
        std::max(result.host_b_peak_bytes, ns.b->peak_cached_bytes());
  }
  result.c = BlockSparseMatrix(c_shape, [&](std::size_t i, std::size_t j) {
    const auto it = assembled.find(tile_key(static_cast<std::uint32_t>(i),
                                            static_cast<std::uint32_t>(j)));
    return it != assembled.end()
               ? std::move(it->second)
               : Tile(c_shape.row_tiling().tile_extent(i),
                      c_shape.col_tiling().tile_extent(j));
  });
  // c_store is hash-ordered; sort so the recorded set is deterministic.
  std::sort(result.computed_c_tiles.begin(), result.computed_c_tiles.end());
  if (c_init != nullptr) {
    for (std::size_t i = 0; i < c_shape.tile_rows(); ++i) {
      for (std::size_t j = 0; j < c_shape.tile_cols(); ++j) {
        if (c_shape.nonzero(i, j) && c_init->has_tile(i, j)) {
          result.c.tile(i, j).axpy(1.0, c_init->tile(i, j));
        }
      }
    }
  }

  if (transport != nullptr) {
    result.a_network_bytes =
        transport->payload_bytes() - transport_bytes_before;
  }
  result.tasks_executed = sched.tasks_executed;
  result.plan_stats = lowered.stats;
  for (const auto& dev : call.devices) {
    result.device_peak_bytes.push_back(dev->peak_used());
  }
  result.wall_seconds = timer.elapsed_s();
  return result;
}

}  // namespace bstc
