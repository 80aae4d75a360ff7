#pragma once

/// \file engine.hpp
/// ContractionEngine — the distributed block-sparse GEMM executor.
///
/// This is the real (numerically-exact) counterpart of the paper's PaRSEC
/// implementation (§4): the inspector's ExecutionPlan is lowered to a task
/// DAG — B-generation tasks on CPU queues, piece/chunk transfer tasks and
/// tile GEMMs on device queues, dataflow edges for real dependencies and
/// control edges reproducing the paper's memory-pressure constraints
/// (blocks sequential per GPU, one chunk of prefetch) — and executed by
/// the multi-queue scheduler with hard device-memory budgets. Lowering is
/// its own immutable step (lower_plan), so a plan that is executed many
/// times is lowered once and its graph replayed (contract_lowered).
///
/// Devices here are worker threads with enforced memory capacities rather
/// than CUDA devices; each lane borrows the host's idle cores from the
/// process ComputePool to split its GEMM batches (by column panels or by
/// item ranges) and its B generation by tile (see DESIGN.md for the
/// substitution argument). The
/// engine verifies, not assumes, the paper's claims: device budgets can
/// never be exceeded (DeviceMemory throws), B tiles are generated at most
/// once per node, and the result is exact.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bsm/block_sparse_matrix.hpp"
#include "bsm/on_demand_matrix.hpp"
#include "bsm/tile_source.hpp"
#include "comm/transport.hpp"
#include "machine/machine.hpp"
#include "plan/plan.hpp"
#include "plan/stats.hpp"
#include "runtime/task_graph.hpp"

namespace bstc {

/// Engine configuration.
struct EngineConfig {
  PlanConfig plan;  ///< inspector knobs (grid rows, memory fractions)
  /// Message transport for remote A tiles: home ranks run send tasks into
  /// per-rank mailboxes and consumers block until arrival — the paper's
  /// background broadcast including its stall behaviour. When null, a
  /// multi-rank call creates a private in-process Transport that delivers
  /// views of `a`'s tiles. Supplying one (e.g. a net::NetTransport
  /// spanning real rank processes) routes every tile message through it;
  /// its byte count accumulates across calls and is owned by the caller.
  Transport* transport = nullptr;
  /// Distributed single-rank mode. When >= 0 the engine builds and runs
  /// only this rank's share of the task DAG: its A-broadcast send tasks
  /// (reading rank-local A tiles) and its own blocks; remote A tiles are
  /// awaited on `transport` (required, normally a NetTransport). The
  /// result then holds only this rank's C contributions plus this rank's
  /// traffic view (bytes *sent*); the caller exchanges C tiles and
  /// aggregates across ranks (see net/launch.hpp). -1 (default) executes
  /// every rank in-process.
  int local_rank = -1;
  /// The rank -> node map the analytic stats use to split A volume into
  /// intra- and inter-node hops (empty = every rank its own node). Must
  /// match the map a NetTransport was constructed with, so measured and
  /// predicted splits agree.
  std::vector<int> node_of_rank;
  /// When non-null, the per-node B sources live here and survive across
  /// calls — the serving layer's session path: B tiles are held
  /// persistently (TileSource::acquire_persistent) instead of being
  /// discarded when their block is done, so later iterations of a CCSD-style
  /// loop skip regeneration entirely (b_max_generations stays <= 1 for
  /// the whole session). The slots may hold either backend of the
  /// TileSource seam: generator-backed OnDemandMatrix caches (the engine
  /// fills an empty vector with these on first use) or zero-copy
  /// shm::SharedStoreSource readers the caller pre-filled. The vector
  /// must then be passed unchanged (same plan/shapes) on every subsequent
  /// call; the owner may call evict_unpinned() on the entries between
  /// iterations to bound host memory; the engine takes no pins in session
  /// mode, so a completed or aborted call leaves every entry evictable.
  /// When null (default), each call uses fresh per-node generator caches
  /// and each tile is discarded when the last block staging it is stored.
  std::vector<std::unique_ptr<TileSource>>* b_cache = nullptr;
};

/// Everything a run produces.
struct EngineResult {
  BlockSparseMatrix c;          ///< the assembled product (C += A*B)
  double wall_seconds = 0.0;    ///< executor wall-clock (this machine)
  std::size_t tasks_executed = 0;
  PlanStats plan_stats;         ///< analytic statistics of the plan used
  double a_network_bytes = 0.0;  ///< A broadcast bytes the transport moved
  double c_network_bytes = 0.0;  ///< measured C return traffic
  std::vector<std::size_t> device_peak_bytes;  ///< per device (flattened)
  std::size_t b_max_generations = 0;  ///< max per-node generation count of
                                      ///< any B tile (1 = at-most-once held)
  /// Largest per-node host footprint of the B cache (the §3.1 "pressure
  /// on CPU memory" of replicating B columns across grid rows). Devices
  /// stage B by reference, so this is also all the memory B occupies:
  /// a tile stays cached from generation until its block is stored.
  std::size_t host_b_peak_bytes = 0;
  /// The (i, j) coordinates of every C tile this run computed, in the
  /// deterministic assembly order. In distributed single-rank mode this
  /// is exactly the local rank's contribution set — the set the caller
  /// must return to tile homes over the network.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> computed_c_tiles;
};

/// Execute C_init + A*B on the simulated machine.
///
/// * `a`       — the input A matrix (globally visible; 2D-cyclic homes are
///               used for communication accounting).
/// * `b_shape` / `b_generator` — B is generated on demand, once per node
///               (paper §4); the generator must be a pure function of the
///               tile coordinates.
/// * `c_shape` — output shape (the contraction closure, possibly screened).
/// * `c_init`  — optional initial C (accumulated into); pass nullptr for 0.
EngineResult contract(const BlockSparseMatrix& a, const Shape& b_shape,
                      const TileGenerator& b_generator, const Shape& c_shape,
                      const BlockSparseMatrix* c_init,
                      const MachineModel& machine, const EngineConfig& cfg);

/// Execute against a pre-built (possibly deserialized) plan — the paper's
/// inspect-once / execute-many workflow: CCSD refines T over 10-20
/// iterations against a *fixed* V, so the inspector runs once and its plan
/// is replayed every iteration. The plan must have been built for these
/// shapes and this machine (validate_plan checks the former). Lowers the
/// plan and runs contract_lowered; callers that execute one plan many
/// times keep its lowering instead.
EngineResult contract_with_plan(const ExecutionPlan& plan,
                                const BlockSparseMatrix& a,
                                const Shape& b_shape,
                                const TileGenerator& b_generator,
                                const Shape& c_shape,
                                const BlockSparseMatrix* c_init,
                                const MachineModel& machine,
                                const EngineConfig& cfg);

/// What an engine task does; the TaskNode operands it reads are listed
/// beside each kind (node = the rank, block = its block index).
enum class TaskKind : std::uint8_t {
  kASend,        ///< index = entry of LoweredPlan::a_sends
  kGen,          ///< node, block, index = piece
  kLoad,         ///< node, block, index = piece
  kChunkLoad,    ///< node, block, index = chunk
  kGemmBatch,    ///< node, block, index = entry of LoweredPlan::groups
  kChunkUnload,  ///< node, block, index = chunk
  kStore,        ///< node, block
};

/// An ExecutionPlan lowered to the executor's task graph for one problem
/// (shapes, machine) and the engine fields listed last. Immutable once
/// built: any number of calls, concurrent ones included, run the same
/// lowering, and each builds only its own per-call state (block
/// residences, node states, device trackers). The lowering refers to the
/// plan by index, so it must be executed with the plan it was built from.
struct LoweredPlan {
  /// One collective A broadcast: tile (i, k) from its home rank to every
  /// consumer rank (ascending).
  struct ASend {
    std::uint32_t i = 0;
    std::uint32_t k = 0;
    int home = 0;
    std::vector<int> consumers;
  };

  TaskGraph graph;  ///< sealed: acyclic, queue ids below num_queues
  /// Queues [0, nodes) are the ranks' CPU queues (B generation), then one
  /// queue per device, rank by rank.
  std::uint32_t num_queues = 0;
  std::vector<GemmGroup> groups;  ///< the gemmbatch tasks' operands
  /// prefetch_depth[node][block]: A chunks of the block resident at once.
  std::vector<std::vector<int>> prefetch_depth;
  std::vector<ASend> a_sends;  ///< the asend tasks' operands
  PlanStats stats;             ///< analytic statistics of the plan

  // The engine fields the lowering read.
  int local_rank = -1;
  std::vector<int> node_of_rank;

  /// Whether a call configured by `cfg` may run this lowering.
  bool fits(const EngineConfig& cfg) const;
};

/// Append the span name of `task`, a task of `lowered`'s graph, to `out`:
/// "gen(n0,b1,p2)", "chunkload(n0,b1,3)", "gemmbatch(k,j,x<rows>)",
/// "asend(i,k->x<consumers>)", ... The executor's task spans and the
/// simulator's predicted spans both carry these names.
void task_name(const LoweredPlan& lowered, const TaskNode& task,
               std::string& out);

/// Lower `plan` (built for these shapes and this machine) to its task
/// graph, checking the graph once: it must be acyclic, and each block must
/// leave device memory for its largest A chunk. Counts one
/// `bstc_plan_lowerings_total`.
std::shared_ptr<const LoweredPlan> lower_plan(const ExecutionPlan& plan,
                                              const Shape& a_shape,
                                              const Shape& b_shape,
                                              const Shape& c_shape,
                                              const MachineModel& machine,
                                              const EngineConfig& cfg);

/// Execute `plan` by replaying `lowered`, a lowering of it for these
/// shapes and this machine. When `lowered` does not fit `cfg` (it was
/// lowered with other engine fields) the call lowers the plan afresh for
/// itself instead.
EngineResult contract_lowered(const ExecutionPlan& plan,
                              const LoweredPlan& lowered,
                              const BlockSparseMatrix& a,
                              const Shape& b_shape,
                              const TileGenerator& b_generator,
                              const Shape& c_shape,
                              const BlockSparseMatrix* c_init,
                              const MachineModel& machine,
                              const EngineConfig& cfg);

}  // namespace bstc
