#pragma once

/// \file builder.hpp
/// The inspector: builds an ExecutionPlan from the shapes of A, B and C
/// and the machine model (paper §3.2). Cost is O(N_t log N_t + nnz(B))
/// per grid row (paper §3.2.4).
///
/// The individual phases (piece construction, worst-fit block partition,
/// cyclic-greedy chunk segmentation) are exposed for direct unit testing.

#include <span>

#include "machine/machine.hpp"
#include "plan/plan.hpp"

namespace bstc {

/// Build the full plan for C <- C + A*B on `machine` with grid rows
/// cfg.p (q = machine.nodes / cfg.p; all grid nodes must have a GPU).
/// `c` is the output shape (the contraction closure, possibly screened);
/// GEMMs contributing to blocks absent from `c` are skipped.
ExecutionPlan build_plan(const Shape& a, const Shape& b, const Shape& c,
                         const MachineModel& machine, const PlanConfig& cfg);

/// Phase 1 helper — turn the columns assigned to one node into pieces.
/// A column whose footprint (B tiles + local C tiles) exceeds `capacity`
/// is split into consecutive k-segments that each fit; this situation is
/// unspecified in the paper (its runs keep one column under 50% of GPU
/// memory) — see DESIGN.md.
std::vector<ColumnPiece> make_pieces(const Shape& b, const Shape& c,
                                     std::span<const std::uint32_t> slice,
                                     std::span<const std::uint32_t> cols,
                                     double capacity);

/// Phase 2 — worst-fit partition of pieces into blocks of at most
/// `capacity` bytes, spread over `gpus` GPUs (paper §3.2.2): pieces sorted
/// by non-increasing footprint; each GPU starts with one empty block; a
/// piece goes to the candidate block with the most remaining space; when
/// it fits nowhere a new block is created on the GPU with the fewest
/// blocks (round-robin balance). A piece larger than `capacity` gets a
/// dedicated block flagged `oversized`.
std::vector<BlockPlan> partition_blocks(
    std::vector<ColumnPiece> pieces, double capacity, int gpus,
    PackingPolicy policy = PackingPolicy::kWorstFit);

/// GEMM flops of `block` against the A `slice`: every nonzero A tile
/// (i, k) meeting a piece's B tile (k, j) where C tile (i, j) is nonzero.
double block_flops(const Shape& a, const Shape& c,
                   std::span<const std::uint32_t> slice,
                   const BlockPlan& block);

/// Phase 2b — deal `blocks` to `gpus` GPUs by their `flops`: heaviest
/// first, in mirrored-cyclic order (the §3.2.1 column rule applied to
/// blocks). No GPU gets more than one block more than any other, as with
/// the partition's round-robin, but the heaviest blocks are spread
/// instead of stacking on the GPUs that happened to open them. Each GPU
/// keeps its blocks in their order in `blocks`.
void deal_blocks(std::vector<BlockPlan>& blocks, std::span<const double> flops,
                 int gpus);

/// Whether `block` leaves a GPU of `gpu_memory_bytes` room for its largest
/// A chunk. The executor cannot run a block that does not: lower_plan
/// refuses such a plan, and the searches that simulate candidate plans
/// (autotune_grid, optimize_tiling) mark them infeasible.
bool leaves_room_for_a_chunk(const BlockPlan& block, double gpu_memory_bytes);

/// leaves_room_for_a_chunk for every block of `plan`.
bool leaves_room_for_a_chunk(const ExecutionPlan& plan,
                             double gpu_memory_bytes);

/// Phase 3 — segment the A tiles needed by `block` into chunks of at most
/// `chunk_capacity` bytes (paper §3.2.3): tiles are added one-per-tile-row
/// of the A slice in cyclic fashion until the budget is exhausted; the
/// other half of the remaining memory prefetches the next chunk. A tile is
/// needed iff it meets at least one piece of the block through a nonzero
/// B tile and a nonzero C tile.
std::vector<Chunk> segment_chunks(const Shape& a, const Shape& c,
                                  std::span<const std::uint32_t> slice,
                                  const BlockPlan& block,
                                  double chunk_capacity);

}  // namespace bstc
