#pragma once

/// \file stats.hpp
/// Work, transfer and communication statistics of an ExecutionPlan, plus
/// GEMM-task enumeration shared by the executor and the simulator.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "plan/plan.hpp"
#include "shape/shape.hpp"

namespace bstc {

/// One tile GEMM: C(i,j) += A(i,k) * B(k,j).
struct GemmTask {
  std::uint32_t i = 0;
  std::uint32_t k = 0;
  std::uint32_t j = 0;
};

/// The executor's batching unit: every GEMM of one chunk that reads the
/// same B tile (k, j) — C(i,j) += A(i,k)*B(k,j) for each i in `is`, in
/// chunk load order. The executor lowers one group to a single task that
/// packs B(k,j) once and sweeps all A-row tiles (tile/gemm.hpp
/// gemm_batch), instead of one task per GEMM re-streaming B.
struct GemmGroup {
  std::uint32_t k = 0;
  std::uint32_t j = 0;
  std::uint32_t piece = 0;  ///< block-local index of the piece owning (k, j)
  std::vector<std::uint32_t> is;  ///< A tile-rows, in chunk load order
};

/// Precomputed k -> pieces lookup for GEMM enumeration over one block.
/// Building it once per block amortizes the map across chunks (executor
/// and simulator enumerate millions of tasks through this path).
class GemmEnumerator {
 public:
  explicit GemmEnumerator(const BlockPlan& block);

  /// Visit the GEMM tasks of `chunk` (which must belong to the block this
  /// enumerator was built from), in chunk load order, filtered by the C
  /// shape. The callback is inlined — this is the hot path.
  template <typename Fn>
  void for_each(const Chunk& chunk, const Shape& c, Fn&& fn) const {
    for (const auto& [i, k] : chunk.a_tiles) {
      if (k >= k_to_pieces_.size()) continue;
      for (const std::uint32_t pc : k_to_pieces_[k]) {
        const std::uint32_t j = cols_[pc];
        if (c.nonzero(i, j)) fn(GemmTask{i, k, j});
      }
    }
  }

  /// The GEMMs of `chunk` grouped by shared B tile, groups in
  /// first-occurrence order and rows within a group in chunk load order.
  /// Visits exactly the tasks for_each would, so flop accounting and plan
  /// validation are unchanged by batching.
  std::vector<GemmGroup> gemm_groups(const Chunk& chunk, const Shape& c) const;

 private:
  std::vector<std::vector<std::uint32_t>> k_to_pieces_;
  std::vector<std::uint32_t> cols_;  ///< piece index -> B column
};

/// Enumerate the GEMM tasks of one chunk of one block, in chunk load
/// order. Convenience wrapper over GemmEnumerator (rebuilds the lookup
/// per call — fine for single-chunk use, wasteful in loops).
template <typename Fn>
void for_each_gemm(const BlockPlan& block, const Chunk& chunk, const Shape& c,
                   Fn&& fn) {
  GemmEnumerator(block).for_each(chunk, c, std::forward<Fn>(fn));
}

/// Aggregated statistics of a plan against its problem shapes.
struct PlanStats {
  double total_flops = 0.0;
  std::size_t gemm_tasks = 0;
  std::size_t blocks = 0;
  std::size_t chunks = 0;
  std::size_t oversized_blocks = 0;
  std::size_t segmented_columns = 0;

  double a_h2d_bytes = 0.0;  ///< A tile bytes moved host->device (re-loads counted)
  double b_h2d_bytes = 0.0;  ///< B bytes moved host->device (once per piece)
  double c_h2d_bytes = 0.0;  ///< C bytes staged to device (once per piece)
  double c_d2h_bytes = 0.0;  ///< C bytes returned to host (once per piece)

  double a_network_bytes = 0.0;  ///< total A broadcast volume off-home
  double c_network_bytes = 0.0;  ///< inter-node C return volume
  double b_generated_bytes = 0.0;  ///< B bytes generated on demand (per node)

  /// The A broadcast volume split by hop class under the rank -> node
  /// topology the stats were computed with (a_internode + a_intranode ==
  /// a_network_bytes exactly; with no topology every hop counts as
  /// inter-node). The transport records the same classification per hop,
  /// so measured and analytic values must agree to the byte.
  double a_internode_bytes = 0.0;
  double a_intranode_bytes = 0.0;

  /// flops_per_gpu[node][gpu] — GEMM flops executed per device.
  std::vector<std::vector<double>> flops_per_gpu;
  /// max/mean flops over all GPUs (1.0 = perfect balance).
  double gpu_imbalance = 1.0;
};

/// Compute the statistics of `plan` for the product defined by (a, b, c).
/// The A broadcast volume is predicted hop-for-hop with comm/bcast's
/// fanout (the transport's own routing function, resolve_bcast per
/// tile) under the rank -> node map `node_of_rank` (empty = every rank
/// its own node, so every hop is inter-node). The total a_network_bytes
/// is one tile per consumer whatever the map; the intra/inter split is
/// not.
PlanStats compute_stats(const ExecutionPlan& plan, const Shape& a,
                        const Shape& b, const Shape& c,
                        const std::vector<int>& node_of_rank = {});

/// Check the structural invariants of a plan; returns human-readable
/// violation descriptions (empty = valid). Verifies:
///  * block footprints within budget unless flagged oversized;
///  * oversized blocks hold exactly one piece;
///  * chunk budgets respected except single-tile chunks;
///  * no A tile appears twice within one block;
///  * every B column with work is planned exactly once per grid row;
///  * the planned GEMM tasks match contraction_stats(a, b, c) exactly.
std::vector<std::string> validate_plan(const ExecutionPlan& plan,
                                       const Shape& a, const Shape& b,
                                       const Shape& c);

}  // namespace bstc
