#pragma once

/// \file autotune.hpp
/// Model-driven selection of the process-grid shape.
///
/// §3.1 leaves p (grid rows / B replication factor) as "a trade-off
/// parameter": p = 1 avoids replicating B but broadcasts A q-1 ways;
/// p >= 2 replicates B p times and divides the A broadcast by p. This
/// autotuner evaluates every feasible p with the performance simulator
/// (and the host-memory cost of replication) and returns the best one —
/// turning the paper's manual knob into a model decision.

#include <vector>

#include "machine/machine.hpp"
#include "plan/plan.hpp"
#include "shape/shape.hpp"
#include "sim/simulator.hpp"

namespace bstc {

/// One evaluated grid shape.
struct GridCandidate {
  int p = 0;
  int q = 0;
  /// Infinite when the executor cannot lower the grid's plan.
  double makespan_s = 0.0;
  double a_network_bytes = 0.0;
  double b_generated_bytes = 0.0;  ///< host pressure of replication
  bool feasible = true;  ///< the plan lowers and host memory fits
};

/// Autotune output.
struct GridSearchResult {
  std::vector<GridCandidate> candidates;
  std::size_t best = 0;

  const GridCandidate& best_candidate() const { return candidates[best]; }
};

/// Evaluate every p in [1, machine.nodes] dividing the node count (so
/// q = nodes / p exactly), marking infeasible the grids whose plan the
/// executor cannot lower (leaves_room_for_a_chunk) or whose replicated B
/// exceeds the per-node host memory, and pick the fastest feasible grid.
/// Throws bstc::Error when no grid can be lowered; any other error of a
/// candidate's plan or simulation propagates. `base` supplies the
/// non-grid knobs (budgets, policies).
GridSearchResult autotune_grid(const Shape& a, const Shape& b, const Shape& c,
                               const MachineModel& machine,
                               const PlanConfig& base = {},
                               const SimConfig& sim_cfg = {});

}  // namespace bstc
