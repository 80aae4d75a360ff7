#include "sim/autotune.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "plan/builder.hpp"
#include "support/error.hpp"

namespace bstc {

GridSearchResult autotune_grid(const Shape& a, const Shape& b, const Shape& c,
                               const MachineModel& machine,
                               const PlanConfig& base,
                               const SimConfig& sim_cfg) {
  GridSearchResult result;
  bool any_lowered = false;
  for (int p = 1; p <= machine.nodes; ++p) {
    if (machine.nodes % p != 0) continue;
    PlanConfig cfg = base;
    cfg.p = p;
    const ExecutionPlan plan = build_plan(a, b, c, machine, cfg);
    GridCandidate candidate;
    candidate.p = p;
    candidate.q = plan.grid.q;
    if (leaves_room_for_a_chunk(plan, machine.node.gpu.memory_bytes)) {
      const SimResult sim = simulate(plan, a, b, c, machine, sim_cfg);
      candidate.makespan_s = sim.makespan_s;
      candidate.a_network_bytes = sim.plan_stats.a_network_bytes;
      candidate.b_generated_bytes = sim.plan_stats.b_generated_bytes;
    } else {
      // The executor cannot lower this grid's plan.
      candidate.makespan_s = std::numeric_limits<double>::infinity();
    }
    // Host feasibility: each node caches the B columns it owns; the
    // per-node average footprint must fit host memory (§3.1: replication
    // "puts pressure on CPU memory, but not on GPU memory").
    const double per_node_b =
        candidate.b_generated_bytes / static_cast<double>(machine.nodes);
    candidate.feasible = std::isfinite(candidate.makespan_s) &&
                         per_node_b <= machine.node.host_memory_bytes;
    any_lowered |= std::isfinite(candidate.makespan_s);
    result.candidates.push_back(candidate);
  }
  BSTC_REQUIRE(any_lowered,
               "no grid shape leaves device memory for an A chunk");

  // Best feasible; fall back to the fastest (lowered) grid if nothing fits.
  result.best = static_cast<std::size_t>(
      std::min_element(result.candidates.begin(), result.candidates.end(),
                       [](const GridCandidate& x, const GridCandidate& y) {
                         return std::pair(!x.feasible, x.makespan_s) <
                                std::pair(!y.feasible, y.makespan_s);
                       }) -
      result.candidates.begin());
  return result;
}

}  // namespace bstc
