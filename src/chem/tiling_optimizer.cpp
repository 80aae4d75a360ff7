#include "chem/tiling_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "plan/builder.hpp"
#include "support/error.hpp"

namespace bstc {

TilingSearchResult optimize_tiling(const OrbitalSystem& system,
                                   const AbcdConfig& base,
                                   const MachineModel& machine,
                                   const TilingSearchConfig& search) {
  BSTC_REQUIRE(search.step > 1.0, "search step must be > 1");
  BSTC_REQUIRE(search.min_ao_clusters >= 2 &&
                   search.min_ao_clusters <= search.max_ao_clusters,
               "invalid cluster-count range");
  BSTC_REQUIRE(search.occ_divisor >= 1, "occ divisor must be positive");

  TilingSearchResult result;
  double x = static_cast<double>(search.min_ao_clusters);
  std::size_t last = 0;
  while (true) {
    const auto ao_clusters = static_cast<std::size_t>(std::lround(x));
    if (ao_clusters > search.max_ao_clusters) break;
    if (ao_clusters != last) {
      last = ao_clusters;
      AbcdConfig cfg = base;
      cfg.ao_clusters = ao_clusters;
      cfg.occ_clusters =
          std::max<std::size_t>(2, ao_clusters / search.occ_divisor);
      const AbcdProblem problem = build_abcd(system, cfg);
      const ExecutionPlan plan =
          build_plan(problem.t, problem.v, problem.r, machine, search.plan);
      TilingCandidate candidate;
      candidate.ao_clusters = ao_clusters;
      candidate.occ_clusters = cfg.occ_clusters;
      if (leaves_room_for_a_chunk(plan, machine.node.gpu.memory_bytes)) {
        const SimResult sim = simulate(plan, problem.t, problem.v, problem.r,
                                       machine, search.sim);
        candidate.flops = sim.total_flops;
        candidate.makespan_s = sim.makespan_s;
        candidate.per_gpu_performance = sim.per_gpu_performance;
      } else {
        // Too coarse for this GPU memory: the executor cannot lower it.
        candidate.makespan_s = std::numeric_limits<double>::infinity();
      }
      result.candidates.push_back(candidate);
    }
    x *= search.step;
  }
  BSTC_CHECK(!result.candidates.empty());
  BSTC_REQUIRE(std::any_of(result.candidates.begin(), result.candidates.end(),
                           [](const TilingCandidate& candidate) {
                             return std::isfinite(candidate.makespan_s);
                           }),
               "no tiling leaves device memory for an A chunk");

  result.best = 0;
  for (std::size_t i = 1; i < result.candidates.size(); ++i) {
    if (result.candidates[i].makespan_s <
        result.candidates[result.best].makespan_s) {
      result.best = i;
    }
  }
  return result;
}

}  // namespace bstc
