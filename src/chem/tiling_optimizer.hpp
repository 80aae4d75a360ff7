#pragma once

/// \file tiling_optimizer.hpp
/// Automatic tiling selection — the paper's stated future work: "Future
/// work will aim at modeling the interactions between the tiling and the
/// performance, in order to increase the efficiency of the algorithm. [...]
/// the problem of how to determine the optimal tiling is left to future
/// studies."
///
/// The optimizer searches the clustering granularity (AO cluster count,
/// with the occupied cluster count slaved to it) and picks the one whose
/// *simulated* time-to-solution on the target machine is smallest — i.e.
/// it uses the performance model as the tiling/performance interaction
/// model the paper calls for.

#include <vector>

#include "chem/abcd.hpp"
#include "machine/machine.hpp"
#include "sim/simulator.hpp"

namespace bstc {

/// One evaluated granularity.
struct TilingCandidate {
  std::size_t ao_clusters = 0;
  std::size_t occ_clusters = 0;
  double flops = 0.0;
  /// Infinite when the tiling is too coarse for the executor to lower
  /// (a block leaves no device memory for an A chunk); flops and
  /// performance are then 0.
  double makespan_s = 0.0;
  double per_gpu_performance = 0.0;
};

/// Optimizer output: every candidate evaluated plus the winner's index.
struct TilingSearchResult {
  std::vector<TilingCandidate> candidates;
  std::size_t best = 0;

  const TilingCandidate& best_candidate() const { return candidates[best]; }
};

/// Search options.
struct TilingSearchConfig {
  std::size_t min_ao_clusters = 8;
  std::size_t max_ao_clusters = 96;
  /// Geometric step between evaluated granularities (must be > 1).
  double step = 1.35;
  /// occ_clusters = max(2, ao_clusters / occ_divisor).
  std::size_t occ_divisor = 8;
  PlanConfig plan;
  SimConfig sim;
};

/// Optimize the tiling of an ABCD workload for `machine`. The physical
/// cutoffs of `base` are kept; only the cluster counts vary. Throws when
/// no candidate tiling can be lowered.
TilingSearchResult optimize_tiling(const OrbitalSystem& system,
                                   const AbcdConfig& base,
                                   const MachineModel& machine,
                                   const TilingSearchConfig& search = {});

}  // namespace bstc
