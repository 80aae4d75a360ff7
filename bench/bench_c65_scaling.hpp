#pragma once

/// \file bench_c65_scaling.hpp
/// Shared sweep for paper Figures 7, 8 and 9: the C65H132 ABCD contraction
/// with tilings v1/v2/v3 on 3..108 V100s.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "plan/plan.hpp"
#include "sim/simulator.hpp"

namespace bstc::bench {

struct ScalingPoint {
  const char* tiling;
  int gpus = 0;
  double time_s = 0.0;
  double tflops = 0.0;
  double tflops_per_gpu = 0.0;
  double parallel_efficiency = 0.0;  ///< vs the 3-GPU point of this tiling
};

/// Run the Figure 7-9 sweep once. Grid: one grid row (p=1) — A/T is tiny
/// relative to B/V in this problem, so replication of B is not needed to
/// contain the broadcast.
inline std::vector<ScalingPoint> run_c65_scaling() {
  std::vector<ScalingPoint> points;
  const struct {
    const char* name;
    AbcdConfig cfg;
  } tilings[3] = {{"v1", AbcdConfig::tiling_v1()},
                  {"v2", AbcdConfig::tiling_v2()},
                  {"v3", AbcdConfig::tiling_v3()}};
  for (const auto& [name, cfg] : tilings) {
    const AbcdProblem p = c65h132(cfg);
    double t3 = 0.0;
    for (const int gpus : fig7_gpu_counts()) {
      const MachineModel machine = MachineModel::summit_gpus(gpus);
      PlanConfig plan_cfg;  // p = 1
      const SimResult r =
          simulate_contraction(p.t, p.v, p.r, machine, plan_cfg);
      ScalingPoint point;
      point.tiling = name;
      point.gpus = gpus;
      point.time_s = r.makespan_s;
      point.tflops = r.performance / 1e12;
      point.tflops_per_gpu = r.per_gpu_performance / 1e12;
      if (gpus == 3) t3 = r.makespan_s;
      point.parallel_efficiency =
          t3 > 0.0 ? (t3 * 3.0) / (r.makespan_s * gpus) : 1.0;
      points.push_back(point);
    }
  }
  return points;
}

/// Check the Figure 7-9 shapes EXPERIMENTS.md states against a sweep;
/// prints each violation and returns 0 when every shape holds, else 1
/// (the figure benches' exit code, so CI fails on a broken shape):
///  * time falls monotonically with GPUs for every tiling (Fig 7);
///  * v1 is the slowest tiling at 3 GPUs (Fig 7);
///  * per GPU, v3 > v2 > v1 at every count (Fig 8);
///  * aggregate performance rises with GPUs up to 108 for every tiling
///    (Fig 9).
inline int check_c65_shapes(const std::vector<ScalingPoint>& points) {
  int failures = 0;
  const auto fail = [&](const std::string& what) {
    std::printf("shape check failed: %s\n", what.c_str());
    ++failures;
  };
  std::map<std::string, std::map<int, ScalingPoint>> by;  // tiling -> gpus
  for (const ScalingPoint& p : points) by[p.tiling][p.gpus] = p;
  for (const auto& [tiling, sweep] : by) {
    const ScalingPoint* prev = nullptr;
    for (const auto& [gpus, p] : sweep) {
      if (prev != nullptr && p.time_s >= prev->time_s) {
        fail(tiling + " time does not fall from " +
             std::to_string(prev->gpus) + " to " + std::to_string(gpus) +
             " GPUs");
      }
      if (prev != nullptr && p.tflops <= prev->tflops) {
        fail(tiling + " aggregate performance does not rise from " +
             std::to_string(prev->gpus) + " to " + std::to_string(gpus) +
             " GPUs");
      }
      prev = &p;
    }
  }
  if (by["v1"][3].time_s <= std::max(by["v2"][3].time_s, by["v3"][3].time_s)) {
    fail("v1 is not the slowest tiling at 3 GPUs");
  }
  for (const auto& [gpus, v3] : by["v3"]) {
    const double v2 = by["v2"][gpus].tflops_per_gpu;
    const double v1 = by["v1"][gpus].tflops_per_gpu;
    if (v3.tflops_per_gpu <= v2) {
      fail("v3 does not beat v2 per GPU at " + std::to_string(gpus) +
           " GPUs");
    }
    if (v2 <= v1) {
      fail("v2 does not beat v1 per GPU at " + std::to_string(gpus) +
           " GPUs");
    }
  }
  std::printf("figure 7-9 shapes: %s\n", failures == 0 ? "all hold" : "BROKEN");
  return failures == 0 ? 0 : 1;
}

}  // namespace bstc::bench
