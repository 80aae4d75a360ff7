/// Reproduces paper §5.2's CPU-vs-GPU comparison: the MPQC-style CPU-only
/// evaluation of the C65H132 ABCD term on {8, 16} Summit nodes against the
/// GPU algorithm with the best tiling (v3) on the same nodes.
///
/// Paper anchors: CPU-only completed in {308, 158} s on {8, 16} nodes
/// (~17% of the 2 Tflop/s per-node CPU peak); the GPU implementation with
/// tiling v3 on all GPUs of the same nodes reduces time to solution by a
/// factor of ~10.

#include <cstdio>

#include "baseline/cpu_reference.hpp"
#include "bench_common.hpp"
#include "sim/simulator.hpp"

using namespace bstc;
using namespace bstc::bench;

int main() {
  std::printf(
      "CPU (MPQC-style) vs GPU comparison — C65H132 ABCD term\n"
      "(paper: CPU {8,16} nodes -> {308,158} s; GPU v3 ~10x faster)\n\n");

  // The CPU code evaluates the finest-tiling formulation (least flops).
  const AbcdProblem v1 = c65h132(AbcdConfig::tiling_v1());
  const AbcdProblem v3 = c65h132(AbcdConfig::tiling_v3());

  TextTable table({"nodes", "CPU time (s)", "(paper)", "GPU v3 time (s)",
                   "speedup"});
  const double paper_cpu[2] = {308.0, 158.0};
  int idx = 0;
  for (const int nodes : {8, 16}) {
    const MachineModel machine = MachineModel::summit(nodes);
    const CpuRefResult cpu =
        simulate_cpu_reference(v1.t, v1.v, v1.r, machine);
    PlanConfig plan_cfg;
    const SimResult gpu =
        simulate_contraction(v3.t, v3.v, v3.r, machine, plan_cfg);
    table.add_row({std::to_string(nodes), fmt_fixed(cpu.time_s, 0),
                   parenthesized(fmt_fixed(paper_cpu[idx], 0)),
                   fmt_fixed(gpu.makespan_s, 1),
                   fmt_fixed(cpu.time_s / gpu.makespan_s, 1) + "x"});
    ++idx;
  }
  print_table("CPU-only vs GPU (tiling v3)", table);
  return 0;
}
