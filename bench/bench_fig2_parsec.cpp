/// Reproduces paper Figure 2 (left): performance of the PaRSEC-style
/// algorithm as a function of N=K and density on 16 Summit nodes
/// (96 V100s), M = 48k, tiles 512-2048.
///
/// Paper reference points: aggregate GEMM peak ~672-691 Tflop/s; the dense
/// square case (M=N=K=48k) reaches ~203 Tflop/s (about half GEMM peak is
/// the expected ceiling for this B-column-streaming algorithm); perf is
/// dominated by density more than size and grows with N before flattening.

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "sim/simulator.hpp"

using namespace bstc;
using namespace bstc::bench;

int main() {
  const MachineModel machine = MachineModel::summit(16);
  PlanConfig plan_cfg;
  plan_cfg.p = 2;  // 2 x 8 grid: replicate B twice, halve the A broadcast

  std::printf(
      "Figure 2 (left) — PaRSEC-style block-sparse GEMM, 16 Summit nodes\n"
      "M = 48k, tiles U(512, 2048), grid 2 x 8, GEMM peak %s\n\n",
      fmt_flops(machine.aggregate_gpu_peak()).c_str());

  TextTable table({"N=K", "density", "Tflop/s", "time (s)", "flop (T)",
                   "%GEMM-peak"});
  std::map<double, double> rate_at_largest;  // density -> flop/s
  for (const double density : fig2_densities()) {
    for (const Index n : fig2_sizes()) {
      const SyntheticProblem p = make_synthetic(kFig2M, n, density);
      const SimResult r =
          simulate_contraction(p.a, p.b, p.c, machine, plan_cfg);
      if (n == fig2_sizes().back()) rate_at_largest[density] = r.performance;
      table.add_row({fmt_group(n), fmt_fixed(density, 2),
                     fmt_fixed(r.performance / 1e12, 1),
                     fmt_fixed(r.makespan_s, 2),
                     fmt_fixed(r.total_flops / 1e12, 0),
                     fmt_percent(r.performance / machine.aggregate_gpu_peak())});
    }
  }
  print_table("Figure 2 left (performance vs N=K and density)", table);

  // The paper's square-dense anchor point.
  const SyntheticProblem sq = make_synthetic(48000, 48000, 1.0);
  const SimResult r = simulate_contraction(sq.a, sq.b, sq.c, machine, plan_cfg);
  std::printf("Square dense M=N=K=48k: %s (paper: ~203 Tflop/s)\n",
              fmt_flops(r.performance).c_str());

  // The shape EXPERIMENTS.md states: at N=K=768k performance is dominated
  // by density — no denser point runs more than 1% slower than a sparser
  // one, and the dense point runs at least 1.5x the d=0.1 point. Exit
  // nonzero when it breaks, so CI fails.
  bool holds = rate_at_largest.at(1.0) >= 1.5 * rate_at_largest.at(0.1);
  double sparser = 0.0;
  for (const auto& [density, rate] : rate_at_largest) {  // ascending
    holds = holds && rate >= 0.99 * sparser;
    sparser = std::max(sparser, rate);
  }
  std::printf("figure 2 shape (density dominates at N=K=768k): %s\n",
              holds ? "holds" : "BROKEN");
  return holds ? 0 : 1;
}
