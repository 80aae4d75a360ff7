/// Reproduces paper Figure 8: performance per GPU for the C65H132 test
/// case vs number of GPUs.
///
/// Paper anchors: up to ~2.5 Tflop/s per GPU for the coarsest tiling v3
/// (~35% of the 7.2 Tflop/s practical peak) at small GPU counts, degrading
/// to ~11% of peak at 108 GPUs; per-GPU rate ordered v3 > v2 > v1 (bigger
/// tiles, better kernels and reuse).

#include <cstdio>

#include "bench_c65_scaling.hpp"

using namespace bstc;
using namespace bstc::bench;

int main() {
  std::printf("Figure 8 — C65H132 performance per GPU vs #GPUs\n\n");
  const std::vector<ScalingPoint> points = run_c65_scaling();

  TextTable table({"tiling", "#GPUs", "Tflop/s per GPU", "% of GPU peak"});
  for (const ScalingPoint& p : points) {
    table.add_row({p.tiling, std::to_string(p.gpus),
                   fmt_fixed(p.tflops_per_gpu, 2),
                   fmt_percent(p.tflops_per_gpu / 7.2)});
  }
  print_table("Figure 8 (per-GPU performance)", table);
  return check_c65_shapes(points);
}
