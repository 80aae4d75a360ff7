/// Reproduces paper Figure 9: aggregate performance for the C65H132 test
/// case vs number of GPUs.
///
/// Paper anchors: overall performance keeps increasing up to 108 GPUs
/// (reaching tens of Tflop/s) even though per-GPU efficiency falls —
/// added computation overlaps data transfers, so coarser tilings with
/// more flops do not cost proportional time.

#include <cstdio>

#include "bench_c65_scaling.hpp"

using namespace bstc;
using namespace bstc::bench;

int main() {
  std::printf("Figure 9 — C65H132 aggregate performance vs #GPUs\n\n");
  const std::vector<ScalingPoint> points = run_c65_scaling();

  TextTable table({"tiling", "#GPUs", "Tflop/s"});
  for (const ScalingPoint& p : points) {
    table.add_row({p.tiling, std::to_string(p.gpus), fmt_fixed(p.tflops, 1)});
  }
  print_table("Figure 9 (aggregate performance)", table);

  return check_c65_shapes(points);
}
