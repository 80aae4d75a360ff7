/// Reproduces paper Figure 7: time to completion of the C65H132 ABCD
/// contraction vs number of V100s (3..108) for tilings v1/v2/v3, with the
/// perfect-scaling reference.
///
/// Paper anchors: v1 runs 272 s at 3 GPUs down to 34.9 s at 108; parallel
/// efficiency at 108 GPUs is ~21% (v1), ~36.5% (v2), ~35.2% (v3); v2 and
/// v3 have similar times although v3 does ~34% more flops; the
/// finest-grained v1 is slowest despite the fewest flops.

#include <cstdio>

#include "bench_c65_scaling.hpp"

using namespace bstc;
using namespace bstc::bench;

int main() {
  std::printf(
      "Figure 7 — C65H132 time to completion vs #GPUs (tilings v1/v2/v3)\n\n");
  const std::vector<ScalingPoint> points = run_c65_scaling();

  TextTable table({"tiling", "#GPUs", "time (s)", "perfect-scaling (s)",
                   "parallel eff."});
  double t3 = 0.0;
  for (const ScalingPoint& p : points) {
    if (p.gpus == 3) t3 = p.time_s;
    table.add_row({p.tiling, std::to_string(p.gpus), fmt_fixed(p.time_s, 1),
                   fmt_fixed(t3 * 3.0 / p.gpus, 1),
                   fmt_percent(p.parallel_efficiency)});
  }
  print_table("Figure 7 (time to completion)", table);
  return check_c65_shapes(points);
}
