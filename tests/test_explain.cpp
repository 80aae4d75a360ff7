/// Tests for the plan explain report.

#include <gtest/gtest.h>

#include "plan/builder.hpp"
#include "plan/explain.hpp"
#include "shape/shape_algebra.hpp"

namespace bstc {
namespace {

TEST(Explain, DigestsAccountAllWork) {
  Rng rng(11);
  const Tiling mt = Tiling::random_uniform(300, 20, 60, rng);
  const Tiling kt = Tiling::random_uniform(900, 20, 60, rng);
  const Tiling nt = Tiling::random_uniform(900, 20, 60, rng);
  const Shape a = Shape::random(mt, kt, 0.4, rng);
  const Shape b = Shape::random(kt, nt, 0.4, rng);
  const Shape c = contract_shape(a, b);
  const MachineModel machine = MachineModel::summit(2);
  PlanConfig cfg;
  cfg.p = 2;
  const ExecutionPlan plan = build_plan(a, b, c, machine, cfg);
  const auto digests = digest_plan(plan, a, b, c);
  ASSERT_EQ(digests.size(), 12u);  // 2 nodes x 6 gpus
  double flops = 0.0;
  std::size_t gemms = 0;
  for (const GpuDigest& d : digests) {
    flops += d.flops;
    gemms += d.gemm_tasks;
    if (d.gemm_tasks > 0) {
      EXPECT_GE(d.a_reuse, 1.0 - 1e-9);
    }
  }
  const ContractionStats expected = contraction_stats(a, b, c);
  EXPECT_NEAR(flops, expected.flops, 1e-6 * expected.flops);
  EXPECT_EQ(gemms, expected.gemm_tasks);
}

TEST(Explain, ReportMentionsKeyQuantities) {
  Rng rng(13);
  const Tiling t = Tiling::uniform(400, 40);
  const Shape a = Shape::random(t, t, 0.6, rng);
  const Shape b = Shape::random(t, t, 0.6, rng);
  const Shape c = contract_shape(a, b);
  const ExecutionPlan plan =
      build_plan(a, b, c, MachineModel::summit(1), PlanConfig{});
  const std::string report = explain_plan(plan, a, b, c);
  EXPECT_NE(report.find("grid 1 x 1"), std::string::npos);
  EXPECT_NE(report.find("A broadcast"), std::string::npos);
  EXPECT_NE(report.find("imbalance"), std::string::npos);
  EXPECT_NE(report.find("blocks"), std::string::npos);
}

}  // namespace
}  // namespace bstc
