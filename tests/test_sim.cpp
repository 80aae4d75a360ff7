/// Tests for the performance simulator: analytic lower bounds, overlap
/// behaviour, scaling trends, consistency with plan statistics, and
/// replay of the executor's task graph.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bsm/block_sparse_matrix.hpp"
#include "core/engine.hpp"
#include "obs/obs.hpp"
#include "plan/builder.hpp"
#include "shape/shape_algebra.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

struct SimProblem {
  SimProblem(Index m, Index k, Index n, double da, double db,
             std::uint64_t seed, Index lo = 512, Index hi = 2048)
      : rng(seed),
        mt(Tiling::random_uniform(m, lo, hi, rng)),
        kt(Tiling::random_uniform(k, lo, hi, rng)),
        nt(Tiling::random_uniform(n, lo, hi, rng)),
        a(Shape::random(mt, kt, da, rng)),
        b(Shape::random(kt, nt, db, rng)),
        c(contract_shape(a, b)) {}

  Rng rng;
  Tiling mt, kt, nt;
  Shape a, b, c;
};

TEST(Simulator, MakespanRespectsComputeLowerBound) {
  SimProblem p(12000, 48000, 48000, 1.0, 1.0, 3);
  const MachineModel machine = MachineModel::summit(2);
  PlanConfig cfg;
  const SimResult r = simulate_contraction(p.a, p.b, p.c, machine, cfg);
  const ContractionStats st = contraction_stats(p.a, p.b, p.c);
  EXPECT_NEAR(r.total_flops, st.flops, 1e-6 * st.flops);
  // Makespan can never beat flops over aggregate peak.
  EXPECT_GE(r.makespan_s, st.flops / machine.aggregate_gpu_peak());
  EXPECT_GT(r.performance, 0.0);
  EXPECT_LE(r.performance, machine.aggregate_gpu_peak());
}

TEST(Simulator, MakespanRespectsTransferLowerBound) {
  SimProblem p(8000, 32000, 32000, 0.5, 0.5, 5);
  const MachineModel machine = MachineModel::summit(1);
  PlanConfig cfg;
  const ExecutionPlan plan = build_plan(p.a, p.b, p.c, machine, cfg);
  const SimResult r = simulate(plan, p.a, p.b, p.c, machine);
  const PlanStats st = compute_stats(plan, p.a, p.b, p.c);
  // Per GPU, transfers are serialized on the transfer engine.
  double max_gpu_h2d = 0.0;
  for (const GpuTimeline& tl : r.gpus) {
    max_gpu_h2d = std::max(max_gpu_h2d, tl.h2d_busy_s);
  }
  EXPECT_GE(r.makespan_s, max_gpu_h2d);
  EXPECT_GT(st.b_h2d_bytes, 0.0);
}

TEST(Simulator, DenserProblemsRunAtHigherRate) {
  // Paper Fig. 2: performance increases with density.
  const MachineModel machine = MachineModel::summit(4);
  PlanConfig cfg;
  double prev_perf = 0.0;
  for (const double density : {0.1, 0.5, 1.0}) {
    SimProblem p(12000, 60000, 60000, density, density,
                 static_cast<std::uint64_t>(density * 100));
    const SimResult r = simulate_contraction(p.a, p.b, p.c, machine, cfg);
    EXPECT_GT(r.performance, prev_perf)
        << "density " << density << " should outperform lower density";
    prev_perf = r.performance;
  }
}

TEST(Simulator, SparserProblemsFinishFaster) {
  // Paper Fig. 4: although the rate drops, time-to-solution decreases
  // with density because the flop count decreases faster.
  const MachineModel machine = MachineModel::summit(4);
  PlanConfig cfg;
  double prev_time = 1e30;
  for (const double density : {1.0, 0.5, 0.1}) {
    SimProblem p(12000, 60000, 60000, density, density,
                 static_cast<std::uint64_t>(density * 7));
    const SimResult r = simulate_contraction(p.a, p.b, p.c, machine, cfg);
    EXPECT_LT(r.makespan_s, prev_time);
    prev_time = r.makespan_s;
  }
}

TEST(Simulator, MoreGpusReduceTimeAtImperfectEfficiency) {
  // Paper Fig. 7: time decreases with GPU count but parallel efficiency
  // falls below 1.
  SimProblem p(10000, 80000, 80000, 0.25, 0.25, 11);
  PlanConfig cfg;
  double t_prev = 1e30;
  double t3 = 0.0;
  int g3 = 0;
  for (const int gpus : {3, 6, 12, 24}) {
    const MachineModel machine = MachineModel::summit_gpus(gpus);
    const SimResult r = simulate_contraction(p.a, p.b, p.c, machine, cfg);
    EXPECT_LT(r.makespan_s, t_prev) << gpus << " GPUs";
    if (g3 == 0) {
      t3 = r.makespan_s;
      g3 = gpus;
    }
    // Parallel efficiency vs the first point is at most ~1.
    const double eff = (t3 * g3) / (r.makespan_s * gpus);
    EXPECT_LE(eff, 1.2);
    t_prev = r.makespan_s;
  }
}

TEST(Simulator, InspectionTimeIncludedAndSmall) {
  SimProblem p(6000, 24000, 24000, 0.5, 0.5, 13);
  const MachineModel machine = MachineModel::summit(1);
  PlanConfig cfg;
  const SimResult r = simulate_contraction(p.a, p.b, p.c, machine, cfg);
  EXPECT_GT(r.inspect_s, 0.0);
  EXPECT_LT(r.inspect_s, 0.05 * r.makespan_s);  // negligible per §3.2.4
}

TEST(Simulator, PerGpuStatsConsistent) {
  SimProblem p(8000, 40000, 40000, 0.75, 0.75, 17);
  const MachineModel machine = MachineModel::summit(2);
  PlanConfig cfg;
  cfg.p = 2;
  const SimResult r = simulate_contraction(p.a, p.b, p.c, machine, cfg);
  ASSERT_EQ(r.gpus.size(), 12u);
  double flops = 0.0;
  for (const GpuTimeline& tl : r.gpus) {
    flops += tl.flops;
    EXPECT_LE(tl.compute_busy_s, tl.end_time_s);
    EXPECT_GE(tl.stall_network_s, 0.0);
  }
  EXPECT_NEAR(flops, r.total_flops, 1e-6 * flops);
  EXPECT_NEAR(r.per_gpu_performance * 12.0, r.performance, 1.0);
}

TEST(Simulator, TraceRecordsPipelineSpans) {
  // The simulator's spans carry the executor's task names and lanes.
  SimProblem p(6000, 24000, 24000, 0.5, 0.5, 23);
  const MachineModel machine = MachineModel::summit(1);
  std::vector<obs::Span> trace;
  SimConfig scfg;
  scfg.trace = &trace;
  const SimResult r =
      simulate_contraction(p.a, p.b, p.c, machine, PlanConfig{}, scfg);
  EXPECT_GT(trace.size(), 0u);
  std::set<std::string> kinds;
  for (const obs::Span& e : trace) {
    EXPECT_EQ(e.category, obs::Category::kTask);
    EXPECT_LT(e.lane, 1u + r.gpus.size());  // 1 CPU queue, then devices
    EXPECT_LE(e.start_s, e.end_s);
    EXPECT_LE(e.end_s, r.makespan_s + 1e-9);
    kinds.insert(e.name.substr(0, e.name.find('(')));
  }
  EXPECT_EQ(kinds, (std::set<std::string>{"chunkload", "chunkunload",
                                          "gemmbatch", "gen", "load",
                                          "store"}));
}

TEST(Simulator, HonoursEveryGraphEdge) {
  // 2 nodes of 1 device on a 1x2 grid, so A travels as asend messages.
  Rng rng(5);
  const Tiling mt = Tiling::uniform(32, 8);
  const Tiling kt = Tiling::uniform(64, 8);
  const Tiling nt = Tiling::uniform(64, 8);
  const Shape a_shape = Shape::dense(mt, kt);
  const Shape b_shape = Shape::dense(kt, nt);
  const Shape c_shape = contract_shape(a_shape, b_shape);
  const BlockSparseMatrix a = BlockSparseMatrix::random(a_shape, rng);
  MachineModel machine = MachineModel::summit(2);
  machine.node.gpus = 1;
  machine.gpu_total = 2;
  machine.node.gpu.memory_bytes = 1e4;
  const ExecutionPlan plan =
      build_plan(a_shape, b_shape, c_shape, machine, PlanConfig{});

  std::vector<obs::Span> sim_spans;
  SimConfig scfg;
  scfg.trace = &sim_spans;
  simulate(plan, a_shape, b_shape, c_shape, machine, scfg);

  // One span per task, in task id order: every successor starts at or
  // after the end of each of its predecessors.
  EngineConfig cfg;
  const auto lowered =
      lower_plan(plan, a_shape, b_shape, c_shape, machine, cfg);
  const TaskGraph& graph = lowered->graph;
  ASSERT_EQ(sim_spans.size(), graph.size());
  std::size_t edges = 0;
  for (TaskId t = 0; t < graph.size(); ++t) {
    for (const TaskId s : graph.successors(t)) {
      EXPECT_GE(sim_spans[s].start_s, sim_spans[t].end_s - 1e-12)
          << sim_spans[t].name << " -> " << sim_spans[s].name;
      ++edges;
    }
  }
  EXPECT_EQ(edges, graph.edge_count());

  // The simulated spans are the executor's spans, name for name.
  obs::Registry& reg = obs::Registry::instance();
  reg.clear();
  reg.set_enabled(true);
  contract_with_plan(plan, a, b_shape, random_tile_generator(b_shape, 9),
                     c_shape, nullptr, machine, cfg);
  reg.set_enabled(false);
  std::multiset<std::string> executed, simulated;
  for (const obs::Span& s : reg.spans()) {
    if (s.category == obs::Category::kTask) executed.insert(s.name);
  }
  reg.clear();
  for (const obs::Span& s : sim_spans) simulated.insert(s.name);
  EXPECT_EQ(simulated, executed);
  EXPECT_GT(simulated.count("asend(0,1->x1)"), 0u);
}

TEST(Simulator, FasterHardwareNeverHurts) {
  SimProblem p(10000, 40000, 40000, 0.5, 0.5, 29);
  PlanConfig cfg;
  MachineModel base = MachineModel::summit(2);
  const double t0 = simulate_contraction(p.a, p.b, p.c, base, cfg).makespan_s;

  MachineModel fast_gpu = base;
  fast_gpu.node.gpu.peak_gemm_flops *= 2.0;
  EXPECT_LE(simulate_contraction(p.a, p.b, p.c, fast_gpu, cfg).makespan_s,
            t0 * 1.001);

  MachineModel fast_link = base;
  fast_link.node.gpu.h2d_bandwidth *= 2.0;
  fast_link.node.gpu.d2h_bandwidth *= 2.0;
  EXPECT_LE(simulate_contraction(p.a, p.b, p.c, fast_link, cfg).makespan_s,
            t0 * 1.001);

  MachineModel fast_net = base;
  fast_net.internode_bandwidth *= 4.0;
  EXPECT_LE(simulate_contraction(p.a, p.b, p.c, fast_net, cfg).makespan_s,
            t0 * 1.001);
}

TEST(Simulator, RefusesPlansTheExecutorRefuses) {
  // Device memory below the largest single column: a block leaves no room
  // for an A chunk, so the executor cannot lower the plan, and the
  // simulator refuses it with the same error.
  SimProblem p(4000, 16000, 16000, 1.0, 1.0, 31);
  MachineModel machine = MachineModel::summit(1);
  machine.node.gpu.memory_bytes = 64.0e6;  // tiny vs ~hundreds-MB columns
  const ExecutionPlan plan = build_plan(p.a, p.b, p.c, machine, PlanConfig{});
  std::string executor_error, simulator_error;
  try {
    lower_plan(plan, p.a, p.b, p.c, machine, EngineConfig{});
  } catch (const Error& e) {
    executor_error = e.what();
  }
  try {
    simulate(plan, p.a, p.b, p.c, machine);
  } catch (const Error& e) {
    simulator_error = e.what();
  }
  EXPECT_NE(executor_error.find("no room for any A chunk"), std::string::npos)
      << executor_error;
  EXPECT_EQ(simulator_error, executor_error);
}

TEST(Simulator, ReplicationReducesNetworkStall) {
  // p=2 replicates B but halves the A broadcast: on a wide problem the
  // network traffic must drop.
  SimProblem p(12000, 60000, 60000, 0.5, 0.5, 19);
  const MachineModel machine = MachineModel::summit(4);
  PlanConfig cfg1;
  cfg1.p = 1;
  PlanConfig cfg2;
  cfg2.p = 2;
  const ExecutionPlan plan1 = build_plan(p.a, p.b, p.c, machine, cfg1);
  const ExecutionPlan plan2 = build_plan(p.a, p.b, p.c, machine, cfg2);
  const PlanStats st1 = compute_stats(plan1, p.a, p.b, p.c);
  const PlanStats st2 = compute_stats(plan2, p.a, p.b, p.c);
  EXPECT_LT(st2.a_network_bytes, st1.a_network_bytes);
  EXPECT_GT(st2.b_generated_bytes, st1.b_generated_bytes);  // replication
}

}  // namespace
}  // namespace bstc
