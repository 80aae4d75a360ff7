#pragma once

/// \file simulator.hpp
/// Performance simulator: predicts the timing the paper measures on
/// Summit by replaying the executor's task graph for an ExecutionPlan.
///
/// simulate() lowers the plan with lower_plan (core/engine.hpp) and
/// list-schedules the sealed TaskGraph: all ordering (round-robin B
/// generation, blocks sequential per GPU, bounded prefetch, first-need A
/// sends) is the graph's edges. A task starts once its predecessors have
/// ended and its resource is free; a resource runs its ready tasks FIFO,
/// like a scheduler lane. Resources and prices per TaskKind:
///  * gen: node CPU, piece B bytes / generation_rate;
///  * load, chunkload, store: the GPU's transfer engine, task_overhead_s +
///    tiles x transfer_latency_s + bytes / h2d_bandwidth (chunk tiles a
///    sibling GPU loaded first move at d2d_bandwidth; store is d2h_time);
///  * gemmbatch: the GPU's compute engine, per tile GEMM roofline time /
///    sustained_kernel_fraction + task_overhead_s;
///  * asend: each consumer node's link (internode_bandwidth x
///    network_efficiency), receiving in asend order; a chunkload is ready
///    only once its remote tiles have arrived (§5.1 stall);
///  * chunkunload: free.
/// Remote C leaves through the node's link after its block's store. A plan
/// the executor refuses (see leaves_room_for_a_chunk, plan/builder.hpp) is
/// refused with the same error, and so are non-positive rates in the
/// SimConfig. See DESIGN.md §2, §11.

#include <vector>

#include "machine/machine.hpp"
#include "obs/obs.hpp"
#include "plan/plan.hpp"
#include "plan/stats.hpp"
#include "shape/shape.hpp"

namespace bstc {

/// Simulator knobs.
struct SimConfig {
  /// Node-level B tile generation rate (bytes/s across all cores).
  double generation_rate = 50.0e9;
  /// Inspector cost per item (N^t log N^t + nnz(B) items), seconds.
  double inspect_s_per_item = 50.0e-9;
  /// Fraction of the roofline GEMM rate sustained in steady state —
  /// cuBLAS streams competing with NVLink traffic for HBM plus runtime
  /// scheduling overhead. Calibrated so the dense synthetic sweep tops
  /// out near half of GEMM peak, the ceiling the paper reports for this
  /// algorithm ("the performance reaches only half the GEMM-peak of the
  /// GPUs, even in the dense case", §5.1).
  double sustained_kernel_fraction = 0.65;
  /// Per-GPU-task management cost (stream/event bookkeeping, data-copy
  /// tracking, completion handling) serialized on the device pipeline.
  /// This is what makes the fine-grained tiling v1 — millions of tile
  /// GEMMs — slower than the coarse v3 despite fewer flops (§5.2).
  double task_overhead_s = 100.0e-6;
  /// Fraction of the node injection bandwidth sustained by the
  /// tile-grained A broadcast (many-MB point-to-point messages fanning
  /// out along grid rows, not a tree collective).
  double network_efficiency = 0.5;
  /// When non-null, one `task` span per task of the lowered graph is
  /// appended here in task id order, in *simulated* seconds, with the name
  /// (task_name) and lane (queue id) the executor's span would have.
  std::vector<obs::Span>* trace = nullptr;
};

/// Per-GPU outcome.
struct GpuTimeline {
  double compute_busy_s = 0.0;  ///< kernel time accumulated
  double h2d_busy_s = 0.0;      ///< transfer-engine time accumulated
  double end_time_s = 0.0;      ///< when its last block finished
  double flops = 0.0;
  double stall_network_s = 0.0;  ///< time spent waiting on remote A
};

/// Whole-run outcome.
struct SimResult {
  double makespan_s = 0.0;      ///< slowest GPU end (plus inspection)
  double inspect_s = 0.0;
  double total_flops = 0.0;
  double performance = 0.0;     ///< total_flops / makespan
  double per_gpu_performance = 0.0;
  std::vector<GpuTimeline> gpus;  ///< flattened over nodes
  PlanStats plan_stats;
};

/// Simulate `plan` on `machine` for the product (a, b, c). Throws
/// bstc::Error when the executor would refuse the plan.
SimResult simulate(const ExecutionPlan& plan, const Shape& a, const Shape& b,
                   const Shape& c, const MachineModel& machine,
                   const SimConfig& cfg = {});

/// Convenience: build the plan and simulate in one call.
SimResult simulate_contraction(const Shape& a, const Shape& b, const Shape& c,
                               const MachineModel& machine,
                               const PlanConfig& plan_cfg,
                               const SimConfig& cfg = {});

}  // namespace bstc
