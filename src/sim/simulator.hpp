#pragma once

/// \file simulator.hpp
/// Performance simulator: executes an inspector ExecutionPlan against a
/// MachineModel and predicts the timing the paper measures on Summit.
///
/// The simulation operates at the granularity the algorithm itself
/// operates at — pieces, chunks and blocks — with per-GPU transfer and
/// compute engines that overlap exactly as the paper's control DAG allows:
///  * per GPU, piece staging and chunk A loads are serialized on the
///    transfer engine; kernels are serialized on the compute engine;
///  * chunk i's compute starts when its load and the previous chunk's
///    compute are done; chunk i's load may run one chunk ahead
///    (the 25% + 25% prefetch scheme);
///  * blocks are strictly sequential per GPU ("the transfer of the next
///    block cannot start before operations on the current block are
///    completed", §3.2.2);
///  * B tiles are generated on the node's CPUs before staging;
///  * remote A tiles stream into each node at the inter-node bandwidth in
///    the background; a chunk stalls until its share has arrived (§5.1:
///    "execution stalls until the required tiles are received").
///
/// Kernel times use the V100 GEMM roofline of GpuSpec. See DESIGN.md for
/// the fidelity argument and the simplifications (C return drain and
/// device-to-device copies are not separately modelled).

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
  /// When non-null, the simulator appends every piece staging, chunk load
  /// and chunk compute span here as a `task` span in *simulated* seconds
  /// (lane = flattened GPU index) — the predicted counterpart of the task
  /// spans the real engine records into obs::Registry.
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

/// Simulate `plan` on `machine` for the product (a, b, c).
SimResult simulate(const ExecutionPlan& plan, const Shape& a, const Shape& b,
                   const Shape& c, const MachineModel& machine,
                   const SimConfig& cfg = {});

/// Convenience: build the plan and simulate in one call.
SimResult simulate_contraction(const Shape& a, const Shape& b, const Shape& c,
                               const MachineModel& machine,
                               const PlanConfig& plan_cfg,
                               const SimConfig& cfg = {});

}  // namespace bstc
