#pragma once

/// \file machine.hpp
/// Machine model of a distributed multi-GPU platform.
///
/// The paper evaluates on Summit (IBM AC922: 2 POWER9 + 6 V100 per node,
/// dual NVLink 2.0 at 25 GB/s per direction per link, dual-rail EDR
/// InfiniBand between nodes). Every decision in the paper's algorithm keys
/// off capacities and bandwidths — GPU memory, host-device bandwidth,
/// device peak — so a machine model carrying exactly those quantities lets
/// the discrete-event simulator replay the executor's task graph for the
/// same inspector plans at Summit scale.

#include <cstddef>

#include "tiling/tiling.hpp"

namespace bstc {

/// One accelerator.
struct GpuSpec {
  double memory_bytes = 16.0e9;      ///< usable device memory
  double peak_gemm_flops = 7.2e12;   ///< practical GEMM peak (paper §5)
  double h2d_bandwidth = 50.0e9;     ///< host->device, bytes/s (2x NVLink2)
  double d2h_bandwidth = 50.0e9;     ///< device->host, bytes/s
  double d2d_bandwidth = 50.0e9;     ///< device->device over NVLink
  double kernel_latency_s = 8.0e-6;  ///< per-kernel launch overhead
  double transfer_latency_s = 10.0e-6;  ///< per-transfer fixed cost

  /// Fraction of peak achieved by an m x n x k GEMM. cuBLAS on V100
  /// saturates around 728^3 (paper §5.2: "peak performance on a single
  /// tile can be obtained for tiles of 728x728"); small or skinny tiles
  /// achieve much less. Modelled as a saturating curve on the geometric
  /// mean dimension s = (m*n*k)^(1/3):  eff = s^3 / (s^3 + s_half^3).
  double gemm_efficiency(Index m, Index n, Index k) const;

  /// Wall-clock seconds of one m x n x k GEMM kernel on this device.
  double gemm_time(Index m, Index n, Index k) const;

  /// Seconds to move `bytes` host->device / device->device.
  double h2d_time(double bytes) const;
  double d2d_time(double bytes) const;
  double d2h_time(double bytes) const;
};

/// One compute node.
struct NodeSpec {
  int gpus = 6;
  double cpu_peak_flops = 2.0e12;  ///< whole-node CPU peak (paper §5.2)
  double host_memory_bytes = 512.0e9;
  GpuSpec gpu;
};

/// The whole platform.
struct MachineModel {
  int nodes = 1;
  NodeSpec node;
  double internode_bandwidth = 25.0e9;  ///< bytes/s per node (injection)
  double internode_latency_s = 2.0e-6;
  /// Total GPUs across the allocation; at most nodes*node.gpus. Nodes are
  /// filled in order, so the last node may expose fewer GPUs (the paper's
  /// 3-GPU and 108-GPU points use partial nodes).
  int gpu_total = 6;

  int total_gpus() const { return gpu_total; }
  /// GPUs exposed on node `n` (nodes are filled node.gpus at a time).
  int gpus_on_node(int n) const;
  /// Aggregate practical GEMM peak over all GPUs.
  double aggregate_gpu_peak() const {
    return static_cast<double>(total_gpus()) * node.gpu.peak_gemm_flops;
  }

  /// Seconds to move `bytes` between two nodes.
  double network_time(double bytes) const;

  /// Summit-like preset with `nodes` nodes (paper §5 configuration).
  static MachineModel summit(int nodes);

  /// Summit preset exposing only `gpus` GPUs total (paper §5.2 runs with
  /// 3..108 GPUs; below 6 GPUs a single node is partially used). Nodes are
  /// filled 6 GPUs at a time.
  static MachineModel summit_gpus(int gpus);
};

}  // namespace bstc
