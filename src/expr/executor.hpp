#pragma once

/// \file executor.hpp
/// The program executor: runs a lowered contraction DAG through the
/// ContractionService, one engine contraction per node.
///
/// Every node goes through the service so it inherits the whole serving
/// stack for free: per-node problem fingerprints, the single-flight LRU
/// plan cache (one inspector run per distinct node shape, program-wide),
/// admission control, and metrics. Nodes whose B side is a kFixed tensor
/// get a service *session* with a persistent B cache — across program
/// iterations their generated tiles are never rebuilt, the same
/// amortization the CCSD loop enjoys for the single ABCD term. Nodes
/// whose B side is an intermediate or an iterated tensor wrap the
/// materialized matrix in a pure generator and use one-shot submit().
///
/// Scheduling: a small thread pool executes DAG nodes as their operands
/// become available (inter-term parallelism), while accumulation into the
/// output R happens strictly in term order after the products exist —
/// which is why the residual is bitwise-identical for every schedule and
/// every node emission order. Intermediates are refcounted and released
/// after their last consumer, bounding peak memory
/// (ProgramResult::peak_intermediate_bytes is the witness).
///
/// Observability: every node runs under an `expr.term` span; iteration
/// counters (programs, nodes, intermediate builds/reuse/releases) and the
/// program latency histogram land in the obs registry, whose exposition
/// metrics_prometheus appends to each rank's section of the distributed
/// metrics gather.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/lower.hpp"
#include "machine/machine.hpp"
#include "service/contraction_service.hpp"

namespace bstc::expr {

/// A lowered program bound to one machine/engine configuration, with the
/// composed fingerprint that identifies the whole planning problem.
struct ProgramInstance {
  LoweredProgram lowered;
  MachineModel machine = MachineModel::summit_gpus(1);
  EngineConfig engine;
  /// Per-node engine problem fingerprints (index = node id).
  std::vector<std::uint64_t> node_fingerprints;
  /// Program fingerprint: structure fingerprint + machine/knob identity +
  /// every node's problem fingerprint in semantic (emission-order
  /// invariant) order. Composes reliably because spec expansion is
  /// byte-stable (see audit_serve_spec_determinism).
  std::uint64_t fingerprint = 0;
};

/// Bind a lowered program to machine/engine knobs and fingerprint it.
ProgramInstance bind_program(LoweredProgram lowered,
                             const MachineModel& machine,
                             const EngineConfig& engine);

struct ExecOptions {
  /// Concurrent node executions (inter-term parallelism). Each occupies
  /// one service queue slot while it runs.
  int threads = 2;
  /// Deterministic perturbation of which ready node a free executor
  /// thread picks next. Any seed must produce a bitwise-identical
  /// residual; the property tests sweep this. 0 = FIFO.
  std::uint64_t schedule_seed = 0;
};

/// Per-node outcome of one iteration.
struct NodeReport {
  std::string label;
  std::uint64_t fingerprint = 0;
  bool plan_cache_hit = false;
  double execute_s = 0.0;
  std::size_t tasks_executed = 0;
  std::size_t b_max_generations = 0;
};

/// Everything one program iteration produced.
struct ProgramResult {
  BlockSparseMatrix r;           ///< the accumulated residual
  double wall_seconds = 0.0;
  std::size_t tasks_executed = 0;       ///< summed over nodes
  std::size_t plan_cache_hits = 0;      ///< nodes served from cached plans
  std::size_t b_max_generations = 0;    ///< max over nodes
  std::size_t intermediates_built = 0;  ///< this iteration
  std::size_t intermediate_reuse = 0;   ///< consumer hits beyond the build
  std::size_t intermediates_released = 0;
  std::size_t peak_intermediate_bytes = 0;
  std::vector<NodeReport> nodes;  ///< by node id
  std::string error;
};

/// Executes one ProgramInstance against a ContractionService, keeping
/// per-node session state (persistent B caches) and materialized kFixed
/// tensors alive across iterations. One runner serves one program
/// session; calls to run() on one runner are serialized internally.
class ProgramRunner {
 public:
  ProgramRunner(ContractionService& service, ProgramInstance instance,
                ExecOptions opts = {});
  ~ProgramRunner();  ///< closes the node sessions

  ProgramRunner(const ProgramRunner&) = delete;
  ProgramRunner& operator=(const ProgramRunner&) = delete;

  /// One program iteration: rebuild the iterated tensors from `a_seed`,
  /// execute the DAG, accumulate the residual in term order.
  ServiceStatus run(std::uint64_t a_seed, ProgramResult& result);

  const ProgramInstance& instance() const { return instance_; }

 private:
  struct NodeState;

  ContractionService& service_;
  ProgramInstance instance_;
  ExecOptions opts_;

  std::mutex run_mutex_;  ///< serializes iterations of this runner
  /// Node id -> open service session (kFixed-B nodes only; 0 = none).
  std::vector<std::uint64_t> sessions_;
  /// Materialized kFixed tensors, by "name" / "name'" (built on first
  /// use as an A side, cached for the runner's life).
  std::unordered_map<std::string, std::shared_ptr<const BlockSparseMatrix>>
      fixed_cache_;
};

/// Materialize a generated matrix (every nonzero tile through `gen`).
BlockSparseMatrix materialize(const Shape& shape, const TileGenerator& gen);

}  // namespace bstc::expr
