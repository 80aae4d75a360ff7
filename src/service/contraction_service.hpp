#pragma once

/// \file contraction_service.hpp
/// ContractionService — a thread-safe, long-lived serving layer over the
/// engine.
///
/// The paper's inspector–executor split is inspect-once / execute-many:
/// CCSD refines T over 10–20 iterations against a fixed V, so the plan is
/// built once and replayed. `contract_with_plan` exposes that, but every
/// caller must hand-manage plans. The service packages the workflow the
/// way a production front-end would (compare OSRM's EngineInterface or
/// DBCSR's library API):
///
///  * requests carry the full problem (A, generated B, C shape, machine,
///    knobs); the service fingerprints the problem identity and serves
///    plans from a capacity-bounded LRU cache, so repeated iterations —
///    even from unrelated clients — skip the inspector entirely;
///  * admission control bounds the work in flight: at most `workers`
///    requests execute at once and at most `queue_capacity` more wait for
///    a slot, starting in arrival order; the next one is rejected with a
///    status instead of blocking — admission control, not unbounded
///    buffering;
///  * status codes at the boundary: no exception escapes the service;
///  * sessions model the full CCSD loop: open_session() resolves the plan
///    and its task graph once, iterate() replays them against refreshed A values while keeping
///    the generated B tiles cached across iterations, close() releases
///    everything. trim_session() bounds the host B footprint in between.
///
/// Thread model: submit()/iterate() may be called from any number of
/// threads, and each request executes on its caller's thread, as a
/// library call does (compare DBCSR's multiply); the service starts no
/// thread of its own. A plan-cache entry holds the plan's task graph
/// beside it (core/engine.hpp LoweredPlan), built in the same
/// single-flight build, so a hit replays the graph without lowering it
/// again; the graph runs on the scheduler's persistent lane threads.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "bsm/block_sparse_matrix.hpp"
#include "bsm/on_demand_matrix.hpp"
#include "core/engine.hpp"
#include "machine/machine.hpp"
#include "service/metrics.hpp"
#include "service/plan_cache.hpp"

namespace bstc {

/// Result codes at the service boundary. No exception escapes submit();
/// failures are reported here with details in ContractionResponse::error.
enum class ServiceStatus : std::uint8_t {
  kOk = 0,
  kQueueFull,        ///< admission control rejected the request
  kShuttingDown,     ///< service stopped; request not accepted
  kInvalidRequest,   ///< malformed request (null fields, tiling mismatch)
  kSessionNotFound,  ///< unknown / already-closed session id
  kExecutionError,   ///< inspector or executor failed; see response.error
  kWorkerLost,       ///< the remote worker rank died mid-request
};

/// Human-readable status name ("ok", "queue-full", ...).
const char* service_status_name(ServiceStatus status);

/// One contraction request: C = c_init + A*B. Pointed-to data must stay
/// alive until submit() returns (the request runs on the caller's thread,
/// so stack lifetime is natural).
struct ContractionRequest {
  const BlockSparseMatrix* a = nullptr;  ///< materialized A
  const Shape* b_shape = nullptr;        ///< sparsity of generated B
  TileGenerator b_generator;             ///< pure (r, c) -> Tile
  const Shape* c_shape = nullptr;        ///< output closure (or screen)
  const BlockSparseMatrix* c_init = nullptr;  ///< optional accumulate-into
  MachineModel machine = MachineModel::summit_gpus(1);
  /// Engine knobs. engine.b_cache is service-owned (any caller value is
  /// overwritten): the service wires one of the two TileSource backends
  /// into it — per-request generator caches (OnDemandMatrix) by default,
  /// or zero-copy shared-store sources when `b_source_factory` is set.
  EngineConfig engine;
  /// Optional zero-copy B backend. When set, the service fills the
  /// engine's per-node B slots from this factory (normally
  /// shm::StoreRegistry::source_for, yielding SharedStoreSources over
  /// one mapped store) instead of private generator caches.
  /// `b_generator` must still be callable — it defines the problem and
  /// is the fallback when no store serves it.
  std::function<std::unique_ptr<TileSource>()> b_source_factory;
};

/// Everything one request produced.
struct ContractionResponse {
  BlockSparseMatrix c;           ///< the product (valid when status is kOk)
  std::uint64_t fingerprint = 0; ///< problem identity hash
  bool plan_cache_hit = false;   ///< plan served without running the inspector
  double queue_wait_s = 0.0;     ///< submit() to passing admission
  double inspect_s = 0.0;        ///< inspector + lowering (0 on a hit)
  double execute_s = 0.0;        ///< executor wall-clock
  double start_latency_s = 0.0;  ///< submit() to execution start
  std::size_t tasks_executed = 0;
  std::size_t b_max_generations = 0;
  std::string error;             ///< failure detail for non-kOk statuses
};

/// A CCSD-style iteration loop: fixed shapes/machine/knobs and a fixed B
/// generator, while A's values are refreshed every iteration.
struct SessionConfig {
  Shape a_shape;  ///< sparsity of the A passed to every iterate()
  Shape b_shape;
  Shape c_shape;
  TileGenerator b_generator;
  MachineModel machine = MachineModel::summit_gpus(1);
  EngineConfig engine;
  /// Optional zero-copy B backend, as in ContractionRequest: when set,
  /// the session's per-node B slots are filled from this factory at
  /// open_session() and attach-by-fingerprint replaces generation.
  std::function<std::unique_ptr<TileSource>()> b_source_factory;
};

/// Service tuning.
struct ServiceConfig {
  int workers = 2;                      ///< requests executing at once
  std::size_t queue_capacity = 16;      ///< waiting requests before reject
  std::size_t plan_cache_capacity = 32; ///< LRU plan slots
};

class ContractionService {
 public:
  explicit ContractionService(ServiceConfig cfg = {});
  ~ContractionService();  ///< shutdown()

  ContractionService(const ContractionService&) = delete;
  ContractionService& operator=(const ContractionService&) = delete;

  /// Execute one contraction on the calling thread, after waiting for a
  /// slot when `workers` requests are already executing. Rejected up front
  /// with kQueueFull when `queue_capacity` requests already wait —
  /// admission control never blocks on a full queue.
  ServiceStatus submit(const ContractionRequest& request,
                       ContractionResponse& response);

  /// Resolve (or build) the plan for a session and register it. Runs the
  /// inspector inline on the calling thread when the plan is not cached.
  ServiceStatus open_session(const SessionConfig& cfg,
                             std::uint64_t& session_id);

  /// One CCSD-style iteration: C = c_init + A*B with the session's cached
  /// plan and (optionally) cached B tiles. A must have the session's
  /// a_shape. Iterations of one session are serialized; concurrent
  /// iterate() calls on different sessions proceed in parallel, at most
  /// `workers` at once. Admission control applies as for submit().
  ServiceStatus iterate(std::uint64_t session_id, const BlockSparseMatrix& a,
                        const BlockSparseMatrix* c_init,
                        ContractionResponse& response);

  /// Drop cached B tiles of the session that no task currently pins —
  /// the between-iterations memory hook. Returns bytes freed via
  /// `freed_bytes` (optional).
  ServiceStatus trim_session(std::uint64_t session_id,
                             std::size_t* freed_bytes = nullptr);

  /// Release the session (its plan may stay in the shared plan cache).
  ServiceStatus close_session(std::uint64_t session_id);

  /// Render the plan narrative for a problem, resolving (or building) the
  /// plan through the shared cache — metadata only, no execution. Runs the
  /// inspector inline on the calling thread on a cache miss.
  ServiceStatus explain(const Shape& a_shape, const Shape& b_shape,
                        const Shape& c_shape, const MachineModel& machine,
                        const EngineConfig& engine, std::string& text,
                        bool* cache_hit = nullptr);

  /// Snapshot of service counters (thread-safe, any time).
  ServiceMetrics metrics() const;

  /// Stop accepting work, fail waiting requests with kShuttingDown, and
  /// return once the executing ones have finished. Idempotent; also run by
  /// the destructor. Must not be called from inside a request.
  void shutdown();

  const ServiceConfig& config() const { return cfg_; }

 private:
  struct Job;
  struct Session;

  /// Admit the job, execute it on the calling thread, release its slot.
  ServiceStatus run(Job& job);
  void process(Job& job);

  ServiceConfig cfg_;
  PlanCache cache_;

  // Admission gate: waiting requests hold tickets and start in ticket
  // order; shutdown() waits here for the gate to empty.
  mutable std::mutex mutex_;
  std::condition_variable gate_cv_;
  std::size_t running_ = 0;        ///< requests executing
  std::size_t waiting_ = 0;        ///< requests waiting for a slot
  std::uint64_t next_ticket_ = 0;  ///< ticket of the next admitted request
  std::uint64_t now_serving_ = 0;  ///< ticket allowed to start next
  bool stopping_ = false;
  ServiceMetrics metrics_;

  std::mutex sessions_mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 1;
};

}  // namespace bstc
