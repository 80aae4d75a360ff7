#pragma once

/// \file serve.hpp
/// Distributed serving over the TCP runtime: a front rank routes
/// spec-based requests (kRequest/kResponse/kServiceCtl frames) to worker
/// ranks that each run a LocalService, and streams outcomes back.
///
/// Topology is a star, not the engine's full mesh: the front rank owns a
/// listener, workers dial in, hello/welcome assigns them ranks 1..N (the
/// front is rank 0). Requests never carry data — only the deterministic
/// ServeProblemSpec — so the wire cost of a request is ~100 bytes and a
/// response is the C tiles (when asked for) plus a checksum witness.
///
/// Routing is cache-affine: the first request with a given routing key is
/// assigned to the least-loaded live worker and the key sticks, so every
/// repeat fingerprint lands on the rank that already holds the plan (and,
/// for sessions, the engine B cache). Admission control is a per-worker
/// in-flight bound enforced at the front: when the owning rank is at
/// capacity the request is rejected with kQueueFull — never queued
/// unboundedly, never silently rerouted (rerouting would forfeit the
/// cache affinity the router exists to provide).
///
/// Failure semantics: a worker death fails that rank's in-flight requests
/// with kWorkerLost (clean status, no poison), and its sticky keys are
/// lazily reassigned to surviving ranks on the next request. The front
/// never crashes with the worker.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/net_transport.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/local_service.hpp"
#include "service/serve_api.hpp"

namespace bstc::net {

/// Hello fingerprint of the serving protocol (workers and front must
/// agree they speak serve, not the engine mesh protocol).
inline constexpr std::uint64_t kServeProtocolId = 0x6273746373727631ull;

/// Exit code of a worker killed by the kCrash fault-injection op.
inline constexpr int kServeCrashExitCode = 42;

// ---------------------------------------------------------------------------
// Request/response <-> serve-API conversions (shared by both ends).

RequestMsg to_request_msg(const ServeRequest& request,
                          std::uint64_t request_id);
ServeRequest from_request_msg(const RequestMsg& msg);

ResponseMsg to_response_msg(std::uint64_t request_id, ServiceStatus status,
                            const ServeOutcome& outcome);

/// Rebuild an outcome from a response. `c_shape` (the client's own
/// deterministic expansion of the spec) is needed only to reassemble the
/// C tiles; pass nullptr to skip materializing C.
ServiceStatus response_to_outcome(const ResponseMsg& msg,
                                  const Shape* c_shape,
                                  ServeOutcome& outcome);

// ---------------------------------------------------------------------------
// Per-rank metrics gather.

/// One worker rank's metrics as gathered by the front: its rank-labelled
/// exposition (metrics_prometheus(m, rank)), the only form the gather
/// ships.
struct ServeRankMetrics {
  int rank = -1;
  std::string prometheus;

  /// The value of `series` (`name` or `name{labels}`, unlabelled by rank)
  /// in this rank's text; 0 when absent. Throws on a malformed line.
  double value(std::string_view series) const;
};

// ---------------------------------------------------------------------------
// Worker side.

struct ServeWorkerOptions {
  std::string host = "127.0.0.1";  ///< front rank's listener
  std::uint16_t port = 0;
  ServiceConfig service;
  RetryPolicy retry;
  /// Honor the kCrash fault-injection op (_exit mid-request). Tests only;
  /// the CLI never sets it.
  bool allow_crash_op = false;
  /// Shared-memory control segment name ("/bstc_...ctl"). When non-empty
  /// the worker attaches a shm::StoreRegistry on it, swaps to the
  /// published store generation at startup, and honors the kStoreSwap
  /// doorbell. Empty (default): private generator caches only.
  std::string shm_ctl;
};

/// Run one worker rank: dial the front, hello/welcome, then serve
/// requests until a kDrain op (returns 0) or the front hangs up without
/// draining (returns 1). Callable in-process (a thread) or after fork.
int run_serve_worker(const ServeWorkerOptions& opts);

// ---------------------------------------------------------------------------
// Front (router) side.

/// Accept `n` serve workers on `listener`, assign ranks 1..n in arrival
/// order, and return their links. `dead_poll` (optional) is consulted
/// between accept timeouts so a dead child fails fast. Throws on timeout,
/// a dead worker, or a protocol-id mismatch.
std::vector<PeerLink> accept_serve_workers(
    Listener& listener, int n, int timeout_ms = 60000,
    const std::function<int()>& dead_poll = nullptr);

struct ServeRouterConfig {
  /// In-flight requests one worker may hold before the front rejects
  /// with kQueueFull (admission control at the routing boundary).
  std::size_t max_inflight_per_worker = 8;
};

/// Front-side routing counters (snapshot via ServeRouter::stats()).
struct ServeRouterStats {
  std::uint64_t routed = 0;         ///< requests sent to a worker
  std::uint64_t rejected = 0;       ///< kQueueFull admission rejections
  std::uint64_t worker_lost = 0;    ///< in-flight failures on a dead rank
  std::uint64_t affinity_hits = 0;  ///< routed to the sticky owner rank
  std::uint64_t reassigned = 0;     ///< sticky keys moved off dead ranks
  std::size_t live_workers = 0;
};

/// The front rank's router: owns the worker links, a response-reader
/// thread per worker, the sticky fingerprint->rank affinity table, and
/// per-worker in-flight admission control. Thread-safe: any number of
/// client threads may call() concurrently.
class ServeRouter {
 public:
  explicit ServeRouter(std::vector<PeerLink> workers,
                       ServeRouterConfig cfg = {});
  ~ServeRouter();  ///< shutdown(): drain workers, join readers

  ServeRouter(const ServeRouter&) = delete;
  ServeRouter& operator=(const ServeRouter&) = delete;

  /// A routed-but-unfinished request (begin/finish split so tests can
  /// inject faults between send and completion).
  struct Ticket {
    std::uint64_t request_id = 0;
    int rank = -1;
    ServiceStatus admit = ServiceStatus::kOk;  ///< non-kOk: not sent
  };

  /// Route + send one request. On admission failure (kQueueFull, or no
  /// live workers -> kWorkerLost) nothing was sent and finish() must not
  /// be called.
  Ticket begin(const RequestMsg& msg);

  /// Block until the request of `ticket` completes (or its worker dies).
  ServiceStatus finish(const Ticket& ticket, ResponseMsg& out);

  /// begin() + finish().
  ServiceStatus call(const RequestMsg& msg, ResponseMsg& out);

  /// Broadcast kMetricsQuery and gather one reply per live worker.
  std::vector<ServeRankMetrics> gather_metrics();

  /// Broadcast the kStoreSwap doorbell (a new store generation was
  /// published on the shm control segment) and wait for every live
  /// worker's ack. Returns the number of workers that swapped
  /// successfully; failures (no registry, attach error) are counted in
  /// `failed` (optional) with their error text discarded after the
  /// first, returned via `first_error` (optional).
  std::size_t swap_store(std::size_t* failed = nullptr,
                         std::string* first_error = nullptr);

  /// Fault injection (tests): tell a worker to _exit mid-stream.
  void crash_worker(int rank);

  /// Which rank a routing key is currently sticky to (-1 if unrouted).
  int owner_of(std::uint64_t routing_key) const;

  ServeRouterStats stats() const;
  int workers() const { return static_cast<int>(workers_.size()); }

  /// Drain all live workers (kDrain / kDrainAck), close links, join
  /// readers. Idempotent; also run by the destructor.
  void shutdown();

 private:
  struct Worker;
  struct Pending;

  void reader_loop(Worker& w);
  void on_worker_dead(Worker& w);
  int pick_rank_locked(std::uint64_t routing_key);

  ServeRouterConfig cfg_;
  std::vector<std::unique_ptr<Worker>> workers_;  ///< index = rank - 1

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;  ///< request completions
  std::condition_variable ctl_cv_;   ///< metrics replies / drain acks
  std::unordered_map<std::uint64_t, std::unique_ptr<Pending>> pending_;
  std::unordered_map<std::uint64_t, int> affinity_;  ///< key -> rank
  std::uint64_t next_request_id_ = 1;
  ServeRouterStats stats_;
  bool shutdown_ = false;
};

/// The remote ServeInterface implementation: converts serve-API requests
/// to wire frames, routes them through a ServeRouter, and reassembles
/// outcomes (rebuilding C from its own deterministic expansion of the
/// spec when tiles come back). Drop-in for LocalService — this is what
/// makes `serve-batch --ranks N` transparent to the request format.
class RemoteService final : public ServeInterface {
 public:
  explicit RemoteService(ServeRouter& router) : router_(router) {}

  ServiceStatus Contract(const ServeRequest& request,
                         ServeOutcome& outcome) override;
  ServiceStatus SessionIterate(const ServeRequest& request,
                               ServeOutcome& outcome) override;
  ServiceStatus SessionClose(const ServeRequest& request,
                             ServeOutcome& outcome) override;
  ServiceStatus PlanExplain(const ServeRequest& request,
                            ServeOutcome& outcome) override;
  ServiceStatus ProgramRun(const ServeRequest& request,
                           ServeOutcome& outcome) override;

  ServeRouter& router() { return router_; }

 private:
  ServiceStatus roundtrip(ServeRequestKind kind, const ServeRequest& request,
                          ServeOutcome& outcome);
  /// The client-side expansion of a spec (cached; only c_shape is used).
  /// For a program request this is the program's declared output shape,
  /// derived from the client's own deterministic program expansion.
  const Shape* c_shape_for(const ServeRequest& request);

  ServeRouter& router_;
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const BuiltServeProblem>>
      built_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const Shape>>
      program_r_shapes_;  ///< program routing key -> output shape
};

}  // namespace bstc::net
