/// End-to-end tests of the distributed serving mode: four real worker
/// processes (fork()ed, each running run_serve_worker) behind a
/// ServeRouter on TCP loopback.
///
/// The battery checks the tentpole claims directly:
///  - a distributed serve-batch computes the *bitwise* same C as the
///    in-process LocalService on the same request stream;
///  - repeat-fingerprint requests stick to the owning rank and hit its
///    plan cache (proven via the gathered per-rank metrics, not timing);
///  - sessions stay warm on their owning rank (B cache generations);
///  - admission control rejects with kQueueFull instead of queueing.

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/serve.hpp"
#include "net/socket.hpp"
#include "service/local_service.hpp"
#include "service/serve_api.hpp"
#include "support/error.hpp"

namespace bstc::net {
namespace {

struct Child {
  pid_t pid = -1;
  bool reaped = false;
  int status = 0;
};

/// fork() one serve worker dialing `port`; the child exits with
/// run_serve_worker's code (or 3 on an exception).
void spawn_serve_worker(std::vector<Child>& children, std::uint16_t port,
                        const ServiceConfig& cfg, bool allow_crash_op) {
  const pid_t pid = fork();
  if (pid < 0) throw Error("fork failed");
  if (pid == 0) {
    int rc = 3;
    try {
      ServeWorkerOptions opts;
      opts.port = port;
      opts.service = cfg;
      opts.allow_crash_op = allow_crash_op;
      rc = run_serve_worker(opts);
    } catch (...) {
    }
    _exit(rc);
  }
  children.push_back(Child{pid, false, 0});
}

int poll_dead(std::vector<Child>& children) {
  int dead = 0;
  for (Child& c : children) {
    if (!c.reaped && waitpid(c.pid, &c.status, WNOHANG) == c.pid) {
      c.reaped = true;
    }
    if (c.reaped) ++dead;
  }
  return dead;
}

void reap_all(std::vector<Child>& children) {
  for (Child& c : children) {
    if (!c.reaped) {
      waitpid(c.pid, &c.status, 0);
      c.reaped = true;
    }
  }
}

/// A 4-rank serving mesh for one test body: listener + forked workers +
/// router, torn down (drain, reap) on destruction.
struct Mesh {
  static constexpr int kRanks = 4;
  std::vector<Child> children;
  std::unique_ptr<ServeRouter> router;

  explicit Mesh(ServiceConfig cfg = {}, bool allow_crash_op = false,
                ServeRouterConfig router_cfg = {}) {
    Listener listener("127.0.0.1", 0);
    for (int i = 0; i < kRanks; ++i) {
      spawn_serve_worker(children, listener.local_port(), cfg,
                         allow_crash_op);
    }
    std::vector<PeerLink> links = accept_serve_workers(
        listener, kRanks, 60000, [this] { return poll_dead(children); });
    router = std::make_unique<ServeRouter>(std::move(links), router_cfg);
  }

  ~Mesh() {
    router->shutdown();
    reap_all(children);
  }
};

ServeProblemSpec small_spec(std::uint64_t seed, Index k = 320) {
  ServeProblemSpec spec;
  spec.m = 64;
  spec.k = k;
  spec.n = k;
  spec.density = 0.5;
  spec.tile_lo = 8;
  spec.tile_hi = 24;
  spec.seed = seed;
  spec.gpus = 1;  // single device keeps results bitwise reproducible
  return spec;
}

TEST(ServeDistributed, FourRanksComputeBitwiseSameCAsLocal) {
  Mesh mesh;
  RemoteService remote(*mesh.router);
  LocalService local;

  // The same request stream — three distinct fingerprints, repeats, a
  // session — driven through both ends of the ServeInterface boundary.
  std::vector<ServeRequest> stream;
  for (int rep = 0; rep < 3; ++rep) {
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
      ServeRequest req;
      req.kind = ServeRequestKind::kContract;
      req.spec = small_spec(seed);
      req.want_c = true;
      stream.push_back(req);
    }
  }
  for (int it = 0; it < 3; ++it) {
    ServeRequest req;
    req.kind = ServeRequestKind::kSessionIterate;
    req.spec = small_spec(21);
    req.a_seed = 1000 + static_cast<std::uint64_t>(it);
    req.want_c = true;
    stream.push_back(req);
  }

  for (const ServeRequest& req : stream) {
    ServeOutcome remote_out, local_out;
    const ServiceStatus remote_status =
        serve_dispatch(remote, req, remote_out);
    const ServiceStatus local_status = serve_dispatch(local, req, local_out);
    ASSERT_EQ(remote_status, ServiceStatus::kOk) << remote_out.error;
    ASSERT_EQ(local_status, ServiceStatus::kOk) << local_out.error;

    EXPECT_EQ(remote_out.fingerprint, local_out.fingerprint);
    EXPECT_EQ(remote_out.routing_key, local_out.routing_key);
    EXPECT_GE(remote_out.served_by, 1);  // a worker rank, not the front
    EXPECT_LE(remote_out.served_by, Mesh::kRanks);
    EXPECT_EQ(local_out.served_by, 0);

    // The headline claim: bitwise-identical results across topologies.
    EXPECT_EQ(remote_out.c_checksum, local_out.c_checksum);
    ASSERT_TRUE(remote_out.has_c);
    ASSERT_TRUE(local_out.has_c);
    EXPECT_EQ(remote_out.c.max_abs_diff(local_out.c), 0.0);
  }

  ServeRequest close_req;
  close_req.kind = ServeRequestKind::kSessionClose;
  close_req.spec = small_spec(21);
  ServeOutcome out;
  EXPECT_EQ(serve_dispatch(remote, close_req, out), ServiceStatus::kOk);
  EXPECT_EQ(serve_dispatch(local, close_req, out), ServiceStatus::kOk);
}

TEST(ServeDistributed, RepeatFingerprintsHitOwningRankPlanCache) {
  Mesh mesh;
  RemoteService remote(*mesh.router);

  constexpr int kRepeats = 5;
  const std::vector<std::uint64_t> seeds = {31, 32, 33};
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const std::uint64_t seed : seeds) {
      ServeRequest req;
      req.kind = ServeRequestKind::kContract;
      req.spec = small_spec(seed);
      req.want_c = false;
      ServeOutcome out;
      ASSERT_EQ(remote.Contract(req, out), ServiceStatus::kOk) << out.error;
      // Every repeat must land where the first request landed.
      EXPECT_EQ(out.served_by,
                mesh.router->owner_of(out.routing_key));
    }
  }

  // The proof is in the gathered per-rank metrics: each fingerprint's
  // owner built its plan once and served every repeat from cache, and
  // nobody else ever saw that fingerprint.
  const std::vector<ServeRankMetrics> ranks = mesh.router->gather_metrics();
  ASSERT_EQ(ranks.size(), static_cast<std::size_t>(Mesh::kRanks));
  double total_hits = 0, total_misses = 0, total_completed = 0;
  for (const ServeRankMetrics& r : ranks) {
    total_hits += r.value("bstc_plan_cache_hits_total");
    total_misses += r.value("bstc_plan_cache_misses_total");
    total_completed += r.value("bstc_service_completed_total");
    EXPECT_FALSE(r.prometheus.empty());
    // Rank labels make the per-rank exposition aggregatable.
    EXPECT_NE(r.prometheus.find("{rank=\"" + std::to_string(r.rank) + "\"}"),
              std::string::npos);
  }
  EXPECT_EQ(total_completed, seeds.size() * kRepeats);
  EXPECT_EQ(total_misses, seeds.size());  // one cold build per fingerprint
  EXPECT_EQ(total_hits, seeds.size() * (kRepeats - 1));

  const ServeRouterStats stats = mesh.router->stats();
  EXPECT_EQ(stats.routed, seeds.size() * kRepeats);
  EXPECT_EQ(stats.affinity_hits, seeds.size() * (kRepeats - 1));
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.worker_lost, 0u);
  EXPECT_EQ(stats.live_workers, static_cast<std::size_t>(Mesh::kRanks));
}

TEST(ServeDistributed, SessionStaysWarmOnOwningRank) {
  Mesh mesh;
  RemoteService remote(*mesh.router);

  int owner = -1;
  for (int it = 0; it < 4; ++it) {
    ServeRequest req;
    req.kind = ServeRequestKind::kSessionIterate;
    req.spec = small_spec(41);
    req.a_seed = 2000 + static_cast<std::uint64_t>(it);
    req.want_c = false;
    ServeOutcome out;
    ASSERT_EQ(remote.SessionIterate(req, out), ServiceStatus::kOk)
        << out.error;
    if (owner < 0) owner = out.served_by;
    EXPECT_EQ(out.served_by, owner);
    if (it > 0) {
      // A warm session B cache regenerates nothing between iterations.
      EXPECT_LE(out.b_max_generations, 1u);
    }
  }

  const std::vector<ServeRankMetrics> ranks = mesh.router->gather_metrics();
  double sessions = 0, iterations = 0;
  for (const ServeRankMetrics& r : ranks) {
    sessions += r.value("bstc_sessions_opened_total");
    iterations += r.value("bstc_session_iterations_total");
    if (r.rank != owner) {
      EXPECT_EQ(r.value("bstc_session_iterations_total"), 0u);
    }
  }
  EXPECT_EQ(sessions, 1u);
  EXPECT_EQ(iterations, 4u);

  ServeRequest close_req;
  close_req.kind = ServeRequestKind::kSessionClose;
  close_req.spec = small_spec(41);
  ServeOutcome out;
  EXPECT_EQ(remote.SessionClose(close_req, out), ServiceStatus::kOk);
  // Closing again is a clean kSessionNotFound, not a crash.
  EXPECT_EQ(remote.SessionClose(close_req, out),
            ServiceStatus::kSessionNotFound);
}

TEST(ServeDistributed, PlanExplainTravelsTheWire) {
  Mesh mesh;
  RemoteService remote(*mesh.router);
  ServeRequest req;
  req.kind = ServeRequestKind::kPlanExplain;
  req.spec = small_spec(51);
  ServeOutcome out;
  ASSERT_EQ(remote.PlanExplain(req, out), ServiceStatus::kOk) << out.error;
  EXPECT_FALSE(out.text.empty());
  // The narrative came from a worker rank's plan cache.
  EXPECT_GE(out.served_by, 1);
}

TEST(ServeDistributed, AdmissionControlRejectsInsteadOfQueueing) {
  // With the per-worker in-flight bound at 1, a request arriving while
  // its owner rank is busy must be rejected with kQueueFull at the
  // routing boundary — never blocked, queued, or silently rerouted to a
  // rank that doesn't own the fingerprint.
  ServeRouterConfig cfg;
  cfg.max_inflight_per_worker = 1;
  Mesh mesh({}, false, cfg);
  ServeRouter& router = *mesh.router;

  ServeRequest req;
  req.kind = ServeRequestKind::kContract;
  req.spec = small_spec(61);
  req.want_c = false;
  const RequestMsg msg = to_request_msg(req, 0);

  // Occupy the owner's only slot...
  const ServeRouter::Ticket busy = router.begin(msg);
  ASSERT_EQ(busy.admit, ServiceStatus::kOk);
  // ...so the same fingerprint is turned away at the door.
  const ServeRouter::Ticket turned_away = router.begin(msg);
  EXPECT_EQ(turned_away.admit, ServiceStatus::kQueueFull);

  ResponseMsg resp;
  EXPECT_EQ(router.finish(busy, resp), ServiceStatus::kOk) << resp.error;

  // With the slot free again the same request is admitted and served.
  RemoteService remote(router);
  ServeOutcome out;
  EXPECT_EQ(remote.Contract(req, out), ServiceStatus::kOk) << out.error;

  const ServeRouterStats stats = router.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.routed, 2u);
}

}  // namespace
}  // namespace bstc::net
