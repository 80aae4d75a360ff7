/// Concurrency stress for the serve router: a storm of mixed-fingerprint
/// requests from many client threads against in-process worker threads
/// (run_serve_worker is callable on a thread precisely so this test can
/// run under ThreadSanitizer — fork() and TSan don't mix).
///
/// Invariants under storm:
///  - conservation: every request is accounted exactly once
///    (ok + rejected + failed == issued), nothing dropped or doubled;
///  - the workers' completed counters sum to exactly the ok count
///    (no double-execution);
///  - sticky routing holds: each fingerprint is only ever served by one
///    rank, so per-rank plan misses total one per distinct fingerprint;
///  - the admission bound holds: rejections only ever happen with the
///    per-worker in-flight cap saturated (checked structurally via the
///    counters, not timing).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/serve.hpp"
#include "net/socket.hpp"
#include "service/serve_api.hpp"

namespace bstc::net {
namespace {

TEST(ServeRouterStress, MixedFingerprintStormConservesRequests) {
  constexpr int kWorkers = 3;
  constexpr int kClients = 8;
  constexpr int kPerClient = 24;
  constexpr int kFingerprints = 6;

  Listener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.local_port();

  ServiceConfig cfg;
  cfg.workers = 2;
  std::vector<std::thread> worker_threads;
  std::vector<int> worker_rcs(kWorkers, -1);
  for (int i = 0; i < kWorkers; ++i) {
    worker_threads.emplace_back([port, cfg, i, &worker_rcs] {
      ServeWorkerOptions opts;
      opts.port = port;
      opts.service = cfg;
      worker_rcs[static_cast<std::size_t>(i)] = run_serve_worker(opts);
    });
  }

  {
    ServeRouterConfig router_cfg;
    router_cfg.max_inflight_per_worker = 4;
    ServeRouter router(accept_serve_workers(listener, kWorkers),
                       router_cfg);
    RemoteService remote(router);

    std::atomic<int> ok{0}, rejected{0}, failed{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kPerClient; ++i) {
          ServeRequest req;
          req.kind = ServeRequestKind::kContract;
          req.spec.m = 32;
          req.spec.k = 128;
          req.spec.n = 128;
          req.spec.density = 0.5;
          req.spec.tile_lo = 8;
          req.spec.tile_hi = 24;
          // Interleave fingerprints across clients so every worker sees
          // concurrent traffic for keys it owns and keys it doesn't.
          req.spec.seed =
              static_cast<std::uint64_t>(100 + (c + i) % kFingerprints);
          req.spec.gpus = 1;
          req.want_c = false;
          ServeOutcome out;
          const ServiceStatus status = remote.Contract(req, out);
          if (status == ServiceStatus::kOk) {
            ++ok;
          } else if (status == ServiceStatus::kQueueFull) {
            ++rejected;
          } else {
            ++failed;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();

    // Conservation: every issued request has exactly one outcome.
    EXPECT_EQ(ok + rejected + failed, kClients * kPerClient);
    EXPECT_EQ(failed, 0);
    EXPECT_GT(ok, 0);

    const ServeRouterStats stats = router.stats();
    EXPECT_EQ(stats.routed, static_cast<std::uint64_t>(ok.load()));
    EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(rejected.load()));
    EXPECT_EQ(stats.worker_lost, 0u);
    EXPECT_EQ(stats.live_workers, static_cast<std::size_t>(kWorkers));

    // No drop, no double-execute: the ranks' completed counters sum to
    // exactly the ok count, and sticky routing means each fingerprint
    // cost exactly one cold plan build somewhere.
    const std::vector<ServeRankMetrics> ranks = router.gather_metrics();
    double completed = 0, misses = 0, submitted = 0;
    for (const ServeRankMetrics& r : ranks) {
      completed += r.value("bstc_service_completed_total");
      misses += r.value("bstc_plan_cache_misses_total");
      submitted += r.value("bstc_service_submitted_total");
    }
    EXPECT_EQ(completed, static_cast<std::uint64_t>(ok.load()));
    EXPECT_EQ(submitted, static_cast<std::uint64_t>(ok.load()));
    EXPECT_EQ(misses, static_cast<std::uint64_t>(kFingerprints));

    router.shutdown();
  }

  for (std::thread& t : worker_threads) t.join();
  for (const int rc : worker_rcs) EXPECT_EQ(rc, 0);  // clean drain
}

TEST(ServeRouterStress, ConcurrentSessionsAndContractsInterleave) {
  // Sessions (stateful, sticky) and contracts (stateless, sticky) racing
  // through the same router must not corrupt each other's affinity.
  constexpr int kWorkers = 2;
  Listener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.local_port();

  std::vector<std::thread> worker_threads;
  for (int i = 0; i < kWorkers; ++i) {
    worker_threads.emplace_back([port] {
      ServeWorkerOptions opts;
      opts.port = port;
      run_serve_worker(opts);
    });
  }

  {
    ServeRouter router(accept_serve_workers(listener, kWorkers));
    RemoteService remote(router);

    std::atomic<int> failures{0};
    std::vector<std::thread> drivers;
    for (int s = 0; s < 2; ++s) {
      drivers.emplace_back([&, s] {
        for (int it = 0; it < 4; ++it) {
          ServeRequest req;
          req.kind = ServeRequestKind::kSessionIterate;
          req.spec.m = 32;
          req.spec.k = 128;
          req.spec.n = 128;
          req.spec.seed = static_cast<std::uint64_t>(200 + s);
          req.spec.gpus = 1;
          req.a_seed = static_cast<std::uint64_t>(3000 + it);
          req.want_c = false;
          ServeOutcome out;
          if (remote.SessionIterate(req, out) != ServiceStatus::kOk) {
            ++failures;
          }
        }
        ServeRequest close_req;
        close_req.kind = ServeRequestKind::kSessionClose;
        close_req.spec.m = 32;
        close_req.spec.k = 128;
        close_req.spec.n = 128;
        close_req.spec.seed = static_cast<std::uint64_t>(200 + s);
        close_req.spec.gpus = 1;
        ServeOutcome out;
        if (remote.SessionClose(close_req, out) != ServiceStatus::kOk) {
          ++failures;
        }
      });
    }
    for (int c = 0; c < 4; ++c) {
      drivers.emplace_back([&, c] {
        for (int i = 0; i < 6; ++i) {
          ServeRequest req;
          req.kind = ServeRequestKind::kContract;
          req.spec.m = 32;
          req.spec.k = 128;
          req.spec.n = 128;
          req.spec.seed = static_cast<std::uint64_t>(300 + (c + i) % 3);
          req.spec.gpus = 1;
          req.want_c = false;
          ServeOutcome out;
          const ServiceStatus status = remote.Contract(req, out);
          if (status != ServiceStatus::kOk &&
              status != ServiceStatus::kQueueFull) {
            ++failures;
          }
        }
      });
    }
    for (std::thread& t : drivers) t.join();
    EXPECT_EQ(failures, 0);

    double sessions_opened = 0, sessions_closed = 0;
    for (const ServeRankMetrics& r : router.gather_metrics()) {
      sessions_opened += r.value("bstc_sessions_opened_total");
      sessions_closed += r.value("bstc_sessions_closed_total");
    }
    EXPECT_EQ(sessions_opened, 2u);
    EXPECT_EQ(sessions_closed, 2u);

    router.shutdown();
  }
  for (std::thread& t : worker_threads) t.join();
}

}  // namespace
}  // namespace bstc::net
