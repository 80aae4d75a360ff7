/// End-to-end tests of the shared-memory B-tile data plane under the
/// distributed serving mode: four forked worker ranks co-located on one
/// node, all attached to one published tile store.
///
/// The battery proves the tentpole claims of the shm subsystem:
///  - with --shm-store semantics the workers compute the *bitwise* same
///    C as a store-less LocalService on the same request stream;
///  - B is materialized exactly once per node per generation — the front
///    builds the store once and every rank's b_tiles_generated stays 0
///    (proven via the gathered per-rank metrics, not timing);
///  - a mid-stream generation hot-swap (publish + kStoreSwap doorbell)
///    completes on every rank with zero failed requests, and the
///    superseded segment's name is unlinked while draining readers keep
///    their pages.

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
#include "obs/obs.hpp"
#include "service/local_service.hpp"
#include "service/serve_api.hpp"
#include "shm/tile_store.hpp"
#include "shm/watchdog.hpp"
#include "support/error.hpp"

namespace bstc::net {
namespace {

struct Child {
  pid_t pid = -1;
  bool reaped = false;
  int status = 0;
};

void spawn_shm_worker(std::vector<Child>& children, std::uint16_t port,
                      const std::string& shm_ctl) {
  const pid_t pid = fork();
  if (pid < 0) throw Error("fork failed");
  if (pid == 0) {
    int rc = 3;
    try {
      ServeWorkerOptions opts;
      opts.port = port;
      opts.shm_ctl = shm_ctl;
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

ServeProblemSpec store_spec() {
  ServeProblemSpec spec;
  spec.m = 64;
  spec.k = 320;
  spec.n = 320;
  spec.density = 0.5;
  spec.tile_lo = 8;
  spec.tile_hi = 24;
  spec.seed = 71;
  spec.gpus = 1;  // single device keeps results bitwise reproducible
  return spec;
}

std::uint64_t counter_value(const std::string& name) {
  const auto counters = obs::Registry::instance().counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// A 4-rank serving mesh whose workers all attach one shm control
/// segment. The front (this process) owns the store builds and the
/// watchdog; teardown drains workers, reaps them, and unlinks every
/// segment so a failed test leaves /dev/shm clean.
struct ShmMesh {
  static constexpr int kRanks = 4;
  std::string base;
  std::string ctl;
  shm::StoreWatchdog watchdog;
  std::vector<Child> children;
  std::unique_ptr<ServeRouter> router;

  explicit ShmMesh(const std::string& tag) {
    base = "/bstc_test_" + tag + "_" + std::to_string(getpid());
    ctl = base + ".ctl";

    // Generation 1 is built and published before any worker starts, so
    // every rank's startup refresh() lands on it.
    const shm::StoreBuildInfo info = build_generation(1);
    EXPECT_GT(info.tiles, 0u);
    BSTC_REQUIRE(shm::StoreWatchdog::create(ctl, watchdog).ok,
                 "watchdog create failed");
    BSTC_REQUIRE(watchdog
                     .publish(shm::StoreHandle{info.generation,
                                               info.fingerprint, info.name})
                     .ok,
                 "publish failed");

    Listener listener("127.0.0.1", 0);
    for (int i = 0; i < kRanks; ++i) {
      spawn_shm_worker(children, listener.local_port(), ctl);
    }
    std::vector<PeerLink> links = accept_serve_workers(
        listener, kRanks, 60000, [this] { return poll_dead(children); });
    router = std::make_unique<ServeRouter>(std::move(links),
                                           ServeRouterConfig{});
  }

  shm::StoreBuildInfo build_generation(std::uint64_t generation) const {
    const BuiltServeProblem built = build_serve_problem(store_spec());
    shm::StoreBuildInfo info;
    const shm::Status st = shm::ShmTileStore::build(
        base + ".g" + std::to_string(generation), built.b_shape, built.b_gen,
        serve_store_fingerprint(store_spec()), generation, &info);
    BSTC_REQUIRE(st.ok, "store build failed: " + st.message);
    return info;
  }

  ~ShmMesh() {
    router->shutdown();
    for (Child& c : children) {
      if (!c.reaped) {
        waitpid(c.pid, &c.status, 0);
        c.reaped = true;
      }
    }
    watchdog.close();
    for (std::uint64_t g = 1; g <= 4; ++g) {
      shm::ShmArena::unlink(base + ".g" + std::to_string(g));
    }
    shm::StoreWatchdog::unlink(ctl);
  }
};

TEST(ShmServeDistributed, SharedStoreComputesBitwiseSameCWithZeroGeneration) {
  const std::uint64_t builds_before =
      counter_value("bstc_shm_store_builds_total");
  ShmMesh mesh("shmserve_bitwise");
  // Exactly one store build on this node for generation 1.
  EXPECT_EQ(counter_value("bstc_shm_store_builds_total"), builds_before + 1);

  RemoteService remote(*mesh.router);
  LocalService local;  // no store: private generator caches

  // Contracts and a session, all on the store-covered spec, through both
  // ends of the ServeInterface boundary.
  std::vector<ServeRequest> stream;
  for (int rep = 0; rep < 3; ++rep) {
    ServeRequest req;
    req.kind = ServeRequestKind::kContract;
    req.spec = store_spec();
    req.want_c = true;
    stream.push_back(req);
  }
  for (int it = 0; it < 3; ++it) {
    ServeRequest req;
    req.kind = ServeRequestKind::kSessionIterate;
    req.spec = store_spec();
    req.a_seed = 3000 + static_cast<std::uint64_t>(it);
    req.want_c = true;
    stream.push_back(req);
  }

  for (const ServeRequest& req : stream) {
    ServeOutcome remote_out, local_out;
    ASSERT_EQ(serve_dispatch(remote, req, remote_out), ServiceStatus::kOk)
        << remote_out.error;
    ASSERT_EQ(serve_dispatch(local, req, local_out), ServiceStatus::kOk)
        << local_out.error;
    // The headline claim: the zero-copy shared store changes where B
    // bytes live, never what C comes out.
    EXPECT_EQ(remote_out.c_checksum, local_out.c_checksum);
    ASSERT_TRUE(remote_out.has_c);
    ASSERT_TRUE(local_out.has_c);
    EXPECT_EQ(remote_out.c.max_abs_diff(local_out.c), 0.0);
  }

  // The at-most-once-per-node proof: every rank attached the store and
  // materialized zero B tiles of its own.
  const std::vector<ServeRankMetrics> ranks = mesh.router->gather_metrics();
  ASSERT_EQ(ranks.size(), static_cast<std::size_t>(ShmMesh::kRanks));
  for (const ServeRankMetrics& r : ranks) {
    EXPECT_EQ(r.value("bstc_b_tiles_generated_total"), 0u)
        << "rank " << r.rank;
    EXPECT_GE(r.value("bstc_shm_attaches_total"), 1u) << "rank " << r.rank;
    EXPECT_EQ(r.value("bstc_shm_generation"), 1u) << "rank " << r.rank;
    EXPECT_EQ(r.value("bstc_shm_swaps_total"), 0u) << "rank " << r.rank;
    EXPECT_GT(r.value("bstc_shm_resident_bytes"), 0u) << "rank " << r.rank;
    // The per-rank exposition carries the shm series for CI to grep.
    EXPECT_NE(r.prometheus.find("bstc_b_tiles_generated_total{rank=\"" +
                                std::to_string(r.rank) + "\"} 0"),
              std::string::npos)
        << r.prometheus;
  }

  ServeRequest close_req;
  close_req.kind = ServeRequestKind::kSessionClose;
  close_req.spec = store_spec();
  ServeOutcome out;
  EXPECT_EQ(serve_dispatch(remote, close_req, out), ServiceStatus::kOk);
  EXPECT_EQ(serve_dispatch(local, close_req, out), ServiceStatus::kOk);
}

TEST(ShmServeDistributed, HotSwapMidStreamServesEveryRequest) {
  ShmMesh mesh("shmserve_swap");
  RemoteService remote(*mesh.router);

  const auto contract = [&](ServeOutcome& out) {
    ServeRequest req;
    req.kind = ServeRequestKind::kContract;
    req.spec = store_spec();
    req.want_c = false;
    return remote.Contract(req, out);
  };

  // Requests against generation 1 (checksum witnesses kept for later).
  std::uint64_t gen1_checksum = 0;
  for (int i = 0; i < 3; ++i) {
    ServeOutcome out;
    ASSERT_EQ(contract(out), ServiceStatus::kOk) << out.error;
    gen1_checksum = out.c_checksum;
  }

  // Build + publish generation 2, retire generation 1, ring the bell.
  const shm::StoreBuildInfo g2 = mesh.build_generation(2);
  ASSERT_TRUE(mesh.watchdog
                  .publish(shm::StoreHandle{2, g2.fingerprint, g2.name})
                  .ok);
  ASSERT_TRUE(mesh.watchdog.retire_previous().ok);

  // Never more than one extra generation resident: generation 1's name
  // is gone node-wide the moment generation 2 is published.
  std::shared_ptr<shm::ShmTileReader> stale;
  EXPECT_FALSE(shm::ShmTileReader::attach(mesh.base + ".g1", stale).ok);

  std::size_t swap_failed = 0;
  std::string swap_error;
  const std::size_t swapped =
      mesh.router->swap_store(&swap_failed, &swap_error);
  EXPECT_EQ(swapped, static_cast<std::size_t>(ShmMesh::kRanks)) << swap_error;
  EXPECT_EQ(swap_failed, 0u) << swap_error;

  // Post-swap requests: zero failures, identical bits (the generations
  // hold the same deterministic content — only the segment moved).
  for (int i = 0; i < 3; ++i) {
    ServeOutcome out;
    ASSERT_EQ(contract(out), ServiceStatus::kOk) << out.error;
    EXPECT_EQ(out.c_checksum, gen1_checksum);
  }

  const std::vector<ServeRankMetrics> ranks = mesh.router->gather_metrics();
  double completed = 0, failed = 0;
  for (const ServeRankMetrics& r : ranks) {
    completed += r.value("bstc_service_completed_total");
    failed += r.value("bstc_service_failed_total");
    EXPECT_EQ(r.value("bstc_b_tiles_generated_total"), 0u)
        << "rank " << r.rank;
    EXPECT_EQ(r.value("bstc_shm_generation"), 2u) << "rank " << r.rank;
    // Every rank swapped exactly once, driven by the doorbell.
    EXPECT_EQ(r.value("bstc_shm_swaps_total"), 1u) << "rank " << r.rank;
  }
  EXPECT_EQ(completed, 6u);
  EXPECT_EQ(failed, 0u);
}

TEST(ShmServeDistributed, NonStoreSpecsFallBackToGeneratorCaches) {
  ShmMesh mesh("shmserve_fallback");
  RemoteService remote(*mesh.router);

  // A spec the store does not cover: different seed -> different store
  // fingerprint -> source_for returns nullptr -> private generation.
  ServeProblemSpec other = store_spec();
  other.seed = 72;
  ServeRequest req;
  req.kind = ServeRequestKind::kContract;
  req.spec = other;
  req.want_c = false;
  ServeOutcome out;
  ASSERT_EQ(remote.Contract(req, out), ServiceStatus::kOk) << out.error;

  const std::vector<ServeRankMetrics> ranks = mesh.router->gather_metrics();
  double generated = 0;
  for (const ServeRankMetrics& r : ranks) {
    generated += r.value("bstc_b_tiles_generated_total");
  }
  EXPECT_GT(generated, 0u);  // the fallback did the work
}

}  // namespace
}  // namespace bstc::net
