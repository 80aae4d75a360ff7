/// Failure-injection tests: broken generators, impossible memory
/// configurations and concurrent access must surface as clean errors (or
/// correct behaviour), never hangs or corruption.

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bsm/block_sparse_matrix.hpp"
#include "bsm/on_demand_matrix.hpp"
#include "core/engine.hpp"
#include "net/serve.hpp"
#include "net/socket.hpp"
#include "shape/shape_algebra.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

struct SmallProblem {
  SmallProblem() : rng(61) {
    mt = Tiling::uniform(32, 8);
    kt = Tiling::uniform(64, 8);
    nt = Tiling::uniform(64, 8);
    a = std::make_unique<BlockSparseMatrix>(
        BlockSparseMatrix::random(Shape::dense(mt, kt), rng));
    b_shape = Shape::dense(kt, nt);
    c_shape = contract_shape(a->shape(), b_shape);
  }

  Rng rng;
  Tiling mt, kt, nt;
  std::unique_ptr<BlockSparseMatrix> a;
  Shape b_shape, c_shape;
};

TEST(FailureInjection, GeneratorThrowingPropagatesThroughEngine) {
  SmallProblem p;
  const TileGenerator bad = [](std::size_t, std::size_t) -> Tile {
    throw Error("integral evaluation failed");
  };
  MachineModel machine = MachineModel::summit_gpus(1);
  machine.node.gpu.memory_bytes = 1e5;
  EngineConfig cfg;
  EXPECT_THROW(
      contract(*p.a, p.b_shape, bad, p.c_shape, nullptr, machine, cfg),
      Error);
}

TEST(FailureInjection, GeneratorWrongDimensionsDetected) {
  SmallProblem p;
  const TileGenerator wrong = [](std::size_t, std::size_t) {
    return Tile(1, 1);  // wrong extents for every block
  };
  MachineModel machine = MachineModel::summit_gpus(1);
  machine.node.gpu.memory_bytes = 1e5;
  EngineConfig cfg;
  EXPECT_THROW(
      contract(*p.a, p.b_shape, wrong, p.c_shape, nullptr, machine, cfg),
      Error);
}

TEST(FailureInjection, ImpossibleDeviceMemoryRejectedCleanly) {
  // A device so small that one B tile + its C leaves no room for any A
  // chunk: the engine must refuse with a clear error, not overflow.
  SmallProblem p;
  MachineModel machine = MachineModel::summit_gpus(1);
  machine.node.gpu.memory_bytes = 1200;  // ~one 8x8 tile of doubles
  EngineConfig cfg;
  EXPECT_THROW(
      contract(*p.a, p.b_shape, random_tile_generator(p.b_shape, 1),
               p.c_shape, nullptr, machine, cfg),
      Error);
}

TEST(FailureInjection, MismatchedTilingsRejected) {
  SmallProblem p;
  const Shape bad_b = Shape::dense(Tiling::uniform(60, 10),
                                   Tiling::uniform(60, 10));
  MachineModel machine = MachineModel::summit_gpus(1);
  EngineConfig cfg;
  EXPECT_THROW(contract(*p.a, bad_b, random_tile_generator(bad_b, 1),
                        p.c_shape, nullptr, machine, cfg),
               Error);
}

TEST(FailureInjection, OnDemandConcurrentAcquireGeneratesOnce) {
  const Shape s = Shape::dense(Tiling::uniform(64, 8),
                               Tiling::uniform(64, 8));
  std::atomic<int> generator_calls{0};
  const Tiling rows = s.row_tiling();
  const Tiling cols = s.col_tiling();
  OnDemandMatrix m(s, [&generator_calls, rows, cols](std::size_t r,
                                                     std::size_t c) {
    ++generator_calls;
    return Tile(rows.tile_extent(r), cols.tile_extent(c));
  });

  // Many threads acquiring/releasing the same tiles concurrently; while
  // at least one pin is held the tile must not be regenerated.
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&m, &failed] {
      try {
        for (int iter = 0; iter < 200; ++iter) {
          const std::size_t r = static_cast<std::size_t>(iter) % 8;
          const std::size_t c = static_cast<std::size_t>(iter * 3) % 8;
          m.acquire(r, c);
          m.release(r, c);
        }
      } catch (...) {
        failed = true;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  // Total generations equals total cache misses; with unpinned releases
  // tiles get discarded, so several generations are fine — but the counts
  // must be consistent and nothing may be left pinned.
  EXPECT_EQ(m.cached_bytes(), 0u);
  EXPECT_EQ(static_cast<std::size_t>(generator_calls.load()),
            m.total_generations());
}

TEST(FailureInjection, PinnedTileSurvivesConcurrentChurn) {
  const Shape s = Shape::dense(Tiling::uniform(16, 8),
                               Tiling::uniform(16, 8));
  OnDemandMatrix m(s, random_tile_generator(s, 3));
  const Tile& pinned = m.acquire(0, 0);
  const double value = pinned.at(0, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&m] {
      for (int iter = 0; iter < 100; ++iter) {
        m.acquire(1, 1);
        m.release(1, 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(m.generation_count(0, 0), 1u);
  EXPECT_DOUBLE_EQ(pinned.at(0, 0), value);  // reference still valid
  m.release(0, 0);
}

// ---------------------------------------------------------------------------
// Distributed serving: a worker killed mid-request must surface as a
// clean kWorkerLost status at the front — survivors keep serving, sticky
// keys get reassigned, and nothing hangs or leaks poison.

namespace serve_fault {

struct Child {
  pid_t pid = -1;
  bool reaped = false;
  int status = 0;
};

void spawn_crashable_worker(std::vector<Child>& children,
                            std::uint16_t port) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    int rc = 3;
    try {
      net::ServeWorkerOptions opts;
      opts.port = port;
      opts.allow_crash_op = true;  // honor the kCrash fault injection
      rc = net::run_serve_worker(opts);
    } catch (...) {
    }
    _exit(rc);
  }
  children.push_back(Child{pid, false, 0});
}

void reap_all(std::vector<Child>& children) {
  for (Child& c : children) {
    if (!c.reaped) {
      waitpid(c.pid, &c.status, 0);
      c.reaped = true;
    }
  }
}

net::RequestMsg contract_msg(std::uint64_t seed) {
  ServeRequest req;
  req.kind = ServeRequestKind::kContract;
  req.spec.m = 64;
  req.spec.k = 320;
  req.spec.n = 320;
  req.spec.density = 0.5;
  req.spec.seed = seed;
  req.spec.gpus = 1;
  req.want_c = false;
  return net::to_request_msg(req, 0);
}

}  // namespace serve_fault

TEST(FailureInjection, ServeWorkerDeathMidRequestIsACleanWorkerLost) {
  using namespace serve_fault;
  constexpr int kRanks = 3;
  std::vector<Child> children;
  net::Listener listener("127.0.0.1", 0);
  for (int i = 0; i < kRanks; ++i) {
    spawn_crashable_worker(children, listener.local_port());
  }
  if (::testing::Test::HasFatalFailure()) return;

  {
    net::ServeRouter router(net::accept_serve_workers(listener, kRanks));

    // Establish affinity: seed 71 now sticks to some owner rank.
    net::ResponseMsg warm;
    ASSERT_EQ(router.call(contract_msg(71), warm), ServiceStatus::kOk)
        << warm.error;
    const std::uint64_t key = warm.routing_key;
    const int owner = router.owner_of(key);
    ASSERT_GE(owner, 1);

    // Send a request to the owner, then the crash op on the same socket:
    // FIFO ordering guarantees the worker reads the request first and
    // dies while it is still in flight.
    const net::ServeRouter::Ticket ticket = router.begin(contract_msg(71));
    ASSERT_EQ(ticket.admit, ServiceStatus::kOk);
    ASSERT_EQ(ticket.rank, owner);
    router.crash_worker(owner);

    net::ResponseMsg lost;
    EXPECT_EQ(router.finish(ticket, lost), ServiceStatus::kWorkerLost);
    EXPECT_FALSE(lost.error.empty());

    // Survivors keep serving the same fingerprint: the sticky key is
    // reassigned to a live rank and the request succeeds.
    net::ResponseMsg retry;
    ASSERT_EQ(router.call(contract_msg(71), retry), ServiceStatus::kOk)
        << retry.error;
    const int new_owner = router.owner_of(key);
    EXPECT_NE(new_owner, owner);
    EXPECT_GE(new_owner, 1);
    EXPECT_EQ(static_cast<int>(retry.served_by), new_owner);

    // An unrelated fingerprint is untouched by the failure.
    net::ResponseMsg other;
    EXPECT_EQ(router.call(contract_msg(72), other), ServiceStatus::kOk)
        << other.error;

    const net::ServeRouterStats stats = router.stats();
    EXPECT_EQ(stats.worker_lost, 1u);
    EXPECT_GE(stats.reassigned, 1u);
    EXPECT_EQ(stats.live_workers, static_cast<std::size_t>(kRanks - 1));

    // The metrics gather skips the dead rank instead of hanging on it.
    const std::vector<net::ServeRankMetrics> ranks = router.gather_metrics();
    EXPECT_EQ(ranks.size(), static_cast<std::size_t>(kRanks - 1));
    for (const net::ServeRankMetrics& r : ranks) EXPECT_NE(r.rank, owner);

    router.shutdown();
  }

  reap_all(children);
  int crashed = 0, drained = 0;
  for (const Child& c : children) {
    ASSERT_TRUE(WIFEXITED(c.status));
    if (WEXITSTATUS(c.status) == net::kServeCrashExitCode) {
      ++crashed;
    } else if (WEXITSTATUS(c.status) == 0) {
      ++drained;
    }
  }
  EXPECT_EQ(crashed, 1);  // exactly the injected death
  EXPECT_EQ(drained, kRanks - 1);
}

TEST(FailureInjection, ServeRouterWithAllWorkersDeadRejectsCleanly) {
  using namespace serve_fault;
  std::vector<Child> children;
  net::Listener listener("127.0.0.1", 0);
  spawn_crashable_worker(children, listener.local_port());
  if (::testing::Test::HasFatalFailure()) return;

  {
    net::ServeRouter router(net::accept_serve_workers(listener, 1));
    router.crash_worker(1);
    // Wait for the reader to notice the death (bounded spin, no sleep
    // assumptions beyond the 5s cap).
    for (int spin = 0; spin < 500 && router.stats().live_workers > 0;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(router.stats().live_workers, 0u);

    // With nobody alive, admission fails fast with kWorkerLost — it must
    // not hang waiting for a rank that will never come back.
    const net::ServeRouter::Ticket ticket = router.begin(contract_msg(81));
    EXPECT_EQ(ticket.admit, ServiceStatus::kWorkerLost);
    EXPECT_TRUE(router.gather_metrics().empty());
    router.shutdown();  // drains nobody, joins cleanly
  }
  reap_all(children);
  EXPECT_EQ(WEXITSTATUS(children[0].status), net::kServeCrashExitCode);
}

}  // namespace
}  // namespace bstc
