/// Tests for the serving layer: problem fingerprints, the single-flight
/// LRU plan cache, and the concurrent ContractionService (exactness under
/// concurrency, inspect-once, admission control, sessions, shutdown).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "bsm/block_sparse_matrix.hpp"
#include "core/engine.hpp"
#include "plan/builder.hpp"
#include "plan/serialize.hpp"
#include "service/contraction_service.hpp"
#include "service/fingerprint.hpp"
#include "service/plan_cache.hpp"
#include "shape/shape_algebra.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

/// A random contraction problem plus everything a service request needs.
struct ServiceHarness {
  ServiceHarness(Index m, Index k, Index n, double da, double db,
                 std::uint64_t seed)
      : rng(seed),
        mt(Tiling::random_uniform(m, 8, 24, rng)),
        kt(Tiling::random_uniform(k, 8, 24, rng)),
        nt(Tiling::random_uniform(n, 8, 24, rng)),
        a(BlockSparseMatrix::random(Shape::random(mt, kt, da, rng), rng)),
        b_shape(Shape::random(kt, nt, db, rng)),
        b_gen(random_tile_generator(b_shape, seed * 31 + 7)),
        c_shape(contract_shape(a.shape(), b_shape)),
        machine(MachineModel::summit_gpus(2)) {
    machine.node.gpu.memory_bytes = 1.0e6;
  }

  ContractionRequest request() const {
    ContractionRequest req;
    req.a = &a;
    req.b_shape = &b_shape;
    req.b_generator = b_gen;
    req.c_shape = &c_shape;
    req.machine = machine;
    return req;
  }

  SessionConfig session_config() const {
    SessionConfig cfg;
    cfg.a_shape = a.shape();
    cfg.b_shape = b_shape;
    cfg.c_shape = c_shape;
    cfg.b_generator = b_gen;
    cfg.machine = machine;
    return cfg;
  }

  BlockSparseMatrix materialize_b() const {
    BlockSparseMatrix b(b_shape);
    for (std::size_t r = 0; r < b_shape.tile_rows(); ++r) {
      for (std::size_t c = 0; c < b_shape.tile_cols(); ++c) {
        if (b_shape.nonzero(r, c)) b.tile(r, c) = b_gen(r, c);
      }
    }
    return b;
  }

  BlockSparseMatrix reference() const {
    BlockSparseMatrix c(c_shape);
    multiply_reference(a, materialize_b(), c);
    return c;
  }

  Rng rng;
  Tiling mt, kt, nt;
  BlockSparseMatrix a;
  Shape b_shape;
  TileGenerator b_gen;
  Shape c_shape;
  MachineModel machine;
};

// ---------------------------------------------------------------------------
// Fingerprints

TEST(Fingerprint, StableAcrossSerializeRoundTrip) {
  const ServiceHarness h(60, 200, 240, 0.6, 0.5, 17);
  PlanConfig cfg;
  cfg.assignment = AssignmentPolicy::kLpt;  // non-default knob
  const std::uint64_t fp = fingerprint_problem(h.a.shape(), h.b_shape,
                                               h.c_shape, h.machine, cfg);

  // Shapes rebuilt independently from the same arguments hash
  // identically, and so does the config of a plan that went through
  // serialize_plan.
  const ServiceHarness h2(60, 200, 240, 0.6, 0.5, 17);
  const ExecutionPlan plan =
      build_plan(h.a.shape(), h.b_shape, h.c_shape, h.machine, cfg);
  const ExecutionPlan plan2 = deserialize_plan(serialize_plan(plan));
  EXPECT_EQ(fingerprint_problem(h2.a.shape(), h2.b_shape, h2.c_shape,
                                h2.machine, plan2.config),
            fp);
  // And the hash is deterministic across processes (fixed constants), so
  // pin one problem-independent component: the empty-input chain state.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
}

TEST(Fingerprint, EveryComponentPerturbsTheHash) {
  const ServiceHarness h(60, 200, 240, 0.6, 0.5, 18);
  const PlanConfig cfg;
  std::set<std::uint64_t> seen;
  const auto fp = [&](const Shape& a, const Shape& b, const Shape& c,
                      const MachineModel& m, const PlanConfig& k) {
    return fingerprint_problem(a, b, c, m, k);
  };
  seen.insert(fp(h.a.shape(), h.b_shape, h.c_shape, h.machine, cfg));

  // Flip one sparsity bit per operand.
  Shape a_flip = h.a.shape();
  a_flip.set(0, 0, !a_flip.nonzero(0, 0));
  seen.insert(fp(a_flip, h.b_shape, h.c_shape, h.machine, cfg));
  Shape b_flip = h.b_shape;
  b_flip.set(0, 0, !b_flip.nonzero(0, 0));
  seen.insert(fp(h.a.shape(), b_flip, h.c_shape, h.machine, cfg));
  Shape c_flip = h.c_shape;
  c_flip.set(0, 0, !c_flip.nonzero(0, 0));
  seen.insert(fp(h.a.shape(), h.b_shape, c_flip, h.machine, cfg));

  // Machine perturbations.
  MachineModel mem = h.machine;
  mem.node.gpu.memory_bytes *= 2;
  seen.insert(fp(h.a.shape(), h.b_shape, h.c_shape, mem, cfg));
  MachineModel gpus = h.machine;
  gpus.node.gpus += 1;
  seen.insert(fp(h.a.shape(), h.b_shape, h.c_shape, gpus, cfg));

  // Every inspector knob.
  PlanConfig p = cfg;
  p.p = 2;
  seen.insert(fp(h.a.shape(), h.b_shape, h.c_shape, h.machine, p));
  PlanConfig pack = cfg;
  pack.packing = PackingPolicy::kFirstFit;
  seen.insert(fp(h.a.shape(), h.b_shape, h.c_shape, h.machine, pack));
  PlanConfig assign = cfg;
  assign.assignment = AssignmentPolicy::kLpt;
  seen.insert(fp(h.a.shape(), h.b_shape, h.c_shape, h.machine, assign));
  PlanConfig prefetch = cfg;
  prefetch.prefetch_depth += 1;
  seen.insert(fp(h.a.shape(), h.b_shape, h.c_shape, h.machine, prefetch));

  EXPECT_EQ(seen.size(), 10u) << "two perturbations collided";
}

// ---------------------------------------------------------------------------
// Plan cache

CachedPlan tiny_plan() {
  // Plans in cache tests only need identity, not content.
  return CachedPlan{};
}

TEST(PlanCache, LruEvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  (void)cache.get_or_build(1, tiny_plan);
  (void)cache.get_or_build(2, tiny_plan);
  (void)cache.get_or_build(1, tiny_plan);  // touch 1 -> LRU order: 1, 2
  (void)cache.get_or_build(3, tiny_plan);  // evicts 2
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  const PlanCacheStats st = cache.stats();
  EXPECT_EQ(st.misses, 3u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.size, 2u);
}

TEST(PlanCache, SingleFlightBuildsOnce) {
  PlanCache cache(4);
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<PlanCache::PlanPtr> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &builds, &results, t] {
      results[static_cast<std::size_t>(t)] = cache.get_or_build(7, [&builds] {
        ++builds;
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return tiny_plan();
      });
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& plan : results) {
    EXPECT_EQ(plan, results.front()) << "joiners must share the one build";
  }
  const PlanCacheStats st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, static_cast<std::size_t>(kThreads - 1));
}

TEST(PlanCache, BuilderFailurePropagatesAndLeavesKeyAbsent) {
  PlanCache cache(4);
  EXPECT_THROW(
      (void)cache.get_or_build(9, []() -> CachedPlan {
        throw Error("inspector exploded");
      }),
      Error);
  EXPECT_EQ(cache.lookup(9), nullptr);
  const PlanCacheStats st = cache.stats();
  EXPECT_EQ(st.failed_builds, 1u);
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 0u);
  // The key is retryable after a failure.
  EXPECT_NE(cache.get_or_build(9, tiny_plan), nullptr);
}

TEST(PlanCache, JoinersOfAFailedBuildDoNotCountAsHits) {
  // A joiner used to book its hit before the owning build resolved, so a
  // failing build inflated the hit count even though every joiner
  // rethrew. The outcome must be booked after pending.get() resolves:
  // nobody got a plan, so nobody is a hit.
  PlanCache cache(4);
  std::atomic<bool> building{false};
  std::atomic<bool> joiner_started{false};
  std::atomic<bool> release{false};
  std::atomic<int> throws_seen{0};

  std::thread owner([&] {
    try {
      (void)cache.get_or_build(5, [&]() -> CachedPlan {
        building = true;
        while (!release) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw Error("inspector exploded");
      });
    } catch (const Error&) {
      ++throws_seen;
    }
  });
  while (!building) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread joiner([&] {
    joiner_started = true;
    try {
      // The build is in flight (its inflight entry outlives `release`),
      // so this joins it — the builder here must never run.
      (void)cache.get_or_build(5, []() -> CachedPlan {
        throw Error("joiner built instead of joining");
      });
    } catch (const Error&) {
      ++throws_seen;
    }
  });
  while (!joiner_started) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  release = true;
  owner.join();
  joiner.join();

  EXPECT_EQ(throws_seen.load(), 2);  // both rethrow the build error
  PlanCacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 0u);
  EXPECT_EQ(st.failed_builds, 1u);
  EXPECT_EQ(cache.lookup(5), nullptr);

  // A later successful build counts normally, and joiners of *that* one
  // are genuine hits again.
  EXPECT_NE(cache.get_or_build(5, tiny_plan), nullptr);
  EXPECT_NE(cache.get_or_build(5, tiny_plan), nullptr);
  st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.failed_builds, 1u);
}

/// Holds every B generation of a request until open(), so the request
/// keeps its execution slot while a test lines up the others.
struct BGate {
  std::mutex m;
  std::condition_variable cv;
  bool is_open = false;
  std::atomic<int> entered{0};

  TileGenerator wrap(TileGenerator inner) {
    return [this, inner](std::size_t r, std::size_t c) {
      ++entered;
      std::unique_lock lock(m);
      cv.wait(lock, [this] { return is_open; });
      return inner(r, c);
    };
  }
  void wait_entered() const {
    while (entered.load() == 0) std::this_thread::yield();
  }
  void open() {
    {
      std::lock_guard lock(m);
      is_open = true;
    }
    cv.notify_all();
  }
};

/// Threads of this process, from /proc/self/task.
std::size_t process_threads() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// ContractionService

TEST(Service, ConcurrentSubmitsExactAndInspectOnce) {
  const ServiceHarness h(60, 200, 200, 0.6, 0.5, 21);
  const BlockSparseMatrix expected = h.reference();
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 64;
  ContractionService service(cfg);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<ServiceStatus> statuses(kThreads, ServiceStatus::kOk);
  std::vector<ContractionResponse> responses(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      statuses[static_cast<std::size_t>(t)] =
          service.submit(h.request(), responses[static_cast<std::size_t>(t)]);
    });
  }
  for (std::thread& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(statuses[static_cast<std::size_t>(t)], ServiceStatus::kOk)
        << responses[static_cast<std::size_t>(t)].error;
    EXPECT_LT(responses[static_cast<std::size_t>(t)].c.max_abs_diff(expected),
              1e-10);
    EXPECT_EQ(responses[static_cast<std::size_t>(t)].fingerprint,
              responses[0].fingerprint);
  }
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.completed, static_cast<std::size_t>(kThreads));
  // The inspector ran exactly once across all concurrent submits.
  EXPECT_EQ(m.plan_cache.misses, 1u);
  EXPECT_GE(m.plan_cache.hits, static_cast<std::size_t>(kThreads - 1));
}

TEST(Service, DistinctProblemsGetDistinctPlans) {
  const ServiceHarness h1(48, 160, 160, 0.6, 0.5, 31);
  const ServiceHarness h2(64, 160, 200, 0.5, 0.6, 32);
  ContractionService service;
  ContractionResponse r1, r2;
  ASSERT_EQ(service.submit(h1.request(), r1), ServiceStatus::kOk) << r1.error;
  ASSERT_EQ(service.submit(h2.request(), r2), ServiceStatus::kOk) << r2.error;
  EXPECT_NE(r1.fingerprint, r2.fingerprint);
  EXPECT_EQ(service.metrics().plan_cache.misses, 2u);
  EXPECT_LT(r1.c.max_abs_diff(h1.reference()), 1e-10);
  EXPECT_LT(r2.c.max_abs_diff(h2.reference()), 1e-10);
}

TEST(Service, SaturatedQueueRejectsInsteadOfBlocking) {
  const ServiceHarness h(48, 120, 120, 0.7, 0.6, 41);

  // Gate the first generated tile so the single worker stays busy while
  // we fill the one queue slot.
  struct Gate {
    std::mutex m;
    std::condition_variable cv;
    bool open = false;
    std::atomic<int> entered{0};
  };
  auto gate = std::make_shared<Gate>();
  const TileGenerator inner = h.b_gen;
  ContractionRequest req = h.request();
  req.b_generator = [gate, inner](std::size_t r, std::size_t c) {
    ++gate->entered;
    std::unique_lock lock(gate->m);
    gate->cv.wait(lock, [&gate] { return gate->open; });
    return inner(r, c);
  };

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  ContractionService service(cfg);

  // First request: picked up by the worker, stuck in the generator.
  ServiceStatus s1 = ServiceStatus::kOk;
  ContractionResponse r1;
  std::thread t1([&] { s1 = service.submit(req, r1); });
  while (gate->entered.load() == 0) std::this_thread::yield();

  // Second request: occupies the single queue slot.
  ServiceStatus s2 = ServiceStatus::kOk;
  ContractionResponse r2;
  std::thread t2([&] { s2 = service.submit(req, r2); });
  while (service.metrics().submitted < 2) std::this_thread::yield();

  // Third request: the queue is full -> immediate reject, no blocking.
  ContractionResponse r3;
  EXPECT_EQ(service.submit(req, r3), ServiceStatus::kQueueFull);
  EXPECT_FALSE(r3.error.empty());
  EXPECT_EQ(service.metrics().rejected, 1u);

  {
    std::lock_guard lock(gate->m);
    gate->open = true;
  }
  gate->cv.notify_all();
  t1.join();
  t2.join();
  EXPECT_EQ(s1, ServiceStatus::kOk) << r1.error;
  EXPECT_EQ(s2, ServiceStatus::kOk) << r2.error;
  EXPECT_LT(r1.c.max_abs_diff(h.reference()), 1e-10);
}

TEST(Service, ConstructionStartsNoThreads) {
  const std::size_t before = process_threads();
  ServiceConfig cfg;
  cfg.workers = 4;
  ContractionService service(cfg);
  EXPECT_EQ(process_threads(), before);
}

TEST(Service, WaitingRequestsStartInArrivalOrder) {
  const ServiceHarness h(48, 120, 120, 0.7, 0.6, 43);
  ServiceConfig cfg;
  cfg.workers = 1;
  ContractionService service(cfg);

  BGate gate;
  ContractionRequest gated = h.request();
  gated.b_generator = gate.wrap(h.b_gen);
  ServiceStatus gated_status = ServiceStatus::kExecutionError;
  ContractionResponse gated_resp;
  std::thread runner(
      [&] { gated_status = service.submit(gated, gated_resp); });
  gate.wait_entered();

  // Each waiter records its tag when its B generator first runs, that is
  // when it has started executing.
  std::mutex log_mutex;
  std::vector<int> started;
  constexpr int kWaiters = 3;
  std::vector<ContractionRequest> requests(kWaiters, h.request());
  for (int tag = 0; tag < kWaiters; ++tag) {
    auto first = std::make_shared<std::once_flag>();
    const TileGenerator inner = h.b_gen;
    requests[static_cast<std::size_t>(tag)].b_generator =
        [&log_mutex, &started, first, inner, tag](std::size_t r,
                                                  std::size_t c) {
          std::call_once(*first, [&] {
            std::lock_guard lock(log_mutex);
            started.push_back(tag);
          });
          return inner(r, c);
        };
  }
  std::vector<ServiceStatus> statuses(kWaiters,
                                      ServiceStatus::kExecutionError);
  std::vector<ContractionResponse> responses(kWaiters);
  std::vector<std::thread> waiters;
  for (int tag = 0; tag < kWaiters; ++tag) {
    const auto t = static_cast<std::size_t>(tag);
    waiters.emplace_back([&, t] {
      statuses[t] = service.submit(requests[t], responses[t]);
    });
    // The next request arrives only once this one waits at the gate.
    while (service.metrics().submitted < t + 2) std::this_thread::yield();
  }

  gate.open();
  runner.join();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(gated_status, ServiceStatus::kOk) << gated_resp.error;
  for (std::size_t t = 0; t < kWaiters; ++t) {
    EXPECT_EQ(statuses[t], ServiceStatus::kOk) << responses[t].error;
  }
  EXPECT_EQ(started, (std::vector<int>{0, 1, 2}));
}

TEST(Service, ShutdownFailsWaitersAndFinishesTheRunningRequest) {
  const ServiceHarness h(48, 120, 120, 0.7, 0.6, 47);
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  ContractionService service(cfg);

  BGate gate;
  ContractionRequest gated = h.request();
  gated.b_generator = gate.wrap(h.b_gen);
  ServiceStatus gated_status = ServiceStatus::kExecutionError;
  ContractionResponse gated_resp;
  std::thread runner(
      [&] { gated_status = service.submit(gated, gated_resp); });
  gate.wait_entered();

  ServiceStatus waiter_status = ServiceStatus::kOk;
  ContractionResponse waiter_resp;
  std::thread waiter(
      [&] { waiter_status = service.submit(h.request(), waiter_resp); });
  while (service.metrics().submitted < 2) std::this_thread::yield();

  std::atomic<bool> shutdown_returned{false};
  std::size_t completed_at_return = 0;
  std::thread stopper([&] {
    service.shutdown();
    completed_at_return = service.metrics().completed;
    shutdown_returned = true;
  });

  // The waiter fails while the gated request still holds its slot, and
  // shutdown() keeps waiting for that request.
  waiter.join();
  EXPECT_EQ(waiter_status, ServiceStatus::kShuttingDown);
  EXPECT_FALSE(waiter_resp.error.empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(shutdown_returned.load());

  gate.open();
  runner.join();
  stopper.join();
  EXPECT_EQ(gated_status, ServiceStatus::kOk) << gated_resp.error;
  EXPECT_LT(gated_resp.c.max_abs_diff(h.reference()), 1e-10);
  EXPECT_EQ(completed_at_return, 1u);
}

TEST(Service, SessionIteratesExactlyWithPersistentB) {
  const ServiceHarness h(48, 160, 160, 0.6, 0.5, 51);
  const BlockSparseMatrix b_full = h.materialize_b();
  ContractionService service;
  std::uint64_t id = 0;
  ASSERT_EQ(service.open_session(h.session_config(), id), ServiceStatus::kOk);
  ASSERT_NE(id, 0u);

  Rng rng(99);
  for (int iter = 0; iter < 3; ++iter) {
    const BlockSparseMatrix a_iter =
        BlockSparseMatrix::random(h.a.shape(), rng);
    BlockSparseMatrix expected(h.c_shape);
    multiply_reference(a_iter, b_full, expected);
    ContractionResponse resp;
    ASSERT_EQ(service.iterate(id, a_iter, nullptr, resp), ServiceStatus::kOk)
        << resp.error;
    EXPECT_LT(resp.c.max_abs_diff(expected), 1e-10);
    EXPECT_TRUE(resp.plan_cache_hit);  // resolved once at open_session
    // The persistent B cache means no tile is ever re-generated, even
    // across iterations: the generation count stays at most one.
    EXPECT_EQ(resp.b_max_generations, 1u);
  }
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.sessions_opened, 1u);
  EXPECT_EQ(m.iterations, 3u);

  // Between iterations the B footprint can be trimmed; the next iteration
  // regenerates what it needs and is still exact.
  std::size_t freed = 0;
  EXPECT_EQ(service.trim_session(id, &freed), ServiceStatus::kOk);
  EXPECT_GT(freed, 0u);
  {
    const BlockSparseMatrix a_iter =
        BlockSparseMatrix::random(h.a.shape(), rng);
    BlockSparseMatrix expected(h.c_shape);
    multiply_reference(a_iter, b_full, expected);
    ContractionResponse resp;
    ASSERT_EQ(service.iterate(id, a_iter, nullptr, resp), ServiceStatus::kOk)
        << resp.error;
    EXPECT_LT(resp.c.max_abs_diff(expected), 1e-10);
  }

  EXPECT_EQ(service.close_session(id), ServiceStatus::kOk);
  EXPECT_EQ(service.metrics().sessions_closed, 1u);
  ContractionResponse resp;
  EXPECT_EQ(service.iterate(id, h.a, nullptr, resp),
            ServiceStatus::kSessionNotFound);
  EXPECT_EQ(service.close_session(id), ServiceStatus::kSessionNotFound);
}

TEST(Service, SessionAccumulatesIntoInitialC) {
  const ServiceHarness h(40, 120, 120, 0.7, 0.6, 61);
  ContractionService service;
  std::uint64_t id = 0;
  ASSERT_EQ(service.open_session(h.session_config(), id), ServiceStatus::kOk);
  BlockSparseMatrix expected(h.c_shape);
  multiply_reference(h.a, h.materialize_b(), expected);
  BlockSparseMatrix doubled = expected;
  for (std::size_t i = 0; i < h.c_shape.tile_rows(); ++i) {
    for (std::size_t j = 0; j < h.c_shape.tile_cols(); ++j) {
      if (h.c_shape.nonzero(i, j)) {
        doubled.tile(i, j).axpy(1.0, expected.tile(i, j));
      }
    }
  }
  ContractionResponse resp;
  ASSERT_EQ(service.iterate(id, h.a, &expected, resp), ServiceStatus::kOk)
      << resp.error;
  EXPECT_LT(resp.c.max_abs_diff(doubled), 1e-10);
  EXPECT_EQ(service.close_session(id), ServiceStatus::kOk);
}

TEST(Service, InvalidRequestsAreRejectedAtTheBoundary) {
  const ServiceHarness h(40, 120, 120, 0.7, 0.6, 71);
  ContractionService service;
  ContractionResponse resp;

  ContractionRequest null_a = h.request();
  null_a.a = nullptr;
  EXPECT_EQ(service.submit(null_a, resp), ServiceStatus::kInvalidRequest);
  EXPECT_FALSE(resp.error.empty());

  ContractionRequest no_gen = h.request();
  no_gen.b_generator = nullptr;
  EXPECT_EQ(service.submit(no_gen, resp), ServiceStatus::kInvalidRequest);

  // Inner tilings disagree: B rows drawn from a different tiling.
  const ServiceHarness other(40, 130, 120, 0.7, 0.6, 72);
  ContractionRequest mismatched = h.request();
  mismatched.b_shape = &other.b_shape;
  EXPECT_EQ(service.submit(mismatched, resp), ServiceStatus::kInvalidRequest);

  // Session A-shape validation.
  std::uint64_t id = 0;
  ASSERT_EQ(service.open_session(h.session_config(), id), ServiceStatus::kOk);
  ContractionResponse iresp;
  EXPECT_EQ(service.iterate(id, other.a, nullptr, iresp),
            ServiceStatus::kInvalidRequest);
  EXPECT_EQ(service.close_session(id), ServiceStatus::kOk);
}

TEST(Service, ShutdownRejectsNewWorkAndIsIdempotent) {
  const ServiceHarness h(40, 120, 120, 0.7, 0.6, 81);
  ContractionService service;
  ContractionResponse warm;
  ASSERT_EQ(service.submit(h.request(), warm), ServiceStatus::kOk);
  service.shutdown();
  service.shutdown();  // idempotent
  ContractionResponse resp;
  EXPECT_EQ(service.submit(h.request(), resp), ServiceStatus::kShuttingDown);
  std::uint64_t id = 0;
  EXPECT_EQ(service.open_session(h.session_config(), id),
            ServiceStatus::kShuttingDown);
}

TEST(Service, CacheHitSkipsInspectorTime) {
  const ServiceHarness h(48, 160, 160, 0.6, 0.5, 91);
  ServiceConfig cfg;
  cfg.workers = 1;
  ContractionService service(cfg);
  ContractionResponse cold, warm;
  ASSERT_EQ(service.submit(h.request(), cold), ServiceStatus::kOk);
  ASSERT_EQ(service.submit(h.request(), warm), ServiceStatus::kOk);
  EXPECT_FALSE(cold.plan_cache_hit);
  EXPECT_GT(cold.inspect_s, 0.0);
  EXPECT_TRUE(warm.plan_cache_hit);
  // The warm path never runs the inspector: its inspect time is exactly 0.
  EXPECT_EQ(warm.inspect_s, 0.0);
  // The >= 10x submit-to-start latency claim is demonstrated (with wall
  // clocks, on a planning-heavy problem) by bench/bench_service.cpp.
}

}  // namespace
}  // namespace bstc
