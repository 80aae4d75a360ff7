#pragma once

/// \file plan_cache.hpp
/// Capacity-bounded LRU cache of ExecutionPlans and their task-graph
/// lowerings keyed by problem fingerprint, with single-flight
/// deduplication of concurrent builds.
///
/// The inspector is the expensive once-per-problem step (paper §3.2.4);
/// the serving layer amortizes it across every client that submits the
/// same problem. Single-flight matters under concurrency: when N
/// requests for the same fingerprint arrive together, exactly one runs
/// the inspector while the other N-1 wait on its result — the paper's
/// inspect-once guarantee, enforced rather than assumed.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/engine.hpp"
#include "plan/plan.hpp"

namespace bstc {

/// Cumulative cache counters (monotonic; snapshot with stats()).
struct PlanCacheStats {
  std::size_t hits = 0;    ///< served from cache or a joined *successful* build
  std::size_t misses = 0;  ///< builds that executed and succeeded
  std::size_t evictions = 0;      ///< plans dropped by LRU capacity
  std::size_t failed_builds = 0;  ///< builds that threw (joiners rethrow but
                                  ///< count neither as hit nor miss)
  std::size_t size = 0;           ///< plans currently cached
};

/// What one build produces and the cache keeps: the inspector's plan and
/// its lowering to the executor's task graph (null when the builder
/// lowered nothing), so a hit skips both.
struct CachedPlan {
  ExecutionPlan plan;
  std::shared_ptr<const LoweredPlan> lowered;
};

/// Thread-safe LRU plan cache. Entries are immutable once built and
/// shared by reference count, so an eviction never invalidates a plan or
/// a lowering a request is still executing against.
class PlanCache {
 public:
  using PlanPtr = std::shared_ptr<const CachedPlan>;
  using Builder = std::function<CachedPlan()>;

  /// `capacity` = maximum number of cached plans (>= 1).
  explicit PlanCache(std::size_t capacity);

  /// Return the plan for `key`, building it with `build` on a miss.
  /// Concurrent calls for the same key share one build (single-flight);
  /// joiners count as hits only once the joined build succeeds.
  /// `build_seconds` (optional) receives the build's wall-clock, inspector
  /// and lowering (0 on a hit), `was_hit` (optional) whether the plan came from cache / a
  /// joined build. If `build` throws, every waiter observes the
  /// exception, the key stays absent, and failed_builds increments once.
  PlanPtr get_or_build(std::uint64_t key, const Builder& build,
                       bool* was_hit = nullptr,
                       double* build_seconds = nullptr);

  /// Peek without building; nullptr on miss. Does not perturb counters.
  PlanPtr lookup(std::uint64_t key);

  /// Drop every cached plan (in-flight builds still complete and insert).
  void clear();

  PlanCacheStats stats() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    PlanPtr plan;
  };

  void touch_locked(std::list<Slot>::iterator it);
  void insert_locked(std::uint64_t key, PlanPtr plan);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Slot> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Slot>::iterator> index_;
  std::unordered_map<std::uint64_t, std::shared_future<PlanPtr>> inflight_;
  PlanCacheStats stats_;
};

}  // namespace bstc
