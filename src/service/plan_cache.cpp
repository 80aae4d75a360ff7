#include "service/plan_cache.hpp"

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace bstc {

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  BSTC_REQUIRE(capacity >= 1, "plan cache capacity must be >= 1");
}

void PlanCache::touch_locked(std::list<Slot>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void PlanCache::insert_locked(std::uint64_t key, PlanPtr plan) {
  lru_.push_front(Slot{key, std::move(plan)});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

PlanCache::PlanPtr PlanCache::get_or_build(std::uint64_t key,
                                           const Builder& build,
                                           bool* was_hit,
                                           double* build_seconds) {
  if (was_hit != nullptr) *was_hit = true;
  if (build_seconds != nullptr) *build_seconds = 0.0;

  std::shared_future<PlanPtr> pending;
  std::promise<PlanPtr> promise;
  {
    std::lock_guard lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      touch_locked(it->second);
      return it->second->plan;
    }
    const auto fit = inflight_.find(key);
    if (fit != inflight_.end()) {
      // Another thread is building this plan right now: join its result
      // instead of running the inspector again (single-flight).
      pending = fit->second;
    } else {
      inflight_.emplace(key, promise.get_future().share());
    }
  }
  if (pending.valid()) {
    // A joined build is a hit only if it succeeds — counting before
    // get() resolves would inflate the hit rate under failing builds
    // (the owner alone accounts the failure, as failed_builds).
    PlanPtr plan = pending.get();  // may rethrow the build error
    std::lock_guard lock(mutex_);
    ++stats_.hits;
    return plan;
  }

  // We own the build. Run the inspector outside the lock.
  Timer timer;
  try {
    obs::ScopedSpan span(obs::Category::kPlan, "plan-build");
    PlanPtr plan = std::make_shared<const CachedPlan>(build());
    const double seconds = timer.elapsed_s();
    {
      std::lock_guard lock(mutex_);
      ++stats_.misses;
      insert_locked(key, plan);
      inflight_.erase(key);
    }
    promise.set_value(plan);
    if (was_hit != nullptr) *was_hit = false;
    if (build_seconds != nullptr) *build_seconds = seconds;
    return plan;
  } catch (...) {
    {
      std::lock_guard lock(mutex_);
      ++stats_.failed_builds;
      inflight_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

PlanCache::PlanPtr PlanCache::lookup(std::uint64_t key) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : it->second->plan;
}

void PlanCache::clear() {
  std::lock_guard lock(mutex_);
  lru_.clear();
  index_.clear();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard lock(mutex_);
  PlanCacheStats out = stats_;
  out.size = lru_.size();
  return out;
}

}  // namespace bstc
