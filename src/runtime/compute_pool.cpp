#include "runtime/compute_pool.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <exception>

#include "obs/obs.hpp"

namespace bstc {

/// One parallel_for call; lives on its caller's stack until every unit it
/// handed out has finished. Counters are guarded by the pool mutex.
struct ComputePool::Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t units = 0;     ///< lowered to `claimed` after a failure
  std::size_t claimed = 0;   ///< units handed out so far
  std::size_t finished = 0;  ///< claimed units that have returned
  std::size_t helper_units = 0;
  std::exception_ptr error;  ///< the first failure
  Job* next = nullptr;       ///< the next job in jobs_
};

ComputePool::ComputePool(unsigned members) {
  const unsigned helpers = members > 1 ? members - 1 : 0;
  // Helpers read helpers_.size(), so they start under the lock. Return
  // only once every helper is parked, so a fork() right after never
  // catches one inside its thread start-up (sanitizer runtimes allocate
  // there, and a lock held across fork stays held in the child).
  std::unique_lock lock(mutex_);
  try {
    helpers_.reserve(helpers);
    for (unsigned h = 0; h < helpers; ++h) {
      helpers_.emplace_back([this] { helper_main(); });
    }
  } catch (...) {
    lock.unlock();
    stop_helpers();
    throw;
  }
  done_.wait(lock, [this] { return parked_ == helpers_.size(); });
}

ComputePool::~ComputePool() { stop_helpers(); }

void ComputePool::stop_helpers() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void ComputePool::retire(Job& job) {
  for (Job** link = &jobs_; *link != nullptr; link = &(*link)->next) {
    if (*link == &job) {
      *link = job.next;
      job.next = nullptr;
      return;
    }
  }
}

void ComputePool::run_unit(Job& job, std::size_t u,
                           std::unique_lock<std::mutex>& lock) {
  if (job.claimed == job.units) retire(job);
  lock.unlock();
  std::exception_ptr error;
  try {
    (*job.fn)(u);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error && !job.error) {
    job.error = error;
    job.units = job.claimed;  // nobody claims the rest
    retire(job);
  }
  if (++job.finished == job.claimed) done_.notify_all();
}

namespace {
thread_local bool t_on_helper = false;
}  // namespace

bool ComputePool::on_helper_thread() { return t_on_helper; }

void ComputePool::helper_main() {
  t_on_helper = true;
  std::unique_lock lock(mutex_);
  if (++parked_ == helpers_.size()) done_.notify_all();
  while (true) {
    work_.wait(lock, [this] { return stop_ || jobs_ != nullptr; });
    if (stop_) return;
    Job& job = *jobs_;
    ++job.helper_units;
    run_unit(job, job.claimed++, lock);
  }
}

void ComputePool::parallel_for(std::size_t units,
                               const std::function<void(std::size_t)>& fn) {
  if (units <= 1 || helpers_.empty()) {
    for (std::size_t u = 0; u < units; ++u) fn(u);
    return;
  }
  Job job;
  job.fn = &fn;
  job.units = units;
  std::unique_lock lock(mutex_);
  Job** tail = &jobs_;
  while (*tail != nullptr) tail = &(*tail)->next;
  *tail = &job;
  // Wake only as many helpers as there are units beyond the caller's.
  const std::size_t wake = std::min(units - 1, helpers_.size());
  for (std::size_t w = 0; w < wake; ++w) work_.notify_one();
  while (job.claimed < job.units) run_unit(job, job.claimed++, lock);
  done_.wait(lock, [&job] { return job.finished == job.claimed; });
  const std::size_t helper_units = job.helper_units;
  lock.unlock();

  obs::Registry& reg = obs::Registry::instance();
  reg.counter_add("bstc_pool_fanouts_total");
  reg.counter_add("bstc_pool_helper_units_total", helper_units);
  if (job.error) std::rethrow_exception(job.error);
}

unsigned process_pool_members(unsigned ranks_on_host) {
  cpu_set_t set;
  CPU_ZERO(&set);
  unsigned cpus = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<unsigned>(CPU_COUNT(&set));
  }
  if (cpus == 0) cpus = std::max(1u, std::thread::hardware_concurrency());
  const unsigned share = cpus / std::max(1u, ranks_on_host);
  return share > 1 ? share - 1 : 1;
}

namespace {

// The process pool is never destroyed: its helpers may still be parked
// when static destructors run. A forked child has none of those helpers,
// so the fork handler sets the parent's pool aside (kept reachable, never
// touched) and the child builds its own on first use. Holding the mutex
// across fork() keeps a concurrent first use from leaving it locked in
// the child.
std::mutex g_process_mutex;
ComputePool* g_process_pool = nullptr;
std::vector<ComputePool*>* g_inherited_pools = nullptr;
std::once_flag g_fork_handlers;

void lock_for_fork() { g_process_mutex.lock(); }
void unlock_after_fork() { g_process_mutex.unlock(); }
void reset_in_child() {
  if (g_process_pool != nullptr) {
    if (g_inherited_pools == nullptr) {
      g_inherited_pools = new std::vector<ComputePool*>;
    }
    g_inherited_pools->push_back(g_process_pool);
    g_process_pool = nullptr;
  }
  g_process_mutex.unlock();
}

}  // namespace

ComputePool& ComputePool::process(unsigned ranks_on_host) {
  std::call_once(g_fork_handlers, [] {
    pthread_atfork(lock_for_fork, unlock_after_fork, reset_in_child);
  });
  std::lock_guard lock(g_process_mutex);
  if (g_process_pool == nullptr) {
    g_process_pool = new ComputePool(process_pool_members(ranks_on_host));
  }
  return *g_process_pool;
}

}  // namespace bstc
