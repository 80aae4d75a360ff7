#pragma once

/// \file compute_pool.hpp
/// ComputePool — one persistent team of helper threads that the
/// executor's lanes borrow for the data-parallel inside of a task.
///
/// The paper runs each batched GEMM across every SM of a V100; here a
/// "device" is one scheduler lane (a thread), and the host's remaining
/// cores would idle. A lane that holds divisible work (a gemmbatch's
/// column panels or item ranges, a B piece's missing tiles) calls
/// parallel_for: idle helpers claim units while the caller claims units
/// itself, so a lane never queues behind another lane's job, and units no
/// helper picks up run on the caller. One shared pool, rather than a fixed
/// team per device, also lets a lane that finished early lend its share of
/// cores to the one still running.
///
/// Rules the implementation keeps:
///  * waits block on condition variables (no spinning: lanes outnumber
///    the spare cores);
///  * the first exception a unit throws is rethrown in the caller after
///    every claimed unit has finished, unclaimed units are skipped, and
///    the pool stays usable;
///  * the process pool is created lazily in each process: a forked child
///    never uses its parent's pool, whose helper threads it does not have;
///  * the pool's own bookkeeping never calls malloc or free on a helper
///    (jobs are linked through themselves), and GEMM units do not either
///    (a helper's pack arena is mapped): a thread's first malloc or free
///    ties it to a glibc arena for good, and blocks it frees stay in its
///    own cache. Helpers that did raised abcd-fine's peak RSS from ~180
///    to ~190 MiB in most runs.
///
/// Callers keep their units few and coarse (at most one per member, none
/// below the fork-join cost `bench_micro`'s BM_PoolForkJoin measures).

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bstc {

class ComputePool {
 public:
  /// A pool of `members` threads counting the caller of parallel_for:
  /// members - 1 helper threads are started (none when members <= 1),
  /// and the constructor returns once all of them are waiting for work.
  explicit ComputePool(unsigned members);
  /// Joins the helpers. No parallel_for may still be running.
  ~ComputePool();
  ComputePool(const ComputePool&) = delete;
  ComputePool& operator=(const ComputePool&) = delete;

  /// Threads that can work on one parallel_for: the helpers plus the
  /// caller.
  unsigned size() const {
    return static_cast<unsigned>(helpers_.size()) + 1;
  }

  /// Run fn(0), ..., fn(units - 1), each on some pool member, and return
  /// when all have finished. Safe to call from several threads at once;
  /// each caller works on its own job until it is fully claimed. Counts
  /// one `bstc_pool_fanouts_total` and the units helpers ran
  /// (`bstc_pool_helper_units_total`) once per call that was offered to
  /// helpers.
  void parallel_for(std::size_t units,
                    const std::function<void(std::size_t)>& fn);

  /// This process's pool, created on its first use in the process with
  /// process_pool_members(ranks_on_host) members (later calls return the
  /// same pool whatever they pass). A child forked after first use gets
  /// a fresh pool on its own first use.
  static ComputePool& process(unsigned ranks_on_host);

  /// Whether the calling thread is a helper of some pool.
  static bool on_helper_thread();

 private:
  struct Job;

  void helper_main();
  void stop_helpers();
  /// Runs unit `u` of `job` (claimed under the lock) and records its
  /// completion. `lock` is held on entry and exit, released meanwhile.
  void run_unit(Job& job, std::size_t u, std::unique_lock<std::mutex>& lock);
  /// Drops `job` from the queue of jobs with unclaimed units.
  void retire(Job& job);

  std::mutex mutex_;  ///< guards jobs_, stop_ and every Job's counters
  std::condition_variable work_;  ///< a job was posted, or stop_
  std::condition_variable done_;  ///< some job's claimed units finished
  /// Jobs with unclaimed units, FIFO, linked through Job::next. Each job
  /// lives on its caller's stack, so queueing allocates nothing.
  Job* jobs_ = nullptr;
  std::size_t parked_ = 0;        ///< helpers that reached their loop
  bool stop_ = false;
  std::vector<std::thread> helpers_;  ///< last: they use the members above
};

/// The process pool's size: this rank's share of the CPUs the process may
/// run on (sched_getaffinity, divided among the ranks that share the
/// host), less one, and at least 1. The one left over keeps a rank's
/// lanes from oversubscribing its share when two lanes split and a third
/// generates B at once: a helper time-sliced out mid-unit stalls its
/// lane. On a 4-vCPU host under two CPU-bound neighbours, abcd-coarse
/// ran 7-15% slower than without the pool with 4 members and level with
/// it with 3; unloaded, 3 members gained as much as 4.
unsigned process_pool_members(unsigned ranks_on_host);

}  // namespace bstc
