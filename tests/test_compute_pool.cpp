/// ComputePool: every unit runs exactly once, helpers really take part, a
/// helper's exception reaches the caller only after every claimed unit
/// finished, concurrent callers both complete, and a forked child builds
/// its own process pool instead of waiting on its parent's dead helpers.
/// The fork test (ComputePoolFork) stays out of the TSan job, which
/// forbids fork() from a threaded process.

#include <gtest/gtest.h>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/compute_pool.hpp"

namespace bstc {
namespace {

/// A one-shot flag a unit can wait on with a deadline, so a test fails
/// instead of hanging when the pool never hands the other unit out.
class Latch {
 public:
  void open() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  bool wait() {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10), [this] {
      return open_;
    });
  }

 private:
  std::mutex mutex_;
  bool open_ = false;
  std::condition_variable cv_;
};

TEST(ComputePool, RunsEveryUnitExactlyOnce) {
  for (unsigned members = 1; members <= 4; ++members) {
    ComputePool pool(members);
    EXPECT_EQ(pool.size(), members);
    for (const std::size_t units : {0u, 1u, 2u, 3u, 4u, 7u, 64u}) {
      std::vector<std::atomic<int>> runs(units);
      pool.parallel_for(units, [&runs](std::size_t u) { ++runs[u]; });
      for (std::size_t u = 0; u < units; ++u) {
        EXPECT_EQ(runs[u].load(), 1) << members << " members, unit " << u;
      }
    }
  }
}

TEST(ComputePool, HelpersRunUnitsTheCallerLeaves) {
  // The caller claims unit 0 first and holds it until unit 1 has
  // started, so unit 1 can only have run on a helper.
  ComputePool pool(2);
  const auto counters_before = obs::Registry::instance().counters();
  Latch started;
  std::thread::id unit1_thread;
  pool.parallel_for(2, [&](std::size_t u) {
    if (u == 0) {
      EXPECT_TRUE(started.wait());
    } else {
      unit1_thread = std::this_thread::get_id();
      started.open();
    }
  });
  EXPECT_NE(unit1_thread, std::this_thread::get_id());
  auto counters = obs::Registry::instance().counters();
  auto delta = [&](const char* name) {
    const auto it = counters_before.find(name);
    return counters[name] - (it == counters_before.end() ? 0 : it->second);
  };
  EXPECT_EQ(delta("bstc_pool_fanouts_total"), 1u);
  EXPECT_EQ(delta("bstc_pool_helper_units_total"), 1u);
}

TEST(ComputePool, HelperExceptionReachesCallerAndPoolStaysUsable) {
  ComputePool pool(3);
  Latch started;
  bool threw = false;
  try {
    pool.parallel_for(2, [&](std::size_t u) {
      if (u == 0) {
        EXPECT_TRUE(started.wait());
        return;
      }
      started.open();
      throw std::runtime_error("unit 1 failed on a helper");
    });
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "unit 1 failed on a helper");
  }
  EXPECT_TRUE(threw);

  std::atomic<int> sum{0};
  pool.parallel_for(6, [&sum](std::size_t u) {
    sum += static_cast<int>(u);
  });
  EXPECT_EQ(sum.load(), 15);
}

TEST(ComputePool, RethrowWaitsForEveryClaimedUnit) {
  // The caller's own unit fails while a helper still runs unit 1: the
  // error must not surface before that unit returns.
  ComputePool pool(2);
  Latch started;
  std::atomic<bool> helper_done{false};
  EXPECT_THROW(pool.parallel_for(2,
                                 [&](std::size_t u) {
                                   if (u == 1) {
                                     started.open();
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(50));
                                     helper_done = true;
                                     return;
                                   }
                                   EXPECT_TRUE(started.wait());
                                   throw std::runtime_error("caller unit");
                                 }),
               std::runtime_error);
  EXPECT_TRUE(helper_done.load());
}

TEST(ComputePool, ConcurrentCallersBothComplete) {
  ComputePool pool(3);
  constexpr int kRounds = 200;
  std::atomic<long> total{0};
  auto caller = [&] {
    for (int r = 0; r < kRounds; ++r) {
      pool.parallel_for(5, [&total](std::size_t u) {
        total += static_cast<long>(u) + 1;
      });
    }
  };
  std::thread first(caller);
  std::thread second(caller);
  first.join();
  second.join();
  EXPECT_EQ(total.load(), 2L * kRounds * 15);
}

TEST(ComputePool, ProcessPoolSplitsTheHostBetweenRanks) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  const auto cpus = static_cast<unsigned>(CPU_COUNT(&set));
  for (const unsigned ranks : {1u, 2u, 3u}) {
    EXPECT_EQ(process_pool_members(ranks),
              cpus / ranks > 1 ? cpus / ranks - 1 : 1u)
        << ranks << " ranks on " << cpus << " CPUs";
  }
  EXPECT_EQ(process_pool_members(cpus * 4), 1u);
  EXPECT_EQ(&ComputePool::process(1), &ComputePool::process(1));
}

TEST(ComputePoolFork, ChildBuildsItsOwnPool) {
  if (process_pool_members(1) < 2) {
    GTEST_SKIP() << "needs at least 3 CPUs for a helper";
  }
  // The parent's pool has live, parked helpers at fork time.
  ComputePool& parent_pool = ComputePool::process(1);
  std::atomic<int> sum{0};
  parent_pool.parallel_for(parent_pool.size(), [&sum](std::size_t u) {
    sum += static_cast<int>(u);
  });

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int rc = 0;
    ComputePool& pool = ComputePool::process(1);
    if (&pool == &parent_pool) rc = 2;
    if (rc == 0 && pool.size() < 2) rc = 3;
    if (rc == 0) {
      Latch started;
      bool unit0_saw_helper = false;
      std::thread::id caller = std::this_thread::get_id();
      std::thread::id unit1_thread;
      pool.parallel_for(2, [&](std::size_t u) {
        if (u == 0) {
          unit0_saw_helper = started.wait();
        } else {
          unit1_thread = std::this_thread::get_id();
          started.open();
        }
      });
      if (!unit0_saw_helper || unit1_thread == caller) rc = 4;
    }
    _exit(rc);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "2: inherited the parent's pool, 3: no helpers, 4: no helper ran";
}

}  // namespace
}  // namespace bstc
