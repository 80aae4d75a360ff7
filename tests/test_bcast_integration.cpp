/// End-to-end tests of the collective A-broadcast across real rank
/// processes: four fork()ed workers on TCP loopback spread over two
/// simulated nodes (--node-id), checked bitwise against the
/// single-process engine, with the measured intra/inter-node byte split
/// checked *exactly* against the plan's analytic prediction. No option
/// selects the layout or the algorithm: both follow from the node map
/// and the tile sizes.
///
/// fork()-based like test_net_integration; excluded from TSan runs.

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "comm/bcast.hpp"
#include "core/engine.hpp"
#include "machine/topology.hpp"
#include "net/launch.hpp"
#include "plan/builder.hpp"
#include "support/error.hpp"

namespace bstc::net {
namespace {

struct Child {
  pid_t pid = -1;
  bool reaped = false;
  int status = 0;
};

/// fork() a worker with a self-reported node id, running run_worker()
/// directly — the code path `bstc_cli launch --node-map ...` drives
/// through exec.
void spawn_worker(std::vector<Child>& children, const NetProblemSpec& spec,
                  const std::string& host, std::uint16_t port,
                  int node_id) {
  const pid_t pid = fork();
  if (pid < 0) throw Error("fork failed");
  if (pid == 0) {
    int rc = 3;
    try {
      WorkerOptions w;
      w.host = host;
      w.port = port;
      w.spec = spec;
      w.node_id = node_id;
      rc = run_worker(w);
    } catch (...) {
      rc = 3;
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

NetProblemSpec small_spec() {
  NetProblemSpec spec;
  spec.m = 64;
  spec.k = 256;
  spec.n = 256;
  spec.np = 4;
  spec.p = 2;
  return spec;
}

LaunchReport launch_two_nodes(const NetProblemSpec& spec,
                              std::vector<Child>& children) {
  LaunchOptions opts;
  opts.spec = spec;
  // Workers 0 and 2 report node 0; workers 1 and 3 report node 1 (rank
  // assignment is by hello arrival order, so the welcome's rank -> node
  // map — which everything downstream uses — absorbs any reordering).
  LaunchReport report;
  try {
    report = run_launcher(
        opts,
        [&](const std::string& host, std::uint16_t port, int index) {
          spawn_worker(children, opts.spec, host, port, index % 2);
        },
        [&] { return poll_dead(children); });
  } catch (...) {
    reap_all(children);
    throw;
  }
  reap_all(children);
  return report;
}

void expect_clean_exit(const std::vector<Child>& children) {
  ASSERT_EQ(children.size(), 4u);
  for (const Child& c : children) {
    EXPECT_TRUE(WIFEXITED(c.status));
    EXPECT_EQ(WEXITSTATUS(c.status), 0);
  }
}

TEST(BcastIntegration, NodeAwareGridMovesAllATrafficIntraNode) {
  // Two grid rows, two ranks per node, no flag: the node-aware layout
  // confines each row to one node, so the paper's row broadcast leaves
  // the interconnect entirely — inter-node A bytes are exactly zero
  // while the total volume (and the bitwise result) is unchanged. Any
  // two-plus-two arrival order of the hellos gives the same answer.
  std::vector<Child> children;
  const LaunchReport report = launch_two_nodes(small_spec(), children);
  expect_clean_exit(children);

  EXPECT_TRUE(report.verdict.bitwise_identical);
  EXPECT_TRUE(report.bytes_match);
  EXPECT_TRUE(report.ok);
  EXPECT_GT(report.total_a_wire_bytes, 0.0);
  EXPECT_EQ(report.total_a_inter_bytes, 0.0);
  EXPECT_EQ(report.total_a_intra_bytes, report.total_a_wire_bytes);
  EXPECT_EQ(report.verdict.stats_a_internode_bytes, 0.0);
}

TEST(BcastIntegration, RingBroadcastOverTwoNodesIsBitwiseAndExact) {
  // One grid row of four ranks straddles both nodes, and every A tile
  // is 192 x 192 (288 KiB), so the policy broadcasts it by ring to the
  // whole row (B is dense: every rank consumes every tile). Each tile
  // then crosses the interconnect exactly (distinct nodes - 1) = 1
  // times whatever order the hellos arrived in; the measured split must
  // land on that prediction and on the plan's, byte for byte.
  NetProblemSpec spec;
  spec.m = 192;
  spec.k = 768;
  spec.n = 768;
  spec.tile_lo = spec.tile_hi = 192;
  spec.density = 1.0;
  spec.np = 4;
  spec.p = 1;
  spec.gpu_mem = 4.0e6;

  // The row's layout is the identity on any two-plus-two map, so the
  // test's own lowering of the plan names every broadcast of the run.
  const std::vector<int> map = {0, 1, 0, 1};
  ASSERT_TRUE(node_aware_layout(spec.p, spec.np / spec.p, map).empty());
  const BuiltProblem prob = build_problem(spec);
  const ExecutionPlan plan = build_plan(prob.a_shape, prob.b_shape,
                                        prob.c_shape, prob.machine,
                                        prob.plan_cfg);
  EngineConfig ecfg;
  ecfg.plan = prob.plan_cfg;
  const std::shared_ptr<const LoweredPlan> lowered = lower_plan(
      plan, prob.a_shape, prob.b_shape, prob.c_shape, prob.machine, ecfg);
  ASSERT_FALSE(lowered->a_sends.empty());
  double expect_inter = 0.0;
  double expect_intra = 0.0;
  for (const LoweredPlan::ASend& send : lowered->a_sends) {
    std::vector<int> parts = send.consumers;
    parts.push_back(send.home);
    std::sort(parts.begin(), parts.end());
    ASSERT_EQ(parts.size(), 4u);
    const double bytes =
        static_cast<double>(prob.a.tile(send.i, send.k).bytes());
    const BcastAlgorithm algo =
        resolve_bcast(parts.size(), static_cast<std::size_t>(bytes));
    ASSERT_EQ(algo, BcastAlgorithm::kRing);
    int crossings = 0;
    for (const BcastHop& hop : bcast_hops(algo, parts, send.home, map)) {
      crossings += bcast_node_of(map, hop.from) != bcast_node_of(map, hop.to);
    }
    EXPECT_EQ(crossings, distinct_nodes(parts, map) - 1);
    expect_inter += crossings * bytes;
    expect_intra += (static_cast<double>(parts.size()) - 1 - crossings) * bytes;
  }

  std::vector<Child> children;
  const LaunchReport report = launch_two_nodes(spec, children);
  expect_clean_exit(children);

  EXPECT_TRUE(report.verdict.bitwise_identical);
  EXPECT_TRUE(report.bytes_match);
  EXPECT_TRUE(report.ok);
  EXPECT_GT(report.total_a_inter_bytes, 0.0);
  EXPECT_EQ(report.total_a_inter_bytes, expect_inter);
  EXPECT_EQ(report.total_a_intra_bytes, expect_intra);
  EXPECT_EQ(report.total_a_inter_bytes,
            report.verdict.stats_a_internode_bytes);
  EXPECT_EQ(report.total_a_intra_bytes,
            report.verdict.stats_a_intranode_bytes);
}

}  // namespace
}  // namespace bstc::net
