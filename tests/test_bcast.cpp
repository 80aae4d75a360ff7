/// Tests for the collective A-broadcast layer: fanout properties of the
/// tree/ring/hierarchical algorithms, the tile-size policy that picks
/// between them, node-aware grid layouts, the serialize-once guarantee of
/// NetTransport::send_multi, and the analytic intra/inter-node volume
/// split.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "comm/bcast.hpp"
#include "machine/topology.hpp"
#include "net/launch.hpp"
#include "net/net_transport.hpp"
#include "obs/obs.hpp"
#include "plan/builder.hpp"
#include "plan/stats.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace bstc {
namespace {

/// Validate that `hops` forms a proper broadcast: parts.size()-1 hops,
/// every non-root participant receives exactly once, and every sender
/// already held the tile (reachability from the root).
void expect_valid_broadcast(BcastAlgorithm algo,
                            const std::vector<int>& parts, int root,
                            const std::vector<int>& node_of_rank) {
  const std::vector<BcastHop> hops =
      bcast_hops(algo, parts, root, node_of_rank);
  ASSERT_EQ(hops.size(), parts.size() - 1)
      << bcast_algorithm_name(algo) << " root " << root;

  std::set<int> receivers;
  for (const BcastHop& h : hops) {
    EXPECT_NE(h.from, h.to);
    EXPECT_TRUE(std::binary_search(parts.begin(), parts.end(), h.from));
    EXPECT_TRUE(receivers.insert(h.to).second)
        << "rank " << h.to << " received twice";
  }
  std::set<int> expect(parts.begin(), parts.end());
  expect.erase(root);
  EXPECT_EQ(receivers, expect);

  // Reachability: repeatedly deliver along hops until fixpoint; every
  // sender must have held the tile before sending.
  std::set<int> holding{root};
  bool progressed = true;
  std::vector<BcastHop> pending(hops);
  while (progressed) {
    progressed = false;
    for (auto it = pending.begin(); it != pending.end();) {
      if (holding.count(it->from)) {
        holding.insert(it->to);
        it = pending.erase(it);
        progressed = true;
      } else {
        ++it;
      }
    }
  }
  EXPECT_TRUE(pending.empty()) << "unreachable hops remain";

  // Per-rank fanouts agree with the hop union: sender and receivers
  // compute routing from the same frame fields, so they can't disagree.
  for (const int self : parts) {
    std::multiset<int> from_hops;
    for (const BcastHop& h : hops) {
      if (h.from == self) from_hops.insert(h.to);
    }
    const std::vector<int> kids =
        bcast_children(algo, parts, root, self, node_of_rank);
    EXPECT_EQ(std::multiset<int>(kids.begin(), kids.end()), from_hops)
        << "self " << self;
  }
}

TEST(Bcast, EveryAlgorithmDeliversEachConsumerExactlyOnce) {
  Rng rng(17);
  const std::vector<std::vector<int>> maps = {
      {},                        // unknown topology: each rank its own node
      {0, 0, 0, 0, 0, 0, 0, 0},  // one node
      {0, 1, 0, 1, 0, 1, 0, 1},  // interleaved
      {0, 0, 1, 1, 2, 2, 3, 3},  // packed pairs
  };
  for (const auto algo : {BcastAlgorithm::kTree, BcastAlgorithm::kRing}) {
    for (const auto& map : maps) {
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<int> parts;
        for (int r = 0; r < 8; ++r) {
          if (rng.uniform_int(0, 1)) parts.push_back(r);
        }
        if (parts.size() < 2) parts = {1, 5};
        const int root =
            parts[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<int>(parts.size()) - 1))];
        expect_valid_broadcast(algo, parts, root, map);
      }
    }
  }
}

TEST(Bcast, HierarchicalFanoutCrossesEachNodeBoundaryOnce) {
  // Whatever the per-node rank counts, tree and ring route exactly
  // (distinct nodes - 1) hops over the interconnect — the node-aware
  // grid argument: broadcast cost scales with nodes, not ranks.
  const std::vector<int> map = {0, 0, 0, 1, 1, 2, 3, 3};
  const std::vector<int> parts = {0, 1, 2, 3, 4, 5, 6, 7};
  for (const auto algo : {BcastAlgorithm::kTree, BcastAlgorithm::kRing}) {
    for (const int root : parts) {
      const auto hops = bcast_hops(algo, parts, root, map);
      int inter = 0;
      for (const BcastHop& h : hops) {
        if (bcast_node_of(map, h.from) != bcast_node_of(map, h.to)) {
          ++inter;
        }
      }
      EXPECT_EQ(inter, distinct_nodes(parts, map) - 1)
          << bcast_algorithm_name(algo) << " root " << root;
    }
  }
}

TEST(Bcast, NodeAwareLayoutPacksRowsOntoFewestNodes) {
  // 2x2 grid, ranks interleaved across two nodes: the identity layout
  // puts one rank of each node in every row; the node-aware layout
  // confines each row to one node.
  const std::vector<int> map = {0, 1, 0, 1};
  const std::vector<int> layout = node_aware_layout(2, 2, map);

  std::vector<int> sorted(layout);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3}));  // a permutation

  for (int row = 0; row < 2; ++row) {
    const std::vector<int> ranks{layout[row * 2], layout[row * 2 + 1]};
    EXPECT_EQ(distinct_nodes(ranks, map), 1) << "row " << row;
  }
}

TEST(Bcast, NodeAwareLayoutIsIdentityOnASingleNode) {
  // The identity comes back empty (GridSpec's spelling of it), so a
  // single-node run plans exactly as a run with no node map at all.
  const std::vector<int> map(6, 0);
  EXPECT_TRUE(node_aware_layout(2, 3, map).empty());
  EXPECT_TRUE(node_aware_layout(2, 3, {}).empty());
  // Ranks already packed by node need no permutation either.
  EXPECT_TRUE(node_aware_layout(2, 2, {0, 0, 1, 1}).empty());
  EXPECT_THROW(node_aware_layout(2, 2, {0, 0, 1}), Error);
}

TEST(Bcast, ResolvePicksTreeBelowTheRingSizeAndRingAtOrAbove) {
  // Pairs are always a tree (one hop either way); otherwise the tile
  // size alone decides.
  EXPECT_EQ(resolve_bcast(2, 1 << 30), BcastAlgorithm::kTree);
  EXPECT_EQ(resolve_bcast(4, kRingBcastMinBytes), BcastAlgorithm::kRing);
  EXPECT_EQ(resolve_bcast(4, kRingBcastMinBytes - 1),
            BcastAlgorithm::kTree);
  EXPECT_EQ(resolve_bcast(3, 16), BcastAlgorithm::kTree);
}

/// `n` fully meshed ranks over socket pairs (same shape as the
/// NetTransport tests), all sharing the rank -> node map `node_of_rank`.
struct LoopbackMesh {
  std::vector<net::WireCounters> counters;
  std::vector<std::unique_ptr<net::NetTransport>> t;

  explicit LoopbackMesh(int n, const std::vector<int>& node_of_rank = {})
      : counters(static_cast<std::size_t>(n)) {
    std::vector<std::vector<net::PeerLink>> links(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
          throw Error("socketpair failed");
        }
        links[static_cast<std::size_t>(i)].push_back(
            net::PeerLink{j, net::Socket(fds[0])});
        links[static_cast<std::size_t>(j)].push_back(
            net::PeerLink{i, net::Socket(fds[1])});
      }
    }
    for (int r = 0; r < n; ++r) {
      const auto x = static_cast<std::size_t>(r);
      t.push_back(std::make_unique<net::NetTransport>(
          n, r, std::move(links[x]), &counters[x], node_of_rank));
    }
  }

  /// Payload bytes of every hop, summed over the senders.
  std::uint64_t hop_bytes() const {
    std::uint64_t bytes = 0;
    for (const auto& c : counters) {
      const auto s = c.snapshot();
      bytes += s.a_payload_inter_bytes + s.a_payload_intra_bytes;
    }
    return bytes;
  }

  /// Relays record their hops on their rx threads; give them a moment.
  void await_hop_bytes(std::uint64_t want) const {
    for (int i = 0; i < 2000 && hop_bytes() < want; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

std::uint64_t tile_encodes() {
  const auto counters = obs::Registry::instance().counters();
  const auto it = counters.find("bstc_tile_encodes_total");
  return it == counters.end() ? 0 : it->second;
}

TEST(Bcast, TreeBroadcastSerializesTheTileExactlyOnce) {
  // A q-consumer broadcast encodes the tile once at the root; relays
  // retype the received payload verbatim. A small tile takes the tree.
  LoopbackMesh mesh(3);

  Rng rng(5);
  Tile tile(9, 7);
  tile.fill_random(rng);
  ASSERT_EQ(resolve_bcast(3, tile.bytes()), BcastAlgorithm::kTree);
  const std::uint64_t before = tile_encodes();
  mesh.t[0]->send_multi(0, {1, 2}, 33, tile);

  for (int r : {1, 2}) {
    const Tile& got = mesh.t[r]->mailbox(r).wait(33);
    ASSERT_EQ(got.rows(), tile.rows());
    ASSERT_EQ(got.cols(), tile.cols());
    EXPECT_EQ(std::memcmp(got.data(), tile.data(), tile.bytes()), 0);
  }
  EXPECT_EQ(tile_encodes() - before, 1u);

  // Sender-side hop accounting sums to one payload per consumer across
  // the ranks, whichever of them relayed.
  mesh.await_hop_bytes(2 * tile.bytes());
  EXPECT_EQ(mesh.hop_bytes(), 2 * tile.bytes());
}

TEST(Bcast, RingBroadcastOfALargeTileInjectsOneRootFrame) {
  // A tile at or above the ring size with three consumers takes the
  // ring: the root injects exactly one frame, each consumer but the last
  // relays one, and the tile is serialized once for the whole row.
  constexpr int kRanks = 4;
  LoopbackMesh mesh(kRanks);

  Rng rng(8);
  Tile tile(256, 128);  // 256 KiB
  tile.fill_random(rng);
  ASSERT_GE(tile.bytes(), kRingBcastMinBytes);
  ASSERT_EQ(resolve_bcast(kRanks, tile.bytes()), BcastAlgorithm::kRing);
  const std::uint64_t before = tile_encodes();
  mesh.t[0]->send_multi(0, {1, 2, 3}, 66, tile);

  for (int r = 1; r < kRanks; ++r) {
    const Tile& got = mesh.t[r]->mailbox(r).wait(66);
    EXPECT_EQ(std::memcmp(got.data(), tile.data(), tile.bytes()), 0);
  }
  EXPECT_EQ(tile_encodes() - before, 1u);
  mesh.await_hop_bytes(3 * tile.bytes());
  EXPECT_EQ(mesh.hop_bytes(), 3 * tile.bytes());

  const auto root = mesh.counters[0].snapshot();
  EXPECT_EQ(root.bcast_frames_sent, 1u);
  EXPECT_EQ(root.bcast_fwd_frames_sent, 0u);
  EXPECT_EQ(root.a_payload_inter_bytes, tile.bytes());
  for (int r = 1; r < kRanks; ++r) {
    const auto s = mesh.counters[static_cast<std::size_t>(r)].snapshot();
    EXPECT_EQ(s.bcast_frames_sent, 0u) << "rank " << r;
    EXPECT_EQ(s.bcast_fwd_frames_sent, r + 1 < kRanks ? 1u : 0u)
        << "rank " << r;
  }
}

TEST(Bcast, ConstructorNodeMapGovernsAnImmediateRelay) {
  // A broadcast frame can arrive the moment the mesh is up, so the node
  // map must be in place before the receiver threads start (TSan runs
  // this suite). Rank 0 is alone on node 0; ranks 1 and 2 share node 1.
  // The tree crosses the interconnect once (0 -> 1) and rank 1's
  // receiver thread relays to its co-located peer (1 -> 2) — a decision
  // it can only make from the node map.
  LoopbackMesh mesh(3, {0, 1, 1});
  Rng rng(7);
  Tile tile(6, 5);
  tile.fill_random(rng);
  mesh.t[0]->send_multi(0, {1, 2}, 55, tile);

  const std::uint64_t bytes = tile.bytes();
  for (int i = 0; i < 2000 && mesh.counters[1].snapshot()
                                      .a_payload_intra_bytes < bytes;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto s0 = mesh.counters[0].snapshot();
  const auto s1 = mesh.counters[1].snapshot();
  const auto s2 = mesh.counters[2].snapshot();
  EXPECT_EQ(s0.a_payload_inter_bytes, bytes);
  EXPECT_EQ(s0.a_payload_intra_bytes, 0u);
  EXPECT_EQ(s1.a_payload_inter_bytes, 0u);
  // Without the relay rank 2 would never receive the tile; stop here
  // rather than wait on its mailbox forever.
  ASSERT_EQ(s1.a_payload_intra_bytes, bytes);
  EXPECT_EQ(s2.a_payload_inter_bytes + s2.a_payload_intra_bytes, 0u);
  for (int r : {1, 2}) {
    const Tile& got = mesh.t[r]->mailbox(r).wait(55);
    EXPECT_EQ(std::memcmp(got.data(), tile.data(), tile.bytes()), 0);
  }
}

TEST(Bcast, StatsSplitFollowsTopologyAndTotalIsInvariant) {
  net::NetProblemSpec spec;
  spec.m = 64;
  spec.k = 256;
  spec.n = 256;
  spec.np = 4;
  spec.p = 2;
  const net::BuiltProblem prob = net::build_problem(spec);

  const std::vector<int> interleaved = {0, 1, 0, 1};
  const auto stats_for = [&](const std::vector<int>& layout,
                             const std::vector<int>& map) {
    PlanConfig cfg = prob.plan_cfg;
    cfg.rank_layout = layout;
    const ExecutionPlan plan = build_plan(prob.a_shape, prob.b_shape,
                                          prob.c_shape, prob.machine, cfg);
    return compute_stats(plan, prob.a_shape, prob.b_shape, prob.c_shape,
                         map);
  };

  const std::vector<int> identity = {0, 1, 2, 3};
  const std::vector<int> packed = node_aware_layout(2, 2, interleaved);

  const PlanStats base = stats_for(identity, {});
  ASSERT_GT(base.a_network_bytes, 0.0);
  // No topology: every hop is inter-node.
  EXPECT_DOUBLE_EQ(base.a_internode_bytes, base.a_network_bytes);
  EXPECT_DOUBLE_EQ(base.a_intranode_bytes, 0.0);

  // Identity layout + interleaved nodes: with q = 2 the only consumer of
  // each A tile is its row-mate, which sits on the other node.
  const PlanStats flat = stats_for(identity, interleaved);
  EXPECT_DOUBLE_EQ(flat.a_network_bytes, base.a_network_bytes);
  EXPECT_DOUBLE_EQ(flat.a_internode_bytes, base.a_network_bytes);
  EXPECT_DOUBLE_EQ(flat.a_intranode_bytes, 0.0);

  // Node-aware layout confines each grid row to one node: the same total
  // volume, but every hop is now intra-node.
  const PlanStats aware = stats_for(packed, interleaved);
  EXPECT_DOUBLE_EQ(aware.a_network_bytes, base.a_network_bytes);
  EXPECT_DOUBLE_EQ(aware.a_internode_bytes, 0.0);
  EXPECT_DOUBLE_EQ(aware.a_intranode_bytes, base.a_network_bytes);
  EXPECT_DOUBLE_EQ(aware.c_network_bytes, base.c_network_bytes);
}

}  // namespace
}  // namespace bstc
