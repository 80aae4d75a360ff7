/// Tests for the collective A-broadcast layer: fanout properties of the
/// tree/ring/hierarchical algorithms, node-aware grid layouts, the
/// serialize-once guarantee of NetTransport::send_multi, the shared-memory
/// staging ring, and the analytic intra/inter-node volume split.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
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
#include "shm/bcast_ring.hpp"
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
  for (const auto algo : {BcastAlgorithm::kUnicast, BcastAlgorithm::kTree,
                          BcastAlgorithm::kRing}) {
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

TEST(Bcast, UnicastRootSendsEverythingNobodyRelays) {
  const std::vector<int> parts = {0, 2, 5, 6};
  const std::vector<int> map = {0, 0, 1, 1, 2, 2, 3, 3};
  const auto kids =
      bcast_children(BcastAlgorithm::kUnicast, parts, 2, 2, map);
  EXPECT_EQ(kids, (std::vector<int>{0, 5, 6}));
  for (const int self : {0, 5, 6}) {
    EXPECT_TRUE(
        bcast_children(BcastAlgorithm::kUnicast, parts, 2, self, map)
            .empty());
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
  const std::vector<int> map(6, 0);
  const std::vector<int> layout = node_aware_layout(2, 3, map);
  EXPECT_EQ(layout, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Bcast, ParseAndResolvePolicies) {
  EXPECT_EQ(parse_bcast_select("unicast"), BcastSelect::kUnicast);
  EXPECT_EQ(parse_bcast_select("tree"), BcastSelect::kTree);
  EXPECT_EQ(parse_bcast_select("ring"), BcastSelect::kRing);
  EXPECT_EQ(parse_bcast_select("auto"), BcastSelect::kAuto);
  EXPECT_THROW(parse_bcast_select("binomial"), Error);

  // Fixed selections pass through untouched.
  EXPECT_EQ(resolve_bcast(BcastSelect::kRing, 2, 16),
            BcastAlgorithm::kRing);
  EXPECT_EQ(resolve_bcast(BcastSelect::kUnicast, 8, 1 << 20),
            BcastAlgorithm::kUnicast);
  // Auto: pairs always tree; big tiles ring; small tiles tree.
  EXPECT_EQ(resolve_bcast(BcastSelect::kAuto, 2, 1 << 30),
            BcastAlgorithm::kTree);
  EXPECT_EQ(resolve_bcast(BcastSelect::kAuto, 4,
                          kBcastRingThresholdBytes),
            BcastAlgorithm::kRing);
  EXPECT_EQ(resolve_bcast(BcastSelect::kAuto, 4,
                          kBcastRingThresholdBytes - 1),
            BcastAlgorithm::kTree);
}

/// Three fully meshed ranks over socket pairs (same shape as the
/// NetTransport tests) — the smallest topology with a relaying receiver.
struct LoopbackTrio {
  net::WireCounters counters[3];
  std::unique_ptr<net::NetTransport> t[3];

  explicit LoopbackTrio(const net::BcastConfig& bcast = {}) {
    int p01[2], p02[2], p12[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, p01) != 0 ||
        ::socketpair(AF_UNIX, SOCK_STREAM, 0, p02) != 0 ||
        ::socketpair(AF_UNIX, SOCK_STREAM, 0, p12) != 0) {
      throw Error("socketpair failed");
    }
    std::vector<net::PeerLink> l0;
    l0.push_back(net::PeerLink{1, net::Socket(p01[0])});
    l0.push_back(net::PeerLink{2, net::Socket(p02[0])});
    t[0] = std::make_unique<net::NetTransport>(3, 0, std::move(l0),
                                               &counters[0], bcast);
    std::vector<net::PeerLink> l1;
    l1.push_back(net::PeerLink{0, net::Socket(p01[1])});
    l1.push_back(net::PeerLink{2, net::Socket(p12[0])});
    t[1] = std::make_unique<net::NetTransport>(3, 1, std::move(l1),
                                               &counters[1], bcast);
    std::vector<net::PeerLink> l2;
    l2.push_back(net::PeerLink{0, net::Socket(p02[1])});
    l2.push_back(net::PeerLink{1, net::Socket(p12[1])});
    t[2] = std::make_unique<net::NetTransport>(3, 2, std::move(l2),
                                               &counters[2], bcast);
  }
};

std::uint64_t tile_encodes() {
  const auto counters = obs::Registry::instance().counters();
  const auto it = counters.find("bstc_tile_encodes_total");
  return it == counters.end() ? 0 : it->second;
}

TEST(Bcast, TreeBroadcastSerializesTheTileExactlyOnce) {
  // The regression the refactor exists for: a q-consumer broadcast used
  // to serialize the tile q times (one unicast each). The tree encodes
  // once at the root; relays retype the received payload verbatim.
  LoopbackTrio trio({BcastSelect::kTree, {}});

  Rng rng(5);
  Tile tile(9, 7);
  tile.fill_random(rng);
  const std::uint64_t before = tile_encodes();
  trio.t[0]->send_multi(0, {1, 2}, 33, tile);

  for (int r : {1, 2}) {
    const Tile& got = trio.t[r]->mailbox(r).wait(33);
    ASSERT_EQ(got.rows(), tile.rows());
    ASSERT_EQ(got.cols(), tile.cols());
    EXPECT_EQ(std::memcmp(got.data(), tile.data(), tile.bytes()), 0);
  }
  EXPECT_EQ(tile_encodes() - before, 1u);

  // Sender-side hop accounting sums to one payload per consumer across
  // the ranks, whichever of them relayed (give the relay's rx thread a
  // moment to record).
  const auto summed = [&] {
    std::uint64_t bytes = 0;
    for (const auto& c : trio.counters) {
      const auto s = c.snapshot();
      bytes += s.a_payload_inter_bytes + s.a_payload_intra_bytes;
    }
    return bytes;
  };
  for (int i = 0; i < 2000 && summed() < 2 * tile.bytes(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(summed(), 2 * tile.bytes());
}

TEST(Bcast, UnicastFallbackAlsoSerializesOnce) {
  // Even the unicast algorithm benefits from send_multi: the kTile frame
  // is encoded once and posted to each consumer — unlike the legacy
  // per-consumer send() loop, which re-serializes on every call.
  LoopbackTrio trio({BcastSelect::kUnicast, {}});

  Rng rng(6);
  Tile tile(4, 4);
  tile.fill_random(rng);
  std::uint64_t before = tile_encodes();
  trio.t[0]->send_multi(0, {1, 2}, 44, tile);
  for (int r : {1, 2}) {
    const Tile& got = trio.t[r]->mailbox(r).wait(44);
    EXPECT_EQ(std::memcmp(got.data(), tile.data(), tile.bytes()), 0);
  }
  EXPECT_EQ(tile_encodes() - before, 1u);

  // The legacy baseline the refactor replaced: one encode per consumer.
  before = tile_encodes();
  for (int r : {1, 2}) {
    Tile copy = tile;
    trio.t[0]->send(0, r, 45, std::move(copy));
  }
  for (int r : {1, 2}) (void)trio.t[r]->mailbox(r).wait(45);
  EXPECT_EQ(tile_encodes() - before, 2u);
}

TEST(Bcast, ConstructorNodeMapGovernsAnImmediateRelay) {
  // A broadcast frame can arrive the moment the mesh is up, so the node
  // map must be in place before the receiver threads start (TSan runs
  // this suite). Rank 0 is alone on node 0; ranks 1 and 2 share node 1.
  // The tree crosses the interconnect once (0 -> 1) and rank 1's
  // receiver thread relays to its co-located peer (1 -> 2) — a decision
  // it can only make from the node map.
  LoopbackTrio trio({BcastSelect::kTree, {0, 1, 1}});
  Rng rng(7);
  Tile tile(6, 5);
  tile.fill_random(rng);
  trio.t[0]->send_multi(0, {1, 2}, 55, tile);

  const std::uint64_t bytes = tile.bytes();
  for (int i = 0; i < 2000 && trio.counters[1].snapshot()
                                      .a_payload_intra_bytes < bytes;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto s0 = trio.counters[0].snapshot();
  const auto s1 = trio.counters[1].snapshot();
  const auto s2 = trio.counters[2].snapshot();
  EXPECT_EQ(s0.a_payload_inter_bytes, bytes);
  EXPECT_EQ(s0.a_payload_intra_bytes, 0u);
  EXPECT_EQ(s1.a_payload_inter_bytes, 0u);
  // Without the relay rank 2 would never receive the tile; stop here
  // rather than wait on its mailbox forever.
  ASSERT_EQ(s1.a_payload_intra_bytes, bytes);
  EXPECT_EQ(s2.a_payload_inter_bytes + s2.a_payload_intra_bytes, 0u);
  for (int r : {1, 2}) {
    const Tile& got = trio.t[r]->mailbox(r).wait(55);
    EXPECT_EQ(std::memcmp(got.data(), tile.data(), tile.bytes()), 0);
  }
}

std::string test_ring_name(const char* tag) {
  return "/bstc_test_" + std::string(tag) + "_" +
         std::to_string(::getpid());
}

TEST(Bcast, RingRoundTripsMaskTypeAndPayload) {
  const std::string name = test_ring_name("rt");
  shm::BcastRing writer;
  ASSERT_TRUE(shm::BcastRing::create(name, /*owner_rank=*/3,
                                     /*session=*/0xabcdu, /*nslots=*/4,
                                     /*max_payload_bytes=*/256,
                                     /*readers=*/1, writer)
                  .ok);
  shm::BcastRing reader;
  ASSERT_TRUE(shm::BcastRing::attach(name, 3, 0xabcdu, reader).ok);

  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  writer.publish(0b1010, 18, payload.data(), payload.size());
  writer.publish(0b0100, 19, payload.data(), 2);
  writer.close_writer();

  std::atomic<bool> stop{false};
  shm::BcastRingMessage msg;
  ASSERT_TRUE(reader.next(msg, stop));
  EXPECT_EQ(msg.dest_mask, 0b1010u);
  EXPECT_EQ(msg.frame_type, 18);
  EXPECT_EQ(msg.payload, payload);
  ASSERT_TRUE(reader.next(msg, stop));
  EXPECT_EQ(msg.dest_mask, 0b0100u);
  EXPECT_EQ(msg.frame_type, 19);
  EXPECT_EQ(msg.payload,
            (std::vector<std::uint8_t>{1, 2}));
  // Closed and drained: no more messages.
  EXPECT_FALSE(reader.next(msg, stop));
}

TEST(Bcast, RingFlowControlSurvivesAWrapAroundBacklog) {
  // More messages than slots: the writer must block on the slowest
  // reader's cursor and every message must still arrive in order.
  const std::string name = test_ring_name("flow");
  shm::BcastRing writer;
  ASSERT_TRUE(shm::BcastRing::create(name, 0, 7, /*nslots=*/2,
                                     /*max_payload_bytes=*/64,
                                     /*readers=*/1, writer)
                  .ok);
  shm::BcastRing reader;
  ASSERT_TRUE(shm::BcastRing::attach(name, 0, 7, reader).ok);

  constexpr int kMessages = 17;
  std::thread producer([&] {
    for (int i = 0; i < kMessages; ++i) {
      const std::uint8_t byte = static_cast<std::uint8_t>(i);
      writer.publish(1, 18, &byte, 1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    writer.close_writer();
  });

  std::atomic<bool> stop{false};
  shm::BcastRingMessage msg;
  int seen = 0;
  while (reader.next(msg, stop)) {
    ASSERT_EQ(msg.payload.size(), 1u);
    EXPECT_EQ(msg.payload[0], static_cast<std::uint8_t>(seen));
    ++seen;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  producer.join();
  EXPECT_EQ(seen, kMessages);
}

TEST(Bcast, RingAttachValidatesOwnerAndSession) {
  const std::string name = test_ring_name("val");
  shm::BcastRing writer;
  ASSERT_TRUE(
      shm::BcastRing::create(name, 2, 99, 2, 64, 1, writer).ok);
  shm::BcastRing reader;
  EXPECT_FALSE(shm::BcastRing::attach(name, 1, 99, reader).ok);
  EXPECT_FALSE(shm::BcastRing::attach(name, 2, 98, reader).ok);
  EXPECT_FALSE(
      shm::BcastRing::attach("/bstc_test_absent", 2, 99, reader).ok);
  EXPECT_TRUE(shm::BcastRing::attach(name, 2, 99, reader).ok);
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
                             BcastSelect select,
                             const std::vector<int>& map) {
    PlanConfig cfg = prob.plan_cfg;
    cfg.rank_layout = layout;
    const ExecutionPlan plan = build_plan(prob.a_shape, prob.b_shape,
                                          prob.c_shape, prob.machine, cfg);
    return compute_stats(plan, prob.a_shape, prob.b_shape, prob.c_shape,
                         select, map);
  };

  const std::vector<int> identity = {0, 1, 2, 3};
  const std::vector<int> packed = node_aware_layout(2, 2, interleaved);

  const PlanStats base = stats_for(identity, BcastSelect::kUnicast, {});
  ASSERT_GT(base.a_network_bytes, 0.0);
  // No topology: every hop is inter-node.
  EXPECT_DOUBLE_EQ(base.a_internode_bytes, base.a_network_bytes);
  EXPECT_DOUBLE_EQ(base.a_intranode_bytes, 0.0);

  for (const auto select : {BcastSelect::kUnicast, BcastSelect::kTree,
                            BcastSelect::kRing, BcastSelect::kAuto}) {
    // Identity layout + interleaved nodes: with q = 2 the only consumer
    // of each A tile is its row-mate, which sits on the other node.
    const PlanStats flat = stats_for(identity, select, interleaved);
    EXPECT_DOUBLE_EQ(flat.a_network_bytes, base.a_network_bytes);
    EXPECT_DOUBLE_EQ(flat.a_internode_bytes, base.a_network_bytes);
    EXPECT_DOUBLE_EQ(flat.a_intranode_bytes, 0.0);

    // Node-aware layout confines each grid row to one node: the same
    // total volume, but every hop is now intra-node.
    const PlanStats aware = stats_for(packed, select, interleaved);
    EXPECT_DOUBLE_EQ(aware.a_network_bytes, base.a_network_bytes);
    EXPECT_DOUBLE_EQ(aware.a_internode_bytes, 0.0);
    EXPECT_DOUBLE_EQ(aware.a_intranode_bytes, base.a_network_bytes);
    EXPECT_DOUBLE_EQ(aware.c_network_bytes, base.c_network_bytes);
  }
}

}  // namespace
}  // namespace bstc
