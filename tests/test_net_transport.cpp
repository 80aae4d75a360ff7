/// Tests for NetTransport over real socket pairs: the deliver/wait
/// contract across a wire, control-frame parking, barriers, byte
/// accounting, and peer-failure poisoning.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "net/net_transport.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace bstc::net {
namespace {

/// A connected pair of rank-0 / rank-1 transports over an OS socket pair.
struct LoopbackPair {
  WireCounters counters0, counters1;
  std::unique_ptr<NetTransport> t0, t1;

  LoopbackPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw Error("socketpair failed");
    }
    std::vector<PeerLink> l0;
    l0.push_back(PeerLink{1, Socket(fds[0])});
    t0 = std::make_unique<NetTransport>(2, 0, std::move(l0), &counters0);
    std::vector<PeerLink> l1;
    l1.push_back(PeerLink{0, Socket(fds[1])});
    t1 = std::make_unique<NetTransport>(2, 1, std::move(l1), &counters1);
  }
};

TEST(NetTransport, RemoteSendDeliversBitwise) {
  LoopbackPair pair;
  Rng rng(3);
  Tile tile(7, 5);
  tile.fill_random(rng);
  const Tile original = tile;  // keep the exact bits
  pair.t0->send_multi(0, {1}, 42, tile);

  const Tile& got = pair.t1->mailbox(1).wait(42);
  ASSERT_EQ(got.rows(), original.rows());
  ASSERT_EQ(got.cols(), original.cols());
  EXPECT_EQ(std::memcmp(got.data(), original.data(), original.bytes()), 0);
  // Payload bytes recorded exactly as the in-process transport would.
  EXPECT_DOUBLE_EQ(pair.t0->payload_bytes(),
                   static_cast<double>(original.bytes()));
  // The tx progress thread bumps its counter only after the kernel accepts
  // the bytes, so the receiver can observe delivery first; poll briefly.
  for (int i = 0; i < 2000 && pair.counters0.snapshot().frames_sent == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(pair.counters0.snapshot().frames_sent, 1u);
  EXPECT_GE(pair.counters1.snapshot().frames_received, 1u);
}

TEST(NetTransport, LocalSendNeverTouchesTheWire) {
  LoopbackPair pair;
  const Tile t(2, 2);
  // No consumers: nothing is framed, counted or delivered.
  pair.t0->send_multi(0, {}, 7, t);
  EXPECT_FALSE(pair.t0->mailbox(0).contains(7));
  EXPECT_DOUBLE_EQ(pair.t0->payload_bytes(), 0.0);
  // A rank may only originate its own broadcasts, and never to itself.
  EXPECT_THROW(pair.t0->send_multi(1, {0}, 8, t), Error);
  EXPECT_THROW(pair.t0->send_multi(0, {0}, 9, t), Error);
  EXPECT_EQ(pair.counters0.snapshot().frames_sent, 0u);
}

TEST(NetTransport, ControlFramesParkByType) {
  LoopbackPair pair;
  pair.t0->post(1, encode_count(FrameType::kCDone, 11));
  pair.t0->post(1, encode_count(FrameType::kGatherDone, 22));
  // Waiting for the *second* type first proves frames park per type
  // rather than forming one FIFO.
  const auto [peer_g, frame_g] = pair.t1->wait_frame(FrameType::kGatherDone);
  EXPECT_EQ(peer_g, 0);
  EXPECT_EQ(decode_count(frame_g, FrameType::kGatherDone), 22u);
  const auto [peer_c, frame_c] = pair.t1->wait_frame(FrameType::kCDone);
  EXPECT_EQ(peer_c, 0);
  EXPECT_EQ(decode_count(frame_c, FrameType::kCDone), 11u);
}

TEST(NetTransport, CTilesTravelOutsideTheMailbox) {
  LoopbackPair pair;
  Rng rng(9);
  Tile c(4, 3);
  c.fill_random(rng);
  pair.t1->send_c_tile(0, 5, c);
  const auto [peer, frame] = pair.t0->wait_frame(FrameType::kCTile);
  EXPECT_EQ(peer, 1);
  const TileMsg msg = decode_tile(frame);
  EXPECT_EQ(msg.key, 5u);
  EXPECT_EQ(std::memcmp(msg.tile.data(), c.data(), c.bytes()), 0);
  // C returns are payload-accounted (payload_bytes()) and tracked as the C
  // share so A/C traffic can be split exactly.
  EXPECT_DOUBLE_EQ(pair.t1->c_wire_bytes(), static_cast<double>(c.bytes()));
  EXPECT_DOUBLE_EQ(pair.t1->payload_bytes(),
                   static_cast<double>(c.bytes()));
  // The A-tile mailbox never saw it: keys (i,j) of C could collide with
  // keys (i,k) of A, so C travels on its own frame type.
  EXPECT_FALSE(pair.t0->mailbox(0).contains(5));
}

TEST(NetTransport, BarrierSynchronizesBothRanks) {
  LoopbackPair pair;
  std::thread other([&] {
    pair.t1->barrier(1);
    pair.t1->barrier(2);
  });
  pair.t0->barrier(1);
  pair.t0->barrier(2);
  other.join();
  SUCCEED();
}

/// Three fully meshed ranks over socket pairs — the smallest topology
/// where one peer's epoch-N+1 token can land in the parked queue before
/// another peer's epoch-N token.
struct LoopbackTrio {
  WireCounters counters[3];
  std::unique_ptr<NetTransport> t[3];

  LoopbackTrio() {
    int p01[2], p02[2], p12[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, p01) != 0 ||
        ::socketpair(AF_UNIX, SOCK_STREAM, 0, p02) != 0 ||
        ::socketpair(AF_UNIX, SOCK_STREAM, 0, p12) != 0) {
      throw Error("socketpair failed");
    }
    std::vector<PeerLink> l0;
    l0.push_back(PeerLink{1, Socket(p01[0])});
    l0.push_back(PeerLink{2, Socket(p02[0])});
    t[0] = std::make_unique<NetTransport>(3, 0, std::move(l0), &counters[0]);
    std::vector<PeerLink> l1;
    l1.push_back(PeerLink{0, Socket(p01[1])});
    l1.push_back(PeerLink{2, Socket(p12[0])});
    t[1] = std::make_unique<NetTransport>(3, 1, std::move(l1), &counters[1]);
    std::vector<PeerLink> l2;
    l2.push_back(PeerLink{0, Socket(p02[1])});
    l2.push_back(PeerLink{1, Socket(p12[1])});
    t[2] = std::make_unique<NetTransport>(3, 2, std::move(l2), &counters[2]);
  }
};

TEST(NetTransport, BarrierCreditsTokensStashedDuringAnEarlierEpoch) {
  // Deterministic replay of the overtaking arrival order: rank 0's
  // parked queue holds rank 1's epoch-2 token ahead of its epoch-1
  // token, so barrier(1) pops the epoch-2 token first and stashes it.
  // barrier(2) must then credit the stash instead of waiting for a
  // token it already consumed — before the fix this deadlocked.
  LoopbackPair pair;
  pair.t1->post(0, encode_barrier(2));
  pair.t1->post(0, encode_barrier(1));
  // Give both tokens time to be parked before barrier(1) starts popping.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pair.t0->barrier(1);
  pair.t0->barrier(2);
  SUCCEED();
}

TEST(NetTransport, BarrierSurvivesSkewedRanksAcrossEpochs) {
  // The organic version of the stash: rank 2 enters barrier(1) late, so
  // ranks 0 and 1 block in barrier(1) while rank 2's arrival lets the
  // *other* fast rank complete and post its epoch-2 token — which can
  // overtake rank 2's epoch-1 token in the blocked rank's parked queue.
  for (int round = 0; round < 5; ++round) {
    LoopbackTrio trio;
    std::thread r1([&] {
      trio.t[1]->barrier(1);
      trio.t[1]->barrier(2);
    });
    std::thread r2([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      trio.t[2]->barrier(1);
      trio.t[2]->barrier(2);
    });
    trio.t[0]->barrier(1);
    trio.t[0]->barrier(2);
    r1.join();
    r2.join();
  }
  SUCCEED();
}

TEST(NetTransport, ConnectRetryAbsorbsResolutionFailures) {
  // Resolution used to happen once, outside the retry loop, so a
  // transient resolver failure aborted the rank immediately instead of
  // being retried with backoff like a refused connect.
  WireCounters counters;
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_ms = 1;
  EXPECT_THROW(connect_with_retry("host.invalid", 1, policy, &counters),
               Error);
  EXPECT_GE(counters.snapshot().connect_retries, 1u);
}

TEST(NetTransport, PeerDeathPoisonsWaitersAndSends) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<PeerLink> links;
  links.push_back(PeerLink{1, Socket(fds[0])});
  NetTransport t0(2, 0, std::move(links), nullptr);
  ::close(fds[1]);  // the peer dies without an orderly shutdown

  // A stalled consumer aborts with an Error instead of hanging forever.
  EXPECT_THROW(t0.mailbox(0).wait(1), Error);
  EXPECT_THROW(t0.wait_frame(FrameType::kCDone), Error);
  // After the failure surfaced, new sends are refused.
  EXPECT_THROW(t0.send_multi(0, {1}, 2, Tile(1, 1)), Error);
}

TEST(NetTransport, OrderlyShutdownIsSilent) {
  LoopbackPair pair;
  pair.t0->send_multi(0, {1}, 1, Tile(3, 3));
  (void)pair.t1->mailbox(1).wait(1);
  pair.t0->shutdown("done");
  pair.t1->shutdown("done");
  // After shutdown the peer's EOF is expected: no poison, no failure.
  EXPECT_FALSE(pair.t1->mailbox(1).poisoned());
  EXPECT_FALSE(pair.t0->mailbox(0).poisoned());
}

}  // namespace
}  // namespace bstc::net
