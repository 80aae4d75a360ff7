/// Tests for the message transport and its engine integration.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "comm/transport.hpp"
#include "core/engine.hpp"
#include "obs/obs.hpp"
#include "shape/shape_algebra.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

TEST(Transport, DeliverAndWait) {
  Transport transport(2);
  Tile t(2, 2);
  t.at(0, 1) = 7.0;
  transport.send_multi(0, {1}, 42, t);
  EXPECT_TRUE(transport.mailbox(1).contains(42));
  const Tile& received = transport.mailbox(1).wait(42);
  EXPECT_DOUBLE_EQ(received.at(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(transport.payload_bytes(), 32.0);
  EXPECT_EQ(transport.mailbox(1).delivered_count(), 1u);
}

TEST(Transport, WaitBlocksUntilDelivery) {
  Transport transport(2);
  double seen = 0.0;
  std::thread consumer([&] {
    const Tile& t = transport.mailbox(1).wait(7);
    seen = t.at(0, 0);
  });
  // Deliver after the consumer is (very likely) waiting.
  Tile t(1, 1);
  t.at(0, 0) = 3.5;
  transport.send_multi(0, {1}, 7, t);
  consumer.join();
  EXPECT_DOUBLE_EQ(seen, 3.5);
}

TEST(Transport, DuplicateKeyRejected) {
  Transport transport(2);
  const Tile t(1, 1);
  transport.send_multi(0, {1}, 1, t);
  EXPECT_THROW(transport.send_multi(0, {1}, 1, t), Error);
  EXPECT_THROW(transport.mailbox(3), Error);
}

TEST(Transport, PoisonWakesAndThrowsForStalledWaiters) {
  Transport transport(2);
  std::string error;
  std::thread consumer([&] {
    try {
      transport.mailbox(1).wait(99);  // never delivered
    } catch (const Error& e) {
      error = e.what();
    }
  });
  // Poison after the consumer is (very likely) blocked; wait must wake
  // and throw instead of hanging forever on the dead peer.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  transport.mailbox(1).poison("peer went away");
  consumer.join();
  EXPECT_NE(error.find("peer went away"), std::string::npos);
  EXPECT_TRUE(transport.mailbox(1).poisoned());
  // Already-delivered tiles stay readable; only absent keys throw.
  transport.mailbox(0).deliver(5, Tile(1, 1));
  transport.mailbox(0).poison("late failure");
  EXPECT_NO_THROW(transport.mailbox(0).wait(5));
  EXPECT_THROW(transport.mailbox(0).wait(6), Error);
}

TEST(Transport, LocalSendRecordsNoBytes) {
  // A tile never travels to its own home: a broadcast with no consumers
  // moves and counts nothing, and naming the root as a consumer is
  // refused before anything is counted or delivered.
  Transport transport(2);
  const Tile t(4, 4);
  transport.send_multi(1, {}, 5, t);
  EXPECT_THROW(transport.send_multi(1, {1}, 6, t), Error);
  EXPECT_DOUBLE_EQ(transport.payload_bytes(), 0.0);
  EXPECT_EQ(transport.mailbox(1).delivered_count(), 0u);
}

TEST(Transport, PayloadBytesCountOnlyRemoteMoves) {
  Transport transport(3);
  const Tile wide(1, 10), narrow(1, 5), pair(1, 2), unit(1, 1);
  transport.send_multi(0, {1}, 1, wide);    // 80 bytes
  transport.send_multi(1, {2}, 2, narrow);  // 40 bytes
  EXPECT_DOUBLE_EQ(transport.payload_bytes(), 120.0);
  // A broadcast counts once per consumer.
  transport.send_multi(0, {1, 2}, 4, pair);
  EXPECT_DOUBLE_EQ(transport.payload_bytes(), 152.0);
  EXPECT_THROW(transport.send_multi(7, {0}, 5, unit), Error);
  EXPECT_THROW(transport.send_multi(0, {-1}, 5, unit), Error);
  EXPECT_DOUBLE_EQ(transport.payload_bytes(), 152.0);
  EXPECT_FALSE(transport.mailbox(0).contains(5));
}

/// A 2x2 grid of one-device nodes, so A crosses ranks along grid rows.
struct TwoByTwo {
  TwoByTwo()
      : rng(91),
        mt(Tiling::random_uniform(60, 8, 24, rng)),
        kt(Tiling::random_uniform(200, 8, 24, rng)),
        nt(Tiling::random_uniform(200, 8, 24, rng)),
        a(BlockSparseMatrix::random(Shape::random(mt, kt, 0.5, rng), rng)),
        b_shape(Shape::random(kt, nt, 0.4, rng)),
        c_shape(contract_shape(a.shape(), b_shape)),
        b_gen(random_tile_generator(b_shape, 17)),
        machine(MachineModel::summit(4)) {
    machine.node.gpus = 1;
    machine.gpu_total = 4;
    machine.node.gpu.memory_bytes = 6.0e5;
    cfg.plan.p = 2;
  }

  EngineResult run(const EngineConfig& c) const {
    return contract(a, b_shape, b_gen, c_shape, nullptr, machine, c);
  }

  Rng rng;
  Tiling mt, kt, nt;
  BlockSparseMatrix a;
  Shape b_shape, c_shape;
  TileGenerator b_gen;
  MachineModel machine;
  EngineConfig cfg;
};

TEST(TransportEngine, InProcessRanksMessageAByDefault) {
  const TwoByTwo p;
  obs::Registry& reg = obs::Registry::instance();
  reg.clear();
  reg.set_enabled(true);
  const EngineResult r_default = p.run(p.cfg);
  std::size_t asend_spans = 0;
  for (const obs::Span& s : reg.spans()) {
    if (s.category == obs::Category::kTask && s.name.rfind("asend(", 0) == 0) {
      ++asend_spans;
    }
  }
  reg.clear();
  reg.set_enabled(false);
  EXPECT_GT(asend_spans, 0u);

  // The transport moves exactly the bytes the analytic accounting
  // predicts, and a caller's transport changes nothing but who owns it.
  ASSERT_GT(r_default.plan_stats.a_network_bytes, 0.0);
  EXPECT_DOUBLE_EQ(r_default.a_network_bytes,
                   r_default.plan_stats.a_network_bytes);
  Transport transport(4);
  EngineConfig external = p.cfg;
  external.transport = &transport;
  const EngineResult r_external = p.run(external);
  EXPECT_EQ(r_external.tasks_executed, r_default.tasks_executed);
  EXPECT_DOUBLE_EQ(r_external.a_network_bytes, r_default.a_network_bytes);
  EXPECT_DOUBLE_EQ(transport.payload_bytes(), r_default.a_network_bytes);
  EXPECT_EQ(r_external.c.max_abs_diff(r_default.c), 0.0);

  BlockSparseMatrix b(p.b_shape);
  for (std::size_t r = 0; r < p.b_shape.tile_rows(); ++r) {
    for (std::size_t c = 0; c < p.b_shape.tile_cols(); ++c) {
      if (p.b_shape.nonzero(r, c)) b.tile(r, c) = p.b_gen(r, c);
    }
  }
  BlockSparseMatrix reference(p.c_shape);
  multiply_reference(p.a, b, reference);
  EXPECT_LT(r_default.c.max_abs_diff(reference), 1e-11);
}

TEST(TransportEngine, InProcessDeliveryAliasesA) {
  // In-process messages are views: every remote A tile a rank received
  // points at the caller's tile, not at a copy.
  const TwoByTwo p;
  Transport transport(4);
  EngineConfig cfg = p.cfg;
  cfg.transport = &transport;
  p.run(cfg);
  std::size_t delivered = 0;
  std::size_t aliased = 0;
  for (int n = 0; n < transport.nodes(); ++n) {
    delivered += transport.mailbox(n).delivered_count();
    for (std::size_t i = 0; i < p.a.shape().tile_rows(); ++i) {
      for (std::size_t k = 0; k < p.a.shape().tile_cols(); ++k) {
        const std::uint64_t key = (static_cast<std::uint64_t>(i) << 32) | k;
        if (!transport.mailbox(n).contains(key)) continue;
        if (transport.mailbox(n).wait(key).data() == p.a.tile(i, k).data()) {
          ++aliased;
        }
      }
    }
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(aliased, delivered);
}

TEST(TransportEngine, SingleNodeSendsNothing) {
  Rng rng(93);
  const Tiling t = Tiling::uniform(64, 8);
  const BlockSparseMatrix a =
      BlockSparseMatrix::random(Shape::dense(t, t), rng);
  const Shape b_shape = Shape::dense(t, t);
  const Shape c_shape = contract_shape(a.shape(), b_shape);
  MachineModel machine = MachineModel::summit_gpus(2);
  machine.node.gpu.memory_bytes = 3.0e5;
  const EngineConfig cfg;
  const EngineResult result = contract(
      a, b_shape, random_tile_generator(b_shape, 3), c_shape, nullptr,
      machine, cfg);
  EXPECT_DOUBLE_EQ(result.a_network_bytes, 0.0);
}

}  // namespace
}  // namespace bstc
