/// Loopback latency / bandwidth sweep of the wire protocol + NetTransport.
///
/// Two transports over an OS socket pair exchange tiles of 32..512 square
/// extents through send_multi with one consumer — the full serialize ->
/// kBcast frame -> socket -> deframe -> deliver path the distributed
/// executor runs for a two-rank grid row, minus the network card. Reports
/// per-tile one-way latency and sustained payload bandwidth, plus a
/// control-frame ping-pong RTT, and writes BENCH_net.json for the CI
/// perf-smoke artifact trail.

#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "net/net_transport.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

using namespace bstc;
using namespace bstc::net;

namespace {

struct LoopbackPair {
  WireCounters counters;
  std::unique_ptr<NetTransport> t0, t1;

  LoopbackPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw Error("socketpair failed");
    }
    std::vector<PeerLink> l0;
    l0.push_back(PeerLink{1, Socket(fds[0])});
    t0 = std::make_unique<NetTransport>(2, 0, std::move(l0), &counters);
    std::vector<PeerLink> l1;
    l1.push_back(PeerLink{0, Socket(fds[1])});
    t1 = std::make_unique<NetTransport>(2, 1, std::move(l1), &counters);
  }
};

struct SweepPoint {
  Index tile = 0;
  std::size_t tile_bytes = 0;
  int reps = 0;
  double seconds = 0.0;
  double bandwidth_bps = 0.0;  ///< payload bytes per second, one-way
  double tile_us = 0.0;        ///< mean per-tile one-way time
};

SweepPoint sweep_one(Index extent) {
  LoopbackPair pair;
  Rng rng(static_cast<std::uint64_t>(extent));
  Tile tile(extent, extent);
  tile.fill_random(rng);

  SweepPoint point;
  point.tile = extent;
  point.tile_bytes = tile.bytes();
  // Aim for ~32 MB of payload per size so small tiles are latency-bound
  // and large ones bandwidth-bound, as in the real broadcast.
  point.reps = static_cast<int>(
      std::max<std::size_t>(8, (32u << 20) / std::max<std::size_t>(
                                                 1, tile.bytes())));

  std::thread consumer([&] {
    for (int i = 0; i < point.reps; ++i) {
      (void)pair.t1->mailbox(1).wait(static_cast<std::uint64_t>(i));
    }
  });
  Timer timer;
  for (int i = 0; i < point.reps; ++i) {
    pair.t0->send_multi(0, {1}, static_cast<std::uint64_t>(i), tile);
  }
  consumer.join();
  point.seconds = timer.elapsed_s();
  point.bandwidth_bps = static_cast<double>(point.tile_bytes) *
                        static_cast<double>(point.reps) / point.seconds;
  point.tile_us = point.seconds / point.reps * 1e6;
  return point;
}

/// `n` fully meshed in-process ranks over socket pairs — the broadcast
/// sweep's stand-in for one grid row of the distributed engine.
struct LoopbackMesh {
  std::vector<std::unique_ptr<WireCounters>> counters;
  std::vector<std::unique_ptr<NetTransport>> t;

  explicit LoopbackMesh(int n) {
    std::vector<std::vector<PeerLink>> links(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
          throw Error("socketpair failed");
        }
        links[static_cast<std::size_t>(i)].push_back(
            PeerLink{j, Socket(fds[0])});
        links[static_cast<std::size_t>(j)].push_back(
            PeerLink{i, Socket(fds[1])});
      }
    }
    for (int r = 0; r < n; ++r) {
      counters.push_back(std::make_unique<WireCounters>());
      t.push_back(std::make_unique<NetTransport>(
          n, r, std::move(links[static_cast<std::size_t>(r)]),
          counters.back().get()));
    }
  }
};

struct BcastPoint {
  int row = 0;          ///< broadcast participants (grid-row width)
  Index tile = 0;
  std::size_t tile_bytes = 0;
  BcastAlgorithm algo = BcastAlgorithm::kTree;
  int reps = 0;
  double bcast_us = 0.0;       ///< mean time to deliver one tile to all
  std::size_t root_sends = 0;  ///< frames the root itself injects
};

/// The root builds the kBcast frame with `algo` itself and posts it to
/// its fanout children, bypassing send_multi's resolve_bcast so both
/// algorithms can be timed at every extent; receivers relay by the
/// frame's algorithm byte as they do in a run.
BcastPoint bcast_sweep_one(int row, Index extent, BcastAlgorithm algo) {
  LoopbackMesh mesh(row);

  Rng rng(static_cast<std::uint64_t>(extent) * 31 + row);
  Tile tile(extent, extent);
  tile.fill_random(rng);

  BcastPoint point;
  point.row = row;
  point.tile = extent;
  point.tile_bytes = tile.bytes();
  point.algo = algo;
  // ~8 MB of delivered payload per point keeps the sweep quick while
  // still bandwidth-bound at the large extents.
  point.reps = static_cast<int>(std::max<std::size_t>(
      8, (8u << 20) / std::max<std::size_t>(
                          1, tile.bytes() * static_cast<std::size_t>(
                                                row - 1))));

  BcastTileMsg msg;
  msg.algo = algo;
  msg.root = 0;
  for (int r = 0; r < row; ++r) msg.parts.push_back(static_cast<std::uint32_t>(r));
  msg.tile = Tile::view(tile.data(), tile.rows(), tile.cols());
  std::vector<int> parts(msg.parts.begin(), msg.parts.end());
  const std::vector<int> children = bcast_children(algo, parts, 0, 0, {});
  point.root_sends = children.size();

  std::vector<std::thread> waiters;
  for (int r = 1; r < row; ++r) {
    waiters.emplace_back([&, r] {
      for (int i = 0; i < point.reps; ++i) {
        (void)mesh.t[static_cast<std::size_t>(r)]->mailbox(r).wait(
            static_cast<std::uint64_t>(i));
      }
    });
  }
  Timer timer;
  for (int i = 0; i < point.reps; ++i) {
    msg.key = static_cast<std::uint64_t>(i);
    const Frame frame = encode_bcast(msg);
    for (const int child : children) {
      mesh.t[0]->post(child, Frame{frame.type, frame.payload});
    }
  }
  for (auto& w : waiters) w.join();
  point.bcast_us = timer.elapsed_s() / point.reps * 1e6;
  return point;
}

double pingpong_rtt_us(int rounds) {
  LoopbackPair pair;
  std::thread echo([&] {
    for (int i = 0; i < rounds; ++i) {
      (void)pair.t1->wait_frame(FrameType::kCDone);
      pair.t1->post(0, encode_count(FrameType::kGatherDone, 0));
    }
  });
  Timer timer;
  for (int i = 0; i < rounds; ++i) {
    pair.t0->post(1, encode_count(FrameType::kCDone, 0));
    (void)pair.t0->wait_frame(FrameType::kGatherDone);
  }
  const double total = timer.elapsed_s();
  echo.join();
  return total / rounds * 1e6;
}

}  // namespace

int main() {
  const double rtt_us = pingpong_rtt_us(500);
  std::printf("control-frame ping-pong RTT  %.1f us\n\n", rtt_us);

  std::vector<SweepPoint> points;
  TextTable table({"tile", "payload", "reps", "one-way/tile", "bandwidth"});
  for (const Index extent : {32, 64, 128, 256, 512}) {
    const SweepPoint point = sweep_one(extent);
    points.push_back(point);
    table.add_row({std::to_string(point.tile) + "^2",
                   fmt_bytes(static_cast<double>(point.tile_bytes)),
                   std::to_string(point.reps),
                   fmt_duration(point.tile_us * 1e-6),
                   fmt_bytes(point.bandwidth_bps) + "/s"});
  }
  bench::print_table("loopback tile transfer sweep (socketpair)", table);

  // Broadcast algorithm sweep: one grid row of 2..8 ranks, tile extents
  // straddling resolve_bcast's tree->ring threshold. The delivered volume
  // is identical for both algorithms (each consumer receives the tile
  // exactly once); what moves is where the injection happens — the tree
  // root sends log2(row) copies, the ring root one.
  std::vector<BcastPoint> bpoints;
  TextTable btable(
      {"row", "tile", "payload", "algo", "root sends", "bcast"});
  for (const int row : {2, 4, 8}) {
    for (const Index extent : {64, 128, 256}) {
      for (const BcastAlgorithm algo :
           {BcastAlgorithm::kTree, BcastAlgorithm::kRing}) {
        const BcastPoint p = bcast_sweep_one(row, extent, algo);
        bpoints.push_back(p);
        btable.add_row({std::to_string(p.row),
                        std::to_string(p.tile) + "^2",
                        fmt_bytes(static_cast<double>(p.tile_bytes)),
                        bcast_algorithm_name(p.algo),
                        std::to_string(p.root_sends),
                        fmt_duration(p.bcast_us * 1e-6)});
      }
    }
  }
  bench::print_table("A-broadcast algorithm sweep (one grid row)", btable);

  std::FILE* out = std::fopen("BENCH_net.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"net\",\n");
    std::fprintf(out, "  \"pingpong_rtt_us\": %.3f,\n", rtt_us);
    std::fprintf(out, "  \"sweep\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      std::fprintf(out,
                   "    {\"tile\": %lld, \"payload_bytes\": %zu, "
                   "\"reps\": %d, \"tile_us\": %.3f, "
                   "\"bandwidth_bps\": %.6e}%s\n",
                   static_cast<long long>(p.tile), p.tile_bytes, p.reps,
                   p.tile_us, p.bandwidth_bps,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"bcast_sweep\": [\n");
    for (std::size_t i = 0; i < bpoints.size(); ++i) {
      const BcastPoint& p = bpoints[i];
      std::fprintf(out,
                   "    {\"row\": %d, \"tile\": %lld, "
                   "\"payload_bytes\": %zu, \"algo\": \"%s\", "
                   "\"reps\": %d, \"root_sends\": %zu, "
                   "\"bcast_us\": %.3f}%s\n",
                   p.row, static_cast<long long>(p.tile), p.tile_bytes,
                   bcast_algorithm_name(p.algo), p.reps, p.root_sends,
                   p.bcast_us, i + 1 < bpoints.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_net.json\n");
  }
  return 0;
}
