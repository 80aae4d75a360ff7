#include "net/launch.hpp"

#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>

#include "core/engine.hpp"
#include "machine/topology.hpp"
#include "net/counters.hpp"
#include "net/net_transport.hpp"
#include "obs/obs.hpp"
#include "obs/trace_merge.hpp"
#include "service/fingerprint.hpp"
#include "shape/shape_algebra.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace bstc::net {
namespace {

std::uint64_t tile_key(std::uint32_t i, std::uint32_t j) {
  return (static_cast<std::uint64_t>(i) << 32) | j;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

constexpr std::uint32_t kClockProbeRounds = 8;

/// Rank 0 side of the clock handshake with `peer`: NTP-style probe
/// rounds, offset taken at minimum RTT (least queueing noise), then the
/// done-probe that tells the peer to snapshot and ship its trace.
double probe_clock_offset(NetTransport& nt, obs::Registry& reg, int peer) {
  double best_rtt = std::numeric_limits<double>::infinity();
  double offset = 0.0;
  for (std::uint32_t round = 0; round < kClockProbeRounds; ++round) {
    ClockProbeMsg probe;
    probe.seq = round;
    probe.t0 = reg.now();
    nt.post(peer, encode_clock_probe(probe));
    const auto [from, frame] = nt.wait_frame(FrameType::kClockReply);
    const double t1 = reg.now();
    BSTC_REQUIRE(from == peer,
                 "trace gather: clock reply from the wrong rank");
    const ClockReplyMsg reply = decode_clock_reply(frame);
    const double rtt = t1 - reply.t0;
    if (rtt < best_rtt) {
      best_rtt = rtt;
      offset = reply.t_peer - (reply.t0 + t1) / 2.0;
    }
  }
  ClockProbeMsg done;
  done.done = true;
  nt.post(peer, encode_clock_probe(done));
  return offset;
}

/// Snapshot this process's spans and wire totals atomically (the same
/// lock the comm instrumentation commits under, so span byte sums equal
/// the counter totals exactly).
obs::RankTrace snapshot_local_trace(obs::Registry& reg,
                                    WireCounters& counters, int rank) {
  obs::RankTrace t;
  t.rank = static_cast<std::uint32_t>(rank);
  WireCounterSnapshot wc;
  t.spans = reg.spans_with([&] { wc = counters.snapshot(); });
  t.lane_names = reg.lane_names();
  t.wire_frames_sent = wc.frames_sent;
  t.wire_frames_received = wc.frames_received;
  t.wire_bytes_sent = wc.bytes_sent;
  t.wire_bytes_received = wc.bytes_received;
  return t;
}

/// Post-barrier trace gather. Rank 0 probes each peer in turn and
/// collects its kTrace; peers answer probes until the done-probe, then
/// snapshot and ship. Runs strictly between the final barrier and the
/// summaries, so every algorithm frame is already on the books; frames
/// sent *during* the gather stay consistent too, because span and
/// counter commit under one registry lock.
void gather_and_write_trace(NetTransport& nt, obs::Registry& reg,
                            WireCounters& counters, int rank, int np,
                            const std::string& path) {
  if (rank == 0) {
    std::vector<obs::RankTrace> traces;
    traces.reserve(static_cast<std::size_t>(np));
    for (int r = 1; r < np; ++r) {
      const double offset = probe_clock_offset(nt, reg, r);
      const auto [from, frame] = nt.wait_frame(FrameType::kTrace);
      BSTC_REQUIRE(from == r, "trace gather: trace from the wrong rank");
      const TraceMsg msg = decode_trace(frame);
      BSTC_REQUIRE(static_cast<int>(msg.rank) == r,
                   "trace gather: trace claims the wrong rank");
      obs::RankTrace t;
      t.rank = msg.rank;
      t.clock_offset_s = offset;
      t.spans = msg.spans;
      for (const auto& [lane, name] : msg.lane_names) {
        t.lane_names[lane] = name;
      }
      t.wire_frames_sent = msg.wire_frames_sent;
      t.wire_frames_received = msg.wire_frames_received;
      t.wire_bytes_sent = msg.wire_bytes_sent;
      t.wire_bytes_received = msg.wire_bytes_received;
      traces.push_back(std::move(t));
    }
    // Rank 0 snapshots itself last, with offset 0 by definition.
    traces.push_back(snapshot_local_trace(reg, counters, 0));
    obs::write_merged_trace(path, traces);
  } else {
    while (true) {
      const auto [from, frame] = nt.wait_frame(FrameType::kClockProbe);
      BSTC_REQUIRE(from == 0, "trace gather: probe from a non-root rank");
      const ClockProbeMsg probe = decode_clock_probe(frame);
      if (probe.done) break;
      ClockReplyMsg reply;
      reply.seq = probe.seq;
      reply.t0 = probe.t0;
      reply.t_peer = reg.now();
      nt.post(0, encode_clock_reply(reply));
    }
    const obs::RankTrace local = snapshot_local_trace(reg, counters, rank);
    TraceMsg msg;
    msg.rank = local.rank;
    msg.wire_frames_sent = local.wire_frames_sent;
    msg.wire_frames_received = local.wire_frames_received;
    msg.wire_bytes_sent = local.wire_bytes_sent;
    msg.wire_bytes_received = local.wire_bytes_received;
    msg.lane_names.assign(local.lane_names.begin(), local.lane_names.end());
    msg.spans = local.spans;
    nt.post(0, encode_trace(msg));
  }
}

}  // namespace

BuiltProblem build_problem(const NetProblemSpec& spec) {
  BSTC_REQUIRE(spec.np >= 1, "net: --np must be >= 1");
  BSTC_REQUIRE(spec.p >= 1 && spec.np % spec.p == 0,
               "net: --p must divide --np (the grid is p x (np/p))");
  BuiltProblem b;
  Rng rng(spec.seed);
  const Tiling mt =
      Tiling::random_uniform(spec.m, spec.tile_lo, spec.tile_hi, rng);
  const Tiling kt =
      Tiling::random_uniform(spec.k, spec.tile_lo, spec.tile_hi, rng);
  const Tiling nt =
      Tiling::random_uniform(spec.n, spec.tile_lo, spec.tile_hi, rng);
  b.a_shape = Shape::random(mt, kt, spec.density, rng);
  b.b_shape = Shape::random(kt, nt, spec.density, rng);
  b.c_shape = contract_shape(b.a_shape, b.b_shape);
  Rng a_rng(spec.seed + 1);
  b.a = BlockSparseMatrix::random(b.a_shape, a_rng);
  b.b_gen = random_tile_generator(b.b_shape, spec.seed * 31 + 7);
  b.machine = MachineModel::summit(spec.np);
  b.machine.node.gpus = spec.gpus_per_node;
  b.machine.gpu_total = spec.np * spec.gpus_per_node;
  b.machine.node.gpu.memory_bytes = spec.gpu_mem;
  b.plan_cfg.p = spec.p;
  b.fingerprint = fingerprint_problem(b.a_shape, b.b_shape, b.c_shape,
                                      b.machine, b.plan_cfg);
  return b;
}

std::vector<std::string> spec_to_flags(const NetProblemSpec& spec) {
  return {"--m",        std::to_string(spec.m),
          "--k",        std::to_string(spec.k),
          "--n",        std::to_string(spec.n),
          "--density",  fmt_double(spec.density),
          "--tile-lo",  std::to_string(spec.tile_lo),
          "--tile-hi",  std::to_string(spec.tile_hi),
          "--seed",     std::to_string(spec.seed),
          "--np",       std::to_string(spec.np),
          "--p",        std::to_string(spec.p),
          "--gpus-per-node", std::to_string(spec.gpus_per_node),
          "--gpu-mem",  fmt_double(spec.gpu_mem)};
}

int run_worker(const WorkerOptions& opts) {
  WireCounters& counters = global_wire_counters();
  obs::Registry& reg = obs::Registry::instance();
  // A forked worker inherits its parent's registry; this rank's spans and
  // metrics start from zero.
  reg.clear();
  if (!opts.trace_out.empty()) reg.set_enabled(true);
  const std::uint32_t main_lane = obs::thread_lane();
  if (reg.enabled()) reg.name_lane(main_lane, "main");
  // Coarse worker phases on the main lane, recorded back-to-back.
  double phase_start = reg.now();
  const auto end_phase = [&](const char* name) {
    const double now = reg.now();
    reg.record(obs::Category::kPhase, name, main_lane, phase_start, now);
    phase_start = now;
  };

  // The mesh listener exists before our hello is sent, so every peer's
  // welcome-table entry is connectable by the time it is published.
  Listener mesh(opts.host, 0);
  Socket launcher =
      connect_with_retry(opts.host, opts.port, opts.retry, &counters);
  const BuiltProblem prob = build_problem(opts.spec);

  HelloMsg hello;
  hello.rank = kUnassignedRank;
  hello.np = 0;
  hello.listen_port = mesh.local_port();
  hello.fingerprint = prob.fingerprint;
  hello.node_id = static_cast<std::uint32_t>(opts.node_id);
  send_frame(launcher, encode_hello(hello), &counters);

  std::optional<Frame> wf = recv_frame(launcher, &counters);
  BSTC_REQUIRE(wf.has_value() && wf->type == FrameType::kWelcome,
               "worker: rendezvous closed before the welcome");
  const WelcomeMsg welcome = decode_welcome(*wf);
  const int rank = static_cast<int>(welcome.rank);
  const int np = static_cast<int>(welcome.np);
  BSTC_REQUIRE(np == opts.spec.np,
               "worker: the launcher runs a different --np");
  BSTC_REQUIRE(welcome.peers.size() == static_cast<std::size_t>(np),
               "worker: malformed peer table");
  end_phase("rendezvous");

  // Topology, published once by the launcher. Every rank derives the
  // identical node-aware layout from the same map, so the permutation
  // needs no extra agreement round. The layout never enters the problem
  // fingerprint (hellos predate rank assignment).
  const std::vector<int> node_of(welcome.node_of_rank.begin(),
                                 welcome.node_of_rank.end());
  BSTC_REQUIRE(node_of.empty() || node_of.size() == static_cast<std::size_t>(np),
               "worker: malformed node map in the welcome");
  const int grid_q = np / prob.plan_cfg.p;
  const std::vector<int> layout =
      node_aware_layout(prob.plan_cfg.p, grid_q, node_of);

  // Mesh formation: dial every lower rank (their listeners predate their
  // hellos, so a connect can only race process scheduling, which the
  // retry policy absorbs), accept every higher one; a hello frame on
  // each link identifies the peer and re-checks the problem identity.
  std::vector<PeerLink> links;
  for (int s = 0; s < rank; ++s) {
    Socket sock = connect_with_retry(welcome.peers[static_cast<std::size_t>(s)]
                                         .first,
                                     welcome.peers[static_cast<std::size_t>(s)]
                                         .second,
                                     opts.retry, &counters);
    HelloMsg id;
    id.rank = static_cast<std::uint32_t>(rank);
    id.np = static_cast<std::uint32_t>(np);
    id.listen_port = mesh.local_port();
    id.fingerprint = prob.fingerprint;
    send_frame(sock, encode_hello(id), &counters);
    links.push_back(PeerLink{s, std::move(sock)});
  }
  for (int c = rank + 1; c < np; ++c) {
    std::optional<Socket> sock = mesh.accept(60000);
    BSTC_REQUIRE(sock.has_value(),
                 "worker: timed out waiting for higher-rank mesh links");
    std::optional<Frame> hf = recv_frame(*sock, &counters);
    BSTC_REQUIRE(hf.has_value() && hf->type == FrameType::kHello,
                 "worker: expected a hello on a mesh link");
    const HelloMsg peer = decode_hello(*hf);
    BSTC_REQUIRE(static_cast<int>(peer.rank) > rank &&
                     static_cast<int>(peer.rank) < np,
                 "worker: mesh hello from an unexpected rank");
    BSTC_REQUIRE(peer.fingerprint == prob.fingerprint,
                 "worker: a peer built a different problem");
    links.push_back(PeerLink{static_cast<int>(peer.rank), std::move(*sock)});
  }

  NetTransport nt(np, rank, std::move(links), &counters, node_of);
  // Layout-aware homes: C tiles (like A tiles) are 2D-cyclic over grid
  // *slots*; the layout permutation maps slots to ranks.
  GridSpec grid;
  grid.p = prob.plan_cfg.p;
  grid.q = grid_q;
  grid.layout = layout;
  end_phase("mesh");

  // The layout rides a local copy of the plan config: the problem
  // fingerprint was already exchanged pre-layout and must not change.
  PlanConfig plan_cfg = prob.plan_cfg;
  plan_cfg.rank_layout = layout;
  EngineConfig ecfg;
  ecfg.plan = plan_cfg;
  ecfg.transport = &nt;
  ecfg.local_rank = rank;
  ecfg.node_of_rank = node_of;
  const EngineResult res = contract(prob.a, prob.b_shape, prob.b_gen,
                                    prob.c_shape, nullptr, prob.machine, ecfg);
  end_phase("engine");

  // --- C return: ship every locally computed tile to its 2D-cyclic home.
  // Each C tile has exactly one producing rank (a validated plan
  // invariant), so homes place received tiles rather than accumulate —
  // copies are bitwise, never arithmetic.
  BlockSparseMatrix owned(prob.c_shape);
  std::vector<std::uint64_t> owned_keys;
  std::vector<std::uint64_t> sent_counts(static_cast<std::size_t>(np), 0);
  for (const auto& [i, j] : res.computed_c_tiles) {
    const int home = grid.home_of(i, j);
    if (home == rank) {
      owned.tile(i, j) = res.c.tile(i, j);
      owned_keys.push_back(tile_key(i, j));
    } else {
      nt.send_c_tile(home, tile_key(i, j), res.c.tile(i, j));
      ++sent_counts[static_cast<std::size_t>(home)];
    }
  }
  for (int s = 0; s < np; ++s) {
    if (s == rank) continue;
    nt.post(s, encode_count(FrameType::kCDone,
                            sent_counts[static_cast<std::size_t>(s)]));
  }
  std::uint64_t expect_c = 0;
  for (int s = 0; s < np - 1; ++s) {
    const auto [peer, frame] = nt.wait_frame(FrameType::kCDone);
    (void)peer;
    expect_c += decode_count(frame, FrameType::kCDone);
  }
  for (std::uint64_t t = 0; t < expect_c; ++t) {
    auto [peer, frame] = nt.wait_frame(FrameType::kCTile);
    (void)peer;
    TileMsg msg = decode_tile(frame);
    const auto i = static_cast<std::uint32_t>(msg.key >> 32);
    const auto j = static_cast<std::uint32_t>(msg.key & 0xffffffffu);
    BSTC_REQUIRE(grid.home_of(i, j) == rank,
                 "worker: received a C tile homed elsewhere");
    owned.tile(i, j) = std::move(msg.tile);
    owned_keys.push_back(msg.key);
  }
  end_phase("c-exchange");

  // --- Gather every home-owned tile on rank 0 for verification. This
  // traffic is runtime plumbing, not part of the algorithm, so it counts
  // only in WireCounters — never in the payload bytes the plan statistics
  // are checked against.
  VerdictMsg verdict;
  if (rank == 0) {
    BlockSparseMatrix full(prob.c_shape);
    for (const std::uint64_t key : owned_keys) {
      const auto i = static_cast<std::uint32_t>(key >> 32);
      const auto j = static_cast<std::uint32_t>(key & 0xffffffffu);
      full.tile(i, j) = owned.tile(i, j);
    }
    std::uint64_t expect_g = 0;
    for (int s = 0; s < np - 1; ++s) {
      const auto [peer, frame] = nt.wait_frame(FrameType::kGatherDone);
      (void)peer;
      expect_g += decode_count(frame, FrameType::kGatherDone);
    }
    for (std::uint64_t t = 0; t < expect_g; ++t) {
      auto [peer, frame] = nt.wait_frame(FrameType::kGather);
      (void)peer;
      TileMsg msg = decode_tile(frame);
      full.tile(static_cast<std::uint32_t>(msg.key >> 32),
                static_cast<std::uint32_t>(msg.key & 0xffffffffu)) =
          std::move(msg.tile);
    }

    // Rank 0 replays the whole problem single-process and compares the
    // raw tile bytes — bitwise identity, not a tolerance.
    const BuiltProblem ref = build_problem(opts.spec);
    EngineConfig ref_cfg;
    ref_cfg.plan = ref.plan_cfg;
    const EngineResult ref_res =
        contract(ref.a, ref.b_shape, ref.b_gen, ref.c_shape, nullptr,
                 ref.machine, ref_cfg);
    verdict.bitwise_identical = true;
    for (std::size_t i = 0; i < prob.c_shape.tile_rows(); ++i) {
      for (std::size_t j = 0; j < prob.c_shape.tile_cols(); ++j) {
        if (!prob.c_shape.nonzero(i, j)) continue;
        const Tile& got = full.tile(i, j);
        const Tile& want = ref_res.c.tile(i, j);
        if (got.rows() != want.rows() || got.cols() != want.cols() ||
            std::memcmp(got.data(), want.data(), want.bytes()) != 0) {
          verdict.bitwise_identical = false;
        }
      }
    }
    verdict.max_abs_diff = full.max_abs_diff(ref_res.c);
    verdict.stats_a_network_bytes = res.plan_stats.a_network_bytes;
    verdict.stats_c_network_bytes = res.plan_stats.c_network_bytes;
    verdict.stats_a_internode_bytes = res.plan_stats.a_internode_bytes;
    verdict.stats_a_intranode_bytes = res.plan_stats.a_intranode_bytes;
    verdict.c_norm = full.norm();
  } else {
    for (const std::uint64_t key : owned_keys) {
      const auto i = static_cast<std::uint32_t>(key >> 32);
      const auto j = static_cast<std::uint32_t>(key & 0xffffffffu);
      nt.post(0, encode_tile(FrameType::kGather, key, owned.tile(i, j)));
    }
    nt.post(0, encode_count(FrameType::kGatherDone, owned_keys.size()));
  }

  end_phase("gather");

  // No rank tears its mesh links down while another may still be pulling
  // gather frames off them.
  nt.barrier(1);

  // Everything the algorithm sent is on the books; collect the per-rank
  // traces into one merged timeline before the summaries go out.
  if (!opts.trace_out.empty()) {
    gather_and_write_trace(nt, reg, counters, rank, np, opts.trace_out);
    end_phase("trace-gather");
  }

  SummaryMsg summary;
  summary.rank = static_cast<std::uint32_t>(rank);
  // A payload bytes this rank *originated* (root sends plus relay
  // forwards). Read from the transport's byte count after the barrier — a
  // relay hop is recorded by the rx thread, possibly after the local
  // engine already returned, so the engine-call delta would undercount.
  summary.a_wire_bytes = nt.payload_bytes() - nt.c_wire_bytes();
  summary.c_wire_bytes = nt.c_wire_bytes();
  const WireCounterSnapshot wc = counters.snapshot();
  summary.frames_sent = wc.frames_sent;
  summary.frames_received = wc.frames_received;
  summary.connect_retries = wc.connect_retries;
  summary.reconnects = wc.reconnects;
  summary.tasks_executed = res.tasks_executed;
  summary.engine_seconds = res.wall_seconds;
  summary.a_inter_bytes = static_cast<double>(wc.a_payload_inter_bytes);
  summary.a_intra_bytes = static_cast<double>(wc.a_payload_intra_bytes);
  summary.bcast_frames = wc.bcast_frames_sent;
  summary.bcast_fwd_frames = wc.bcast_fwd_frames_sent;
  // Rank-labelled Prometheus lines; the launch CLI concatenates them into
  // one exposition file (--metrics-out).
  summary.metrics_text = obs::label_rank(prometheus_text(wc), rank);
  send_frame(launcher, encode_summary(summary), &counters);
  if (rank == 0) send_frame(launcher, encode_verdict(verdict), &counters);

  nt.shutdown("run complete");
  launcher.close();
  return rank == 0 && !verdict.bitwise_identical ? 1 : 0;
}

LaunchReport run_launcher(const LaunchOptions& opts, const SpawnFn& spawn,
                          const DeadPollFn& dead_poll) {
  const int np = opts.spec.np;
  const BuiltProblem prob = build_problem(opts.spec);  // fingerprint oracle
  Listener rendezvous(opts.host, opts.port);
  for (int w = 0; w < np; ++w) {
    spawn(opts.host, rendezvous.local_port(), w);
  }

  // Collect one hello per worker; ranks are assigned in arrival order.
  // Short accept timeouts interleave with the dead-worker poll so a
  // crashed child aborts the launch instead of running out the clock.
  struct Pending {
    Socket sock;
    HelloMsg hello;
  };
  std::vector<Pending> pending;
  Timer waited;
  while (pending.size() < static_cast<std::size_t>(np)) {
    if (dead_poll && dead_poll() > 0) {
      throw Error("launch: a worker died before completing rendezvous");
    }
    BSTC_REQUIRE(waited.elapsed_s() * 1000.0 < opts.hello_timeout_ms,
                 "launch: timed out waiting for worker hellos");
    std::optional<Socket> sock = rendezvous.accept(200);
    if (!sock.has_value()) continue;
    std::optional<Frame> hf = recv_frame(*sock, nullptr);
    BSTC_REQUIRE(hf.has_value() && hf->type == FrameType::kHello,
                 "launch: a connection closed before its hello");
    const HelloMsg hello = decode_hello(*hf);
    BSTC_REQUIRE(hello.rank == kUnassignedRank,
                 "launch: worker arrived with a pre-assigned rank");
    BSTC_REQUIRE(hello.fingerprint == prob.fingerprint,
                 "launch: a worker built a different problem (flag drift "
                 "between launch and worker?)");
    pending.push_back(Pending{std::move(*sock), hello});
  }

  WelcomeMsg welcome;
  welcome.np = static_cast<std::uint32_t>(np);
  for (const Pending& p : pending) {
    welcome.peers.emplace_back(opts.host, p.hello.listen_port);
    welcome.node_of_rank.push_back(p.hello.node_id);
  }
  for (int r = 0; r < np; ++r) {
    welcome.rank = static_cast<std::uint32_t>(r);
    send_frame(pending[static_cast<std::size_t>(r)].sock,
               encode_welcome(welcome), nullptr);
  }

  LaunchReport report;
  report.summaries.resize(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) {
    Socket& sock = pending[static_cast<std::size_t>(r)].sock;
    std::optional<Frame> sf = recv_frame(sock, nullptr);
    BSTC_REQUIRE(sf.has_value() && sf->type == FrameType::kSummary,
                 "launch: rank " + std::to_string(r) +
                     " closed before reporting its summary");
    const SummaryMsg summary = decode_summary(*sf);
    BSTC_REQUIRE(summary.rank < static_cast<std::uint32_t>(np),
                 "launch: summary from an out-of-range rank");
    report.summaries[summary.rank] = summary;
    report.total_a_wire_bytes += summary.a_wire_bytes;
    report.total_c_wire_bytes += summary.c_wire_bytes;
    report.total_a_inter_bytes += summary.a_inter_bytes;
    report.total_a_intra_bytes += summary.a_intra_bytes;
    if (r == 0) {
      std::optional<Frame> vf = recv_frame(sock, nullptr);
      BSTC_REQUIRE(vf.has_value() && vf->type == FrameType::kVerdict,
                   "launch: rank 0 closed before its verdict");
      report.verdict = decode_verdict(*vf);
    }
  }

  // Exact equality: both sides count whole tiles of integer byte sizes,
  // and the measured hop split must land on the analytic split to the
  // byte — any fanout / classification drift between the transport and
  // the plan statistics fails the launch.
  report.bytes_match =
      report.total_a_wire_bytes == report.verdict.stats_a_network_bytes &&
      report.total_c_wire_bytes == report.verdict.stats_c_network_bytes &&
      report.total_a_inter_bytes == report.verdict.stats_a_internode_bytes &&
      report.total_a_intra_bytes == report.verdict.stats_a_intranode_bytes;
  report.ok = report.verdict.bitwise_identical && report.bytes_match;
  return report;
}

}  // namespace bstc::net
