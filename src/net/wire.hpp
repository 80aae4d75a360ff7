#pragma once

/// \file wire.hpp
/// The BSTC wire protocol: length-prefixed, checksummed frames.
///
/// Every message between two rank processes (and between a worker and the
/// launch rendezvous) is one frame:
///
///   offset  size  field
///   0       4     magic 0x42535443 ("BSTC", big-endian in memory)
///   4       1     protocol version (kWireVersion)
///   5       1     frame type (FrameType)
///   6       2     reserved flags (must be 0)
///   8       4     payload length, little-endian
///   12      len   payload
///   12+len  8     XXH64 (seed 0) of header + payload, little-endian
///
/// The checksum covers the header too, so a flipped type or length byte is
/// rejected, not just payload corruption. Payloads are packed little-endian
/// (the only platforms we run on); a static_assert below keeps a big-endian
/// port from silently mis-decoding.
///
/// Tile payloads carry the raw column-major doubles of the tile — the
/// receiver reconstructs the exact bits that were sent, which is what makes
/// the distributed executor's result bitwise-comparable to the
/// single-process one.

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "comm/bcast.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "tile/tile.hpp"

namespace bstc::net {

static_assert(std::endian::native == std::endian::little,
              "the BSTC wire format is little-endian");

inline constexpr std::uint32_t kWireMagic = 0x42535443u;  // "BSTC"
/// v2: kBcast/kBcastFwd frames; hello carries a node id; welcome carries
/// the node map + broadcast policy; summary/verdict carry the
/// intra-/inter-node A-volume split.
/// v3: requests carry a program name (kProgramRun); responses carry the
/// program DAG accounting triple (nodes, intermediates, reuse).
/// v4: the checksum field is XXH64 (support/hash) instead of byte-serial
/// FNV-1a; frame layout and sizes are unchanged, so an older peer is
/// refused by this version byte rather than by a checksum mismatch.
/// v5: the welcome carries only the peer table and the node map (the
/// broadcast policy and grid layout are derived from it); the summary
/// drops the shm staging-ring counts; frame type 3 (point-to-point A
/// tile) is retired.
inline constexpr std::uint8_t kWireVersion = 5;
inline constexpr std::size_t kWireHeaderBytes = 12;
inline constexpr std::size_t kWireChecksumBytes = 8;
/// Upper bound on one payload: a guard against a corrupted length field
/// allocating gigabytes, far above any tile we ship.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 28;

/// Every kind of frame the runtime exchanges.
enum class FrameType : std::uint8_t {
  kHello = 1,     ///< worker -> rendezvous / peer identification
  kWelcome = 2,   ///< rendezvous -> worker: rank assignment + peer table
  // 3 was kTile, a point-to-point A tile; retired in v5 (A travels only
  // as kBcast / kBcastFwd).
  kCTile = 4,     ///< a computed C tile returning to its home rank
  kCDone = 5,     ///< "all my C returns are sent" (count attached)
  kGather = 6,    ///< a home-owned C tile travelling to rank 0
  kGatherDone = 7,///< end of a rank's gather stream
  kBarrier = 8,   ///< full-mesh barrier token
  kSummary = 9,   ///< worker -> launcher: per-rank traffic report
  kVerdict = 10,  ///< rank 0 -> launcher: correctness + accounting verdict
  kShutdown = 11, ///< orderly teardown (reason attached)
  kClockProbe = 12,  ///< rank 0 -> peer: clock-offset probe (t0 attached)
  kClockReply = 13,  ///< peer -> rank 0: echo of t0 + the peer's clock
  kTrace = 14,       ///< peer -> rank 0: serialized span trace + counters
  kRequest = 15,     ///< front -> worker: one serving request (spec, no data)
  kResponse = 16,    ///< worker -> front: request outcome (+ C tiles)
  kServiceCtl = 17,  ///< service control (metrics gather, drain, fault inj.)
  kBcast = 18,       ///< root's collective A-tile broadcast frame
  kBcastFwd = 19,    ///< the same payload relayed along the tree/ring
};

const char* frame_type_name(FrameType type);

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kShutdown;
  std::vector<std::uint8_t> payload;
};

/// XXH64 over a byte range (the frame checksum).
std::uint64_t wire_checksum(const std::uint8_t* data, std::size_t size);

/// Encode a frame into its on-wire bytes.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Decode one complete frame from `data`; the buffer must contain exactly
/// one frame. Throws bstc::Error on a bad magic/version/length, a
/// truncated buffer, trailing bytes, or a checksum mismatch.
Frame decode_frame(const std::uint8_t* data, std::size_t size);
inline Frame decode_frame(const std::vector<std::uint8_t>& bytes) {
  return decode_frame(bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------------
// Payload packing primitives.

/// Append-only little-endian payload builder.
class WireWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s);
  void raw(const void* data, std::size_t size);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked payload reader; every accessor throws bstc::Error on a
/// truncated payload, and finish() rejects trailing garbage.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  void raw(void* out, std::size_t size);

  std::size_t remaining() const { return size_ - pos_; }
  /// Assert the payload was fully consumed.
  void finish() const;

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Message serializers.

/// A keyed tile message (FrameType::kCTile / kGather). The key is
/// the engine's (row << 32 | col) tile key.
struct TileMsg {
  std::uint64_t key = 0;
  Tile tile;
};

Frame encode_tile(FrameType type, std::uint64_t key, const Tile& tile);
TileMsg decode_tile(const Frame& frame);

/// A collective A-tile broadcast (FrameType::kBcast from the root,
/// kBcastFwd on every relay hop). Self-describing: the frame carries the
/// algorithm, the root, and the full participant list, so every receiver
/// recomputes its own fanout with comm/bcast and forwards the payload
/// verbatim — the tile is serialized exactly once at the root.
struct BcastTileMsg {
  std::uint64_t key = 0;
  BcastAlgorithm algo = BcastAlgorithm::kTree;
  std::uint32_t root = 0;
  std::vector<std::uint32_t> parts;  ///< strictly ascending, contains root
  Tile tile;
};

Frame encode_bcast(const BcastTileMsg& msg);
/// Decode (and validate) a kBcast/kBcastFwd frame: the algorithm must be
/// tree or ring, the participant list strictly ascending and rooted, and
/// the tile extents must match the remaining payload exactly.
BcastTileMsg decode_bcast(const Frame& frame);

/// Rank identification, sent as the first frame on every connection.
struct HelloMsg {
  std::uint32_t rank = 0;         ///< kUnassignedRank when joining rendezvous
  std::uint32_t np = 0;           ///< 0 when unknown (rendezvous assigns)
  std::uint16_t listen_port = 0;  ///< the sender's mesh accept port
  std::uint64_t fingerprint = 0;  ///< problem/plan fingerprint (must agree)
  std::uint32_t node_id = 0;      ///< self-reported node (--node-id)
};
inline constexpr std::uint32_t kUnassignedRank = 0xffffffffu;

Frame encode_hello(const HelloMsg& msg);
HelloMsg decode_hello(const Frame& frame);

/// Rendezvous reply: the worker's rank, where every peer listens, and the
/// globally-agreed node map (every rank derives the identical grid layout
/// and broadcast fanouts from it, so the launcher publishes it once).
struct WelcomeMsg {
  std::uint32_t rank = 0;
  std::uint32_t np = 0;
  std::vector<std::pair<std::string, std::uint16_t>> peers;  ///< by rank
  std::vector<std::uint32_t> node_of_rank;  ///< size np (from the hellos)
};

Frame encode_welcome(const WelcomeMsg& msg);
WelcomeMsg decode_welcome(const Frame& frame);

/// Count-carrying control frames (kCDone / kGatherDone) and barriers.
Frame encode_count(FrameType type, std::uint64_t count);
std::uint64_t decode_count(const Frame& frame, FrameType expected);

Frame encode_barrier(std::uint32_t epoch);
std::uint32_t decode_barrier(const Frame& frame);

/// Per-worker traffic report sent to the launcher after the run.
struct SummaryMsg {
  std::uint32_t rank = 0;
  double a_wire_bytes = 0.0;  ///< A-broadcast payload bytes this rank sent
  double c_wire_bytes = 0.0;  ///< C-return payload bytes this rank sent
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t connect_retries = 0;
  std::uint64_t reconnects = 0;
  std::size_t tasks_executed = 0;
  double engine_seconds = 0.0;
  /// A-broadcast payload split by hop class (inter + intra = a_wire_bytes).
  double a_inter_bytes = 0.0;
  double a_intra_bytes = 0.0;
  std::uint64_t bcast_frames = 0;      ///< kBcast frames this rank sent
  std::uint64_t bcast_fwd_frames = 0;  ///< kBcastFwd relays this rank sent
  std::string metrics_text;  ///< rank-labelled bstc_wire_*/bstc_bcast_* lines
};

Frame encode_summary(const SummaryMsg& msg);
SummaryMsg decode_summary(const Frame& frame);

/// Rank 0's verdict: distributed C vs the single-process engine, plus the
/// analytic communication volumes of the plan for the launcher to check
/// measured wire traffic against.
struct VerdictMsg {
  bool bitwise_identical = false;
  double max_abs_diff = 0.0;
  double stats_a_network_bytes = 0.0;
  double stats_c_network_bytes = 0.0;
  double c_norm = 0.0;
  /// Analytic split of the A volume (inter + intra = a_network_bytes).
  double stats_a_internode_bytes = 0.0;
  double stats_a_intranode_bytes = 0.0;
};

Frame encode_verdict(const VerdictMsg& msg);
VerdictMsg decode_verdict(const Frame& frame);

Frame encode_shutdown(const std::string& reason);
std::string decode_shutdown(const Frame& frame);

/// NTP-style clock-offset probe: rank 0 stamps t0 (its clock) on the way
/// out; the peer replies with {t0, t_peer}; rank 0 receives at t1 and
/// estimates offset = t_peer - (t0 + t1) / 2. `done` ends the exchange
/// and tells the peer to ship its trace.
struct ClockProbeMsg {
  bool done = false;
  std::uint32_t seq = 0;
  double t0 = 0.0;
};

Frame encode_clock_probe(const ClockProbeMsg& msg);
ClockProbeMsg decode_clock_probe(const Frame& frame);

struct ClockReplyMsg {
  std::uint32_t seq = 0;
  double t0 = 0.0;      ///< echoed from the probe
  double t_peer = 0.0;  ///< the peer's clock at reply time
};

Frame encode_clock_reply(const ClockReplyMsg& msg);
ClockReplyMsg decode_clock_reply(const Frame& frame);

/// One rank's span trace plus its wire totals at snapshot time
/// (obs/trace_merge cross-checks span byte sums against these).
struct TraceMsg {
  std::uint32_t rank = 0;
  std::uint64_t wire_frames_sent = 0;
  std::uint64_t wire_frames_received = 0;
  std::uint64_t wire_bytes_sent = 0;
  std::uint64_t wire_bytes_received = 0;
  std::vector<std::pair<std::uint32_t, std::string>> lane_names;
  std::vector<obs::Span> spans;
};

Frame encode_trace(const TraceMsg& msg);
TraceMsg decode_trace(const Frame& frame);

// ---------------------------------------------------------------------------
// Serving frames (the distributed ContractionService mode).

/// One serving request, front rank -> worker rank. The problem never
/// travels — only its deterministic spec (ServeProblemSpec fields, packed
/// raw so the wire layer stays independent of src/service): the worker
/// rebuilds bit-identical shapes and inputs from the seeds.
struct RequestMsg {
  std::uint64_t request_id = 0;
  std::uint8_t kind = 1;  ///< ServeRequestKind value (validated on decode)
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
  double density = 0.0;
  std::int64_t tile_lo = 0;
  std::int64_t tile_hi = 0;
  std::uint64_t seed = 0;
  std::uint32_t gpus = 1;
  double gpu_mem = 0.0;
  std::uint32_t p = 1;
  std::uint64_t a_seed = 0;
  bool want_c = true;  ///< ship result tiles back (checksum always comes)
  std::string program;  ///< kProgramRun: named program; else empty
};

Frame encode_request(const RequestMsg& msg);
RequestMsg decode_request(const Frame& frame);

/// The outcome of one request, worker rank -> front rank. Carries the
/// bitwise checksum witness always, and the raw C tiles when the request
/// asked for them (keys are the engine's row<<32|col tile keys).
struct ResponseMsg {
  std::uint64_t request_id = 0;
  std::uint8_t status = 0;  ///< ServiceStatus value
  std::uint64_t fingerprint = 0;
  std::uint64_t routing_key = 0;
  std::uint32_t served_by = 0;
  bool plan_cache_hit = false;
  double queue_wait_s = 0.0;
  double inspect_s = 0.0;
  double execute_s = 0.0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t b_max_generations = 0;
  std::uint64_t c_checksum = 0;
  double c_norm = 0.0;
  std::string text;   ///< plan-explain narrative
  std::string error;  ///< failure detail
  std::uint64_t program_nodes = 0;          ///< program-run DAG nodes
  std::uint64_t program_intermediates = 0;  ///< shared intermediates built
  std::uint64_t program_reuse = 0;          ///< reuse edges this iteration
  bool has_c = false;
  std::vector<std::pair<std::uint64_t, Tile>> c_tiles;
};

Frame encode_response(const ResponseMsg& msg);
ResponseMsg decode_response(const Frame& frame);

/// Service-control verbs multiplexed on one frame type.
enum class ServiceCtlOp : std::uint8_t {
  kMetricsQuery = 1,  ///< front -> worker: snapshot your counters
  kMetricsReply = 2,  ///< worker -> front: rank-labelled Prometheus text
  kDrain = 3,         ///< front -> worker: finish in-flight work and exit
  kDrainAck = 4,      ///< worker -> front: drained, about to exit
  kCrash = 5,         ///< fault injection: die immediately (tests only)
  kStoreSwap = 6,     ///< front -> worker: re-read the shm control segment
                      ///< and swap to the published store generation
  kStoreSwapAck = 7,  ///< worker -> front: swap outcome (counters =
                      ///< {ok, generation}; text = error detail)
};

const char* service_ctl_op_name(ServiceCtlOp op);

/// A control exchange on the service mesh. `counters` carries the
/// kStoreSwapAck outcome and is empty otherwise; `text` carries the
/// worker's Prometheus exposition on kMetricsReply.
struct ServiceCtlMsg {
  ServiceCtlOp op = ServiceCtlOp::kMetricsQuery;
  std::uint32_t rank = 0;
  std::vector<std::uint64_t> counters;
  std::string text;
};

Frame encode_service_ctl(const ServiceCtlMsg& msg);
ServiceCtlMsg decode_service_ctl(const Frame& frame);

}  // namespace bstc::net
