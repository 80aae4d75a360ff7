#pragma once

/// \file net_transport.hpp
/// Transport implementation over TCP sockets between rank processes.
///
/// NetTransport keeps the exact deliver/wait contract of the in-process
/// Transport — the engine calls `send_multi(home, consumers, key, tile)`
/// and `mailbox(rank).wait(key)` unmodified — but `send_multi` serializes
/// the tile once into a checksummed kBcast frame and hands it to a
/// background *progress thread*, so the paper's eager A-tile row
/// broadcast never stalls the sending rank's CPU queue on TCP
/// backpressure. One receiver thread per peer link drains incoming
/// frames: broadcast frames are relayed to this rank's fanout children
/// and delivered into the local mailbox (waking any stalled consumer,
/// §5.1), control frames are parked in per-type queues for the runtime
/// (barriers, C returns, gathers).
///
/// Failure semantics: an unexpected EOF or a corrupt frame on any link
/// poisons the local mailbox and every control queue, so every consumer
/// stalled on a dead peer aborts with bstc::Error instead of hanging.
/// After `shutdown()` (which sends kShutdown to every peer) EOFs are
/// expected and silent.

#include <atomic>
#include <deque>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "comm/bcast.hpp"
#include "comm/transport.hpp"
#include "net/socket.hpp"

namespace bstc::net {

/// One connected peer link (socket + its rank).
struct PeerLink {
  int rank = -1;
  Socket socket;
};

class NetTransport : public Transport {
 public:
  /// `peers` must hold one connected link per remote rank (np - 1 links
  /// for a full mesh). `counters` (optional) receives wire-level counts;
  /// the payload byte count inherited from Transport receives the tile
  /// accounting that is compared against plan statistics.
  /// `node_of_rank` is the rank -> node map every rank shares (empty =
  /// every rank its own node); it is fixed here, before the receiver
  /// threads start, because a peer's first broadcast frame may arrive as
  /// soon as they do.
  NetTransport(int nodes, int rank, std::vector<PeerLink> peers,
               WireCounters* counters = nullptr,
               std::vector<int> node_of_rank = {});
  ~NetTransport() override;

  int rank() const { return rank_; }

  /// Collective A broadcast; `from` must be the local rank. The tile is
  /// serialized exactly once; resolve_bcast picks the algorithm, which
  /// decides who this rank forwards to (its fanout children), and
  /// receivers recompute theirs from the self-describing frame. Per-hop
  /// payload bytes land in payload_bytes() (sender side of each hop) and
  /// in the WireCounters intra/inter split.
  void send_multi(int from, const std::vector<int>& consumers,
                  std::uint64_t key, const Tile& tile) override;

  /// Send a computed C tile back to its home rank (kCTile). Counts the
  /// payload bytes in payload_bytes() and in c_wire_bytes().
  void send_c_tile(int home, std::uint64_t key, const Tile& tile);

  /// Send an arbitrary control frame to `peer` through the progress
  /// thread (kCDone, kGather, kGatherDone, ...).
  void post(int peer, Frame frame);

  /// Blocking receive of the next parked frame of `type` (from any
  /// peer). Throws bstc::Error if the transport fails while waiting.
  std::pair<int, Frame> wait_frame(FrameType type);

  /// Full-mesh barrier: every rank posts a token to every peer and waits
  /// for all np-1 counterparts of the same epoch.
  void barrier(std::uint32_t epoch);

  /// Orderly teardown: flush the send queue, send kShutdown to every
  /// peer, half-close the links, and join all threads. EOFs after this
  /// are expected. Called by the destructor if not called explicitly.
  void shutdown(const std::string& reason);

  /// Total tile payload bytes sent as C returns (subset of
  /// payload_bytes(); the A share is total - this).
  double c_wire_bytes() const;

 private:
  void progress_loop();
  void receive_loop(std::size_t link_index);
  void fail(const std::string& reason);
  PeerLink& link_of(int peer);

  /// Relay-or-deliver for an incoming broadcast frame: record + forward
  /// to this rank's children first, then deliver the tile to the local
  /// mailbox.
  void handle_bcast(Frame frame);
  /// Record each child hop and post the already-encoded frame to it; the
  /// last child takes the frame itself, the others a copy.
  void dispatch_bcast(Frame frame, const std::vector<int>& children,
                      std::size_t tile_bytes);

  int rank_;
  WireCounters* counters_;
  std::vector<PeerLink> links_;
  std::vector<std::thread> rx_threads_;
  std::thread progress_thread_;

  /// Broadcast topology (immutable after construction).
  std::vector<int> node_of_rank_;

  // Outgoing queue consumed by the progress thread.
  std::mutex tx_mutex_;
  std::condition_variable tx_cv_;
  std::deque<std::pair<int, Frame>> tx_queue_;
  bool tx_stop_ = false;

  // Parked control frames by type, fed by the receiver threads.
  std::mutex rx_mutex_;
  std::condition_variable rx_cv_;
  std::map<FrameType, std::deque<std::pair<int, Frame>>> parked_;
  std::atomic<bool> failed_{false};  ///< reason_ guarded by rx_mutex_
  std::string fail_reason_;
  bool shutting_down_ = false;

  // Barrier tokens that arrived from fast peers already past this epoch;
  // only touched by the (single) thread calling barrier().
  std::map<std::uint32_t, int> barrier_ahead_;

  mutable std::mutex stats_mutex_;
  double c_wire_bytes_ = 0.0;
};

}  // namespace bstc::net
