#include "net/net_transport.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace bstc::net {

NetTransport::NetTransport(int nodes, int rank, std::vector<PeerLink> peers,
                           WireCounters* counters,
                           std::vector<int> node_of_rank)
    : Transport(nodes), rank_(rank), counters_(counters),
      links_(std::move(peers)), node_of_rank_(std::move(node_of_rank)) {
  BSTC_REQUIRE(rank_ >= 0 && rank_ < nodes, "net: rank out of range");
  BSTC_REQUIRE(node_of_rank_.empty() ||
                   node_of_rank_.size() == static_cast<std::size_t>(nodes),
               "net: broadcast node map size mismatch");
  for (const PeerLink& link : links_) {
    BSTC_REQUIRE(link.rank >= 0 && link.rank < nodes && link.rank != rank_,
                 "net: peer link with an invalid rank");
    BSTC_REQUIRE(link.socket.valid(), "net: peer link with a closed socket");
  }
  rx_threads_.reserve(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    rx_threads_.emplace_back([this, i] { receive_loop(i); });
  }
  progress_thread_ = std::thread([this] { progress_loop(); });
}

NetTransport::~NetTransport() {
  try {
    shutdown("transport destroyed");
  } catch (...) {
    // Teardown must not throw; failures were already reported to waiters.
  }
}

PeerLink& NetTransport::link_of(int peer) {
  for (PeerLink& link : links_) {
    if (link.rank == peer) return link;
  }
  throw Error("net: no link to rank " + std::to_string(peer));
}

void NetTransport::send_multi(int from, const std::vector<int>& consumers,
                              std::uint64_t key, const Tile& tile) {
  BSTC_REQUIRE(from == rank_,
               "net: a rank may only broadcast its own tiles (from=" +
                   std::to_string(from) + ", rank=" + std::to_string(rank_) +
                   ")");
  if (consumers.empty()) return;
  std::vector<int> parts = consumers;
  parts.push_back(rank_);
  std::sort(parts.begin(), parts.end());
  BcastTileMsg msg;
  msg.key = key;
  msg.algo = resolve_bcast(parts.size(), tile.bytes());
  msg.root = static_cast<std::uint32_t>(rank_);
  msg.parts.reserve(parts.size());
  for (const int r : parts) msg.parts.push_back(static_cast<std::uint32_t>(r));
  msg.tile = Tile::view(tile.data(), tile.rows(), tile.cols());
  // Serialize exactly once; every hop (root post, relay forward) reuses
  // this frame's payload byte-for-byte.
  const std::vector<int> children =
      bcast_children(msg.algo, parts, rank_, rank_, node_of_rank_);
  dispatch_bcast(encode_bcast(msg), children, tile.bytes());
}

void NetTransport::dispatch_bcast(Frame frame,
                                  const std::vector<int>& children,
                                  std::size_t tile_bytes) {
  const bool forwarded = frame.type == FrameType::kBcastFwd;
  const int my_node = bcast_node_of(node_of_rank_, rank_);
  for (std::size_t i = 0; i < children.size(); ++i) {
    const int child = children[i];
    const bool intra = bcast_node_of(node_of_rank_, child) == my_node;
    // Sender-side hop accounting: the originator of each hop records it,
    // so summing payload_bytes() over ranks counts every hop once.
    count_bytes(rank_, child, tile_bytes);
    if (counters_ != nullptr) counters_->add_a_payload(!intra, tile_bytes);
    post(child, i + 1 == children.size() ? std::move(frame) : frame);
    if (counters_ != nullptr) counters_->add_bcast_frame_sent(forwarded);
  }
}

void NetTransport::handle_bcast(Frame frame) {
  BcastTileMsg msg = decode_bcast(frame);
  std::vector<int> parts;
  parts.reserve(msg.parts.size());
  for (const std::uint32_t r : msg.parts) parts.push_back(static_cast<int>(r));
  BSTC_REQUIRE(parts.back() < nodes(),
               "net: broadcast participant rank out of range");
  const std::vector<int> children =
      bcast_children(msg.algo, parts, static_cast<int>(msg.root), rank_,
                     node_of_rank_);
  if (!children.empty()) {
    // Forward before delivering locally: downstream stalls clear as early
    // as possible, and the relayed frame is the received payload verbatim
    // (retyped kBcastFwd) — the tile is never re-serialized.
    dispatch_bcast(Frame{FrameType::kBcastFwd, std::move(frame.payload)},
                   children, msg.tile.bytes());
  }
  mailbox(rank_).deliver(msg.key, std::move(msg.tile));
}

void NetTransport::send_c_tile(int home, std::uint64_t key, const Tile& tile) {
  BSTC_REQUIRE(home != rank_, "net: C tile already at home");
  count_bytes(rank_, home, tile.bytes());
  {
    std::lock_guard lock(stats_mutex_);
    c_wire_bytes_ += static_cast<double>(tile.bytes());
  }
  post(home, encode_tile(FrameType::kCTile, key, tile));
}

void NetTransport::post(int peer, Frame frame) {
  link_of(peer);  // validate early, outside the progress thread
  std::size_t depth = 0;
  {
    std::lock_guard lock(tx_mutex_);
    if (failed_.load()) throw Error("net: transport failed");
    BSTC_REQUIRE(!tx_stop_, "net: send after shutdown");
    tx_queue_.emplace_back(peer, std::move(frame));
    depth = tx_queue_.size();
    tx_cv_.notify_one();
  }
  obs::Registry::instance().gauge_set("bstc_net_tx_queue_depth",
                                      static_cast<std::int64_t>(depth));
}

std::pair<int, Frame> NetTransport::wait_frame(FrameType type) {
  std::unique_lock lock(rx_mutex_);
  rx_cv_.wait(lock, [&] { return failed_.load() || !parked_[type].empty(); });
  auto& queue = parked_[type];
  if (queue.empty()) {
    throw Error("net: transport failed while waiting for a " +
                std::string(frame_type_name(type)) + " frame: " +
                fail_reason_);
  }
  std::pair<int, Frame> out = std::move(queue.front());
  queue.pop_front();
  return out;
}

void NetTransport::barrier(std::uint32_t epoch) {
  obs::ScopedSpan span(obs::Category::kBarrier,
                       "barrier(" + std::to_string(epoch) + ")");
  for (const PeerLink& link : links_) {
    post(link.rank, encode_barrier(epoch));
  }
  // Tokens of later epochs can overtake a slow peer's current token (a
  // fast peer may already have advanced); count per epoch. Tokens for
  // *this* epoch may equally have arrived during an earlier barrier and
  // been stashed — credit them first, or this rank waits forever for a
  // token it already consumed.
  std::size_t seen = 0;
  const auto stashed = barrier_ahead_.find(epoch);
  if (stashed != barrier_ahead_.end()) {
    seen = std::min(static_cast<std::size_t>(stashed->second), links_.size());
    barrier_ahead_.erase(stashed);
  }
  while (seen < links_.size()) {
    const auto [peer, frame] = wait_frame(FrameType::kBarrier);
    (void)peer;
    const std::uint32_t got = decode_barrier(frame);
    if (got == epoch) {
      ++seen;
    } else {
      BSTC_REQUIRE(got > epoch, "net: barrier token from a past epoch");
      barrier_ahead_[got] += 1;
    }
  }
}

double NetTransport::c_wire_bytes() const {
  std::lock_guard lock(stats_mutex_);
  return c_wire_bytes_;
}

void NetTransport::shutdown(const std::string& reason) {
  {
    std::lock_guard lock(rx_mutex_);
    if (shutting_down_) return;
    shutting_down_ = true;
  }
  {
    std::lock_guard lock(tx_mutex_);
    if (!failed_.load()) {
      for (const PeerLink& link : links_) {
        tx_queue_.emplace_back(link.rank, encode_shutdown(reason));
      }
    }
    tx_stop_ = true;
    tx_cv_.notify_all();
  }
  if (progress_thread_.joinable()) progress_thread_.join();
  // Cut both directions: the write FIN lets the peer's reader finish, and
  // the local read shutdown wakes our own receiver threads even if the
  // peer never sends its kShutdown — teardown must not depend on the
  // peer's progress. Callers synchronize (barrier) before shutting down,
  // so anything still in flight here is already protocol-complete.
  for (PeerLink& link : links_) link.socket.shutdown_both();
  for (std::thread& t : rx_threads_) {
    if (t.joinable()) t.join();
  }
  for (PeerLink& link : links_) link.socket.close();
}

void NetTransport::fail(const std::string& reason) {
  {
    std::lock_guard lock(rx_mutex_);
    if (failed_.exchange(true)) return;  // first failure wins
    fail_reason_ = reason;
  }
  obs::Registry& reg = obs::Registry::instance();
  reg.counter_add("bstc_net_poison_total");
  if (reg.enabled()) {
    // Instant event: when the transport was poisoned, and why.
    const double t = reg.now();
    reg.record(obs::Category::kCommRx, "poison: " + reason,
               obs::thread_lane(), t, t);
  }
  {
    // Stop the progress thread; anything still queued cannot be trusted
    // to reach its peer, and post() now throws to abort the engine.
    std::lock_guard lock(tx_mutex_);
    tx_stop_ = true;
    tx_cv_.notify_all();
  }
  rx_cv_.notify_all();
  mailbox(rank_).poison(reason);
}

void NetTransport::progress_loop() {
  while (true) {
    std::pair<int, Frame> item;
    {
      std::unique_lock lock(tx_mutex_);
      tx_cv_.wait(lock, [&] { return tx_stop_ || !tx_queue_.empty(); });
      if (tx_queue_.empty()) return;  // tx_stop_ and fully drained
      if (failed_.load()) return;     // drop the queue on failure
      item = std::move(tx_queue_.front());
      tx_queue_.pop_front();
      obs::Registry::instance().gauge_set(
          "bstc_net_tx_queue_depth",
          static_cast<std::int64_t>(tx_queue_.size()));
    }
    try {
      send_frame(link_of(item.first).socket, item.second, counters_);
    } catch (const std::exception& e) {
      {
        // During orderly shutdown the peer may already have cut its link
        // (SHUT_RDWR races both ways); an EPIPE on our goodbye frame is
        // expected then, not a failure to poison waiters over.
        std::lock_guard lock(rx_mutex_);
        if (shutting_down_) return;
      }
      fail(std::string("send to rank ") + std::to_string(item.first) +
           " failed: " + e.what());
      return;
    }
  }
}

void NetTransport::receive_loop(std::size_t link_index) {
  PeerLink& link = links_[link_index];
  try {
    while (true) {
      std::optional<Frame> frame = recv_frame(link.socket, counters_);
      if (!frame.has_value()) {
        std::unique_lock lock(rx_mutex_);
        if (!shutting_down_ && !failed_.load()) {
          lock.unlock();
          fail("rank " + std::to_string(link.rank) +
               " closed its link unexpectedly");
        }
        return;
      }
      if (frame->type == FrameType::kShutdown) return;  // orderly peer exit
      if (frame->type == FrameType::kBcast ||
          frame->type == FrameType::kBcastFwd) {
        handle_bcast(std::move(*frame));
        continue;
      }
      {
        std::lock_guard lock(rx_mutex_);
        parked_[frame->type].emplace_back(link.rank, std::move(*frame));
      }
      rx_cv_.notify_all();
    }
  } catch (const std::exception& e) {
    fail("link to rank " + std::to_string(link.rank) + ": " + e.what());
  }
}

}  // namespace bstc::net
