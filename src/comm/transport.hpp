#pragma once

/// \file transport.hpp
/// Message transport between ranks: the only way an A tile reaches a rank
/// other than its home.
///
/// The executor's home ranks run send tasks that push tile messages into
/// per-rank mailboxes, and consumers block until their tile has arrived —
/// the paper's background broadcast of A along grid rows (§3.2.4),
/// including its stall behaviour ("execution stalls until the required
/// tiles are received", §5.1).
///
/// Transport itself is the in-process implementation (mailboxes + byte
/// accounting); `send_multi` is virtual so net/NetTransport can carry the
/// same deliver/wait contract across real TCP sockets between rank
/// processes. The engine is written against this contract only — it runs
/// unmodified on either implementation.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "tile/tile.hpp"

namespace bstc {

/// Inbox of one rank: keyed tile messages with blocking receive.
class TileMailbox {
 public:
  /// Deliver a tile under `key`. A key may be delivered only once; a
  /// duplicate delivery throws bstc::Error (messages are never silently
  /// overwritten — a duplicate means the sender double-broadcast).
  void deliver(std::uint64_t key, Tile tile);

  /// Block until `key` has been delivered; the returned reference stays
  /// valid for the mailbox's lifetime (messages are never evicted,
  /// mirroring the host-side A cache of the algorithm). Throws
  /// bstc::Error if the mailbox is poisoned while waiting.
  const Tile& wait(std::uint64_t key);

  /// Poison the mailbox: every pending and future wait() for a key that
  /// has not been delivered throws bstc::Error carrying `reason`. Used by
  /// the network layer so a dead peer aborts the stalled consumers
  /// instead of hanging them forever.
  void poison(const std::string& reason);

  bool contains(std::uint64_t key) const;
  bool poisoned() const;
  std::size_t delivered_count() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  // unique_ptr so references stay stable across rehashing.
  std::unordered_map<std::uint64_t, std::unique_ptr<Tile>> messages_;
  std::string poison_reason_;
  bool poisoned_ = false;
};

/// All mailboxes plus traffic accounting. This base class *is* the
/// in-process transport; NetTransport overrides send_multi() to cross
/// process boundaries while keeping the same mailbox wait semantics.
class Transport {
 public:
  explicit Transport(int nodes);
  virtual ~Transport() = default;

  int nodes() const { return static_cast<int>(mailboxes_.size()); }
  TileMailbox& mailbox(int node);

  /// Broadcast one tile from `from` to every rank in `consumers` (which
  /// must not contain `from`); every consumer's mailbox receives `key`
  /// exactly once and its bytes are counted once per consumer. The
  /// in-process base copies nothing: each consumer receives a Tile::view
  /// of `tile`, so `tile` must outlive every reader of those mailbox
  /// entries (the engine broadcasts tiles of its caller's A, which
  /// outlives the call). NetTransport serializes once and routes the
  /// collective tree/ring fanout over its sockets instead.
  virtual void send_multi(int from, const std::vector<int>& consumers,
                          std::uint64_t key, const Tile& tile);

  /// Tile payload bytes moved between distinct ranks so far. An external
  /// transport outlives engine calls, so callers measure deltas.
  double payload_bytes() const;

 protected:
  /// Count `bytes` of payload moving from rank `from` to rank `to`; both
  /// must be ranks of this transport. A local move is not traffic.
  void count_bytes(int from, int to, std::size_t bytes);

 private:
  std::vector<TileMailbox> mailboxes_;
  mutable std::mutex bytes_mutex_;
  double payload_bytes_ = 0.0;  ///< guarded by bytes_mutex_
};

}  // namespace bstc
