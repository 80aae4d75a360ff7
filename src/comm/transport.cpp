#include "comm/transport.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace bstc {

void TileMailbox::deliver(std::uint64_t key, Tile tile) {
  {
    std::lock_guard lock(mutex_);
    const auto [it, fresh] =
        messages_.emplace(key, std::make_unique<Tile>(std::move(tile)));
    (void)it;
    BSTC_REQUIRE(fresh, "message key delivered twice");
  }
  cv_.notify_all();
}

const Tile& TileMailbox::wait(std::uint64_t key) {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return poisoned_ || messages_.count(key) > 0; });
  const auto it = messages_.find(key);
  if (it != messages_.end()) return *it->second;
  throw Error("mailbox poisoned while waiting for a tile: " + poison_reason_);
}

void TileMailbox::poison(const std::string& reason) {
  {
    std::lock_guard lock(mutex_);
    if (poisoned_) return;  // first failure wins
    poisoned_ = true;
    poison_reason_ = reason;
  }
  cv_.notify_all();
}

bool TileMailbox::contains(std::uint64_t key) const {
  std::lock_guard lock(mutex_);
  return messages_.count(key) > 0;
}

bool TileMailbox::poisoned() const {
  std::lock_guard lock(mutex_);
  return poisoned_;
}

std::size_t TileMailbox::delivered_count() const {
  std::lock_guard lock(mutex_);
  return messages_.size();
}

Transport::Transport(int nodes)
    : mailboxes_(static_cast<std::size_t>(std::max(nodes, 0))) {
  BSTC_REQUIRE(nodes > 0, "need at least one node");
}

TileMailbox& Transport::mailbox(int node) {
  BSTC_REQUIRE(node >= 0 && node < nodes(), "node out of range");
  return mailboxes_[static_cast<std::size_t>(node)];
}

void Transport::count_bytes(int from, int to, std::size_t bytes) {
  BSTC_REQUIRE(from >= 0 && from < nodes() && to >= 0 && to < nodes(),
               "node id out of range");
  if (from == to) return;
  std::lock_guard lock(bytes_mutex_);
  payload_bytes_ += static_cast<double>(bytes);
}

double Transport::payload_bytes() const {
  std::lock_guard lock(bytes_mutex_);
  return payload_bytes_;
}

void Transport::send_multi(int from, const std::vector<int>& consumers,
                           std::uint64_t key, const Tile& tile) {
  for (const int to : consumers) {
    BSTC_REQUIRE(to != from, "broadcast consumer list contains the root");
    count_bytes(from, to, tile.bytes());
    mailbox(to).deliver(key, Tile::view(tile.data(), tile.rows(), tile.cols()));
  }
}

}  // namespace bstc
