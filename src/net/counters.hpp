#pragma once

/// \file counters.hpp
/// Wire-level traffic counters.
///
/// Every socket send/receive, connect retry and A-broadcast hop updates a
/// WireCounters instance; NetTransport threads its own. WireCounters is
/// the only owner of these numbers: the service exposition and the launch
/// summary both render a snapshot through prometheus_text() below. All
/// counters are monotonic and lock-free.

#include <atomic>
#include <cstdint>
#include <string>

namespace bstc::net {

/// Plain-value snapshot (copyable, comparable in tests).
struct WireCounterSnapshot {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;      ///< on-wire bytes incl. frame framing
  std::uint64_t bytes_received = 0;  ///< on-wire bytes incl. frame framing
  std::uint64_t connect_retries = 0; ///< failed attempts that were retried
  std::uint64_t reconnects = 0;      ///< connections needing >= 1 retry
  /// A-broadcast payload bytes this rank injected, split by hop class
  /// (sender-side accounting: the root and every relay count each hop
  /// they originate, so summing ranks counts every hop exactly once).
  std::uint64_t a_payload_inter_bytes = 0;
  std::uint64_t a_payload_intra_bytes = 0;
  std::uint64_t bcast_frames_sent = 0;      ///< kBcast roots
  std::uint64_t bcast_fwd_frames_sent = 0;  ///< kBcastFwd relays
};

/// Thread-safe monotonic counters.
class WireCounters {
 public:
  void add_frame_sent(std::uint64_t wire_bytes) {
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(wire_bytes, std::memory_order_relaxed);
  }
  void add_frame_received(std::uint64_t wire_bytes) {
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    bytes_received_.fetch_add(wire_bytes, std::memory_order_relaxed);
  }
  void add_connect_retry() {
    connect_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_reconnect() {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_a_payload(bool internode, std::uint64_t payload_bytes) {
    (internode ? a_payload_inter_bytes_ : a_payload_intra_bytes_)
        .fetch_add(payload_bytes, std::memory_order_relaxed);
  }
  void add_bcast_frame_sent(bool forwarded) {
    (forwarded ? bcast_fwd_frames_sent_ : bcast_frames_sent_)
        .fetch_add(1, std::memory_order_relaxed);
  }

  WireCounterSnapshot snapshot() const {
    WireCounterSnapshot s;
    s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
    s.frames_received = frames_received_.load(std::memory_order_relaxed);
    s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
    s.connect_retries = connect_retries_.load(std::memory_order_relaxed);
    s.reconnects = reconnects_.load(std::memory_order_relaxed);
    s.a_payload_inter_bytes =
        a_payload_inter_bytes_.load(std::memory_order_relaxed);
    s.a_payload_intra_bytes =
        a_payload_intra_bytes_.load(std::memory_order_relaxed);
    s.bcast_frames_sent = bcast_frames_sent_.load(std::memory_order_relaxed);
    s.bcast_fwd_frames_sent =
        bcast_fwd_frames_sent_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> connect_retries_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> a_payload_inter_bytes_{0};
  std::atomic<std::uint64_t> a_payload_intra_bytes_{0};
  std::atomic<std::uint64_t> bcast_frames_sent_{0};
  std::atomic<std::uint64_t> bcast_fwd_frames_sent_{0};
};

/// The process-wide counter instance. Every net component that is not
/// given an explicit WireCounters records here; the service exposition
/// renders it. (A worker process naturally reports its own traffic only.)
WireCounters& global_wire_counters();

/// Unlabelled Prometheus lines for all ten counts of a snapshot
/// (bstc_wire_*_total, bstc_bcast_*_total); zeros included.
std::string prometheus_text(const WireCounterSnapshot& s);

}  // namespace bstc::net
