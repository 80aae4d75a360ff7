#include "net/counters.hpp"

#include <utility>

namespace bstc::net {

WireCounters& global_wire_counters() {
  static WireCounters counters;
  return counters;
}

std::string prometheus_text(const WireCounterSnapshot& s) {
  const std::pair<const char*, std::uint64_t> lines[] = {
      {"bstc_wire_frames_sent_total", s.frames_sent},
      {"bstc_wire_frames_received_total", s.frames_received},
      {"bstc_wire_bytes_sent_total", s.bytes_sent},
      {"bstc_wire_bytes_received_total", s.bytes_received},
      {"bstc_wire_connect_retries_total", s.connect_retries},
      {"bstc_wire_reconnects_total", s.reconnects},
      {"bstc_bcast_frames_total", s.bcast_frames_sent},
      {"bstc_bcast_fwd_frames_total", s.bcast_fwd_frames_sent},
      {"bstc_bcast_inter_bytes_total", s.a_payload_inter_bytes},
      {"bstc_bcast_intra_bytes_total", s.a_payload_intra_bytes},
  };
  std::string out;
  for (const auto& [name, value] : lines) {
    out += std::string(name) + " " + std::to_string(value) + "\n";
  }
  return out;
}

}  // namespace bstc::net
