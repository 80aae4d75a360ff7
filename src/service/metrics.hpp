#pragma once

/// \file metrics.hpp
/// Service-level counters and timing aggregates for ContractionService,
/// plus a TextTable rendering for the CLI / benches.
///
/// ServiceMetrics holds only what the service owns. The other numbers an
/// exposition shows stay with their owners and are read at render time:
/// the autotuner's counts (Autotuner), wire and broadcast traffic
/// (net::WireCounters) and everything else (the obs registry).

#include <cstddef>
#include <string>

#include "service/plan_cache.hpp"
#include "support/table.hpp"

namespace bstc {

/// Snapshot of everything the service has done so far.
struct ServiceMetrics {
  // Admission.
  std::size_t submitted = 0;  ///< admitted: started at once or waited
  std::size_t rejected = 0;   ///< bounced with kQueueFull
  std::size_t completed = 0;  ///< finished with kOk
  std::size_t failed = 0;     ///< finished with an error status

  // Plan cache (mirrors PlanCacheStats at snapshot time).
  PlanCacheStats plan_cache;

  // Sessions.
  std::size_t sessions_opened = 0;
  std::size_t sessions_closed = 0;
  std::size_t iterations = 0;  ///< session iterate() executions
  std::size_t explains = 0;    ///< plan-explain requests served

  // Timing aggregates over completed work (seconds).
  double total_queue_wait_s = 0.0;
  double max_queue_wait_s = 0.0;
  double total_inspect_s = 0.0;  ///< inspector time actually spent (misses)
  double total_execute_s = 0.0;

  double mean_queue_wait_s() const {
    const std::size_t n = completed + failed;
    return n == 0 ? 0.0 : total_queue_wait_s / static_cast<double>(n);
  }
  double mean_execute_s() const {
    return completed == 0 ? 0.0
                          : total_execute_s / static_cast<double>(completed);
  }
};

/// Two-column (metric, value) table of a snapshot.
TextTable metrics_table(const ServiceMetrics& m);

/// Prometheus-style text exposition (`name{labels} value` lines): the
/// snapshot's service lines, then the process autotuner's counts, the
/// process WireCounters and the obs registry's counters, gauges and
/// histograms. Each series appears once. Suitable for a file scrape or a
/// /metrics endpoint.
///
/// When `rank >= 0` every line is labelled by obs::label_rank — the
/// per-rank sections of a distributed-serve metrics artifact.
std::string metrics_prometheus(const ServiceMetrics& m, int rank = -1);

}  // namespace bstc
