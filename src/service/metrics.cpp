#include "service/metrics.hpp"

#include <cstdio>
#include <utility>

#include "net/counters.hpp"
#include "obs/obs.hpp"
#include "support/format.hpp"
#include "tile/autotune.hpp"

namespace bstc {

TextTable metrics_table(const ServiceMetrics& m) {
  TextTable table({"metric", "value"});
  const auto count = [&](const char* name, double v) {
    table.add_row({name, fmt_group(static_cast<std::int64_t>(v))});
  };
  const auto duration = [&](const char* name, double v) {
    table.add_row({name, fmt_duration(v)});
  };
  count("submitted", m.submitted);
  count("rejected", m.rejected);
  count("completed", m.completed);
  count("failed", m.failed);
  count("plan cache hits", m.plan_cache.hits);
  count("plan cache misses", m.plan_cache.misses);
  count("plan cache evictions", m.plan_cache.evictions);
  count("plan builds failed", m.plan_cache.failed_builds);
  count("plans cached", m.plan_cache.size);
  count("sessions opened", m.sessions_opened);
  count("sessions closed", m.sessions_closed);
  count("session iterations", m.iterations);
  count("plan explains", m.explains);
  // Numbers other layers own, read back from the exposition by series.
  static constexpr std::pair<const char*, const char*> kOwned[] = {
      {"wire frames sent", "bstc_wire_frames_sent_total"},
      {"wire frames received", "bstc_wire_frames_received_total"},
      {"wire bytes sent", "bstc_wire_bytes_sent_total"},
      {"wire bytes received", "bstc_wire_bytes_received_total"},
      {"wire connect retries", "bstc_wire_connect_retries_total"},
      {"wire reconnects", "bstc_wire_reconnects_total"},
      {"B tiles generated", "bstc_b_tiles_generated_total"},
      {"shm store builds", "bstc_shm_store_builds_total"},
      {"shm attaches", "bstc_shm_attaches_total"},
      {"shm swaps", "bstc_shm_swaps_total"},
      {"shm resident bytes", "bstc_shm_resident_bytes"},
      {"shm generation", "bstc_shm_generation"},
      {"expr programs", "bstc_expr_programs_total"},
      {"expr nodes", "bstc_expr_nodes_total"},
      {"expr intermediates built", "bstc_expr_intermediates_built_total"},
      {"expr intermediate reuse", "bstc_expr_intermediate_reuse_total"},
      {"expr intermediates released",
       "bstc_expr_intermediates_released_total"},
      {"tune lookups", "bstc_tune_lookups_total"},
      {"tune hits", "bstc_tune_hits_total"},
      {"tune benchmarks", "bstc_tune_benchmarks_total"},
  };
  const std::string text = metrics_prometheus(m);
  for (const auto& [name, series] : kOwned) {
    count(name, obs::series_value(text, series));
  }
  for (const auto& [kernel, buckets] :
       Autotuner::instance().active_kernels()) {
    table.add_row({"tune buckets (" + kernel + ")",
                   fmt_group(static_cast<std::int64_t>(buckets))});
  }
  duration("mean queue wait", m.mean_queue_wait_s());
  duration("max queue wait", m.max_queue_wait_s);
  duration("total inspect", m.total_inspect_s);
  duration("total execute", m.total_execute_s);
  duration("mean execute", m.mean_execute_s());
  return table;
}

std::string metrics_prometheus(const ServiceMetrics& m, int rank) {
  std::string out;
  const auto line = [&out](const char* name, double v) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s %.9g\n", name, v);
    out += buf;
  };
  line("bstc_service_submitted_total", static_cast<double>(m.submitted));
  line("bstc_service_rejected_total", static_cast<double>(m.rejected));
  line("bstc_service_completed_total", static_cast<double>(m.completed));
  line("bstc_service_failed_total", static_cast<double>(m.failed));
  line("bstc_plan_cache_hits_total", static_cast<double>(m.plan_cache.hits));
  line("bstc_plan_cache_misses_total",
       static_cast<double>(m.plan_cache.misses));
  line("bstc_plan_cache_evictions_total",
       static_cast<double>(m.plan_cache.evictions));
  line("bstc_plan_cache_failed_builds_total",
       static_cast<double>(m.plan_cache.failed_builds));
  line("bstc_plan_cache_size", static_cast<double>(m.plan_cache.size));
  line("bstc_sessions_opened_total", static_cast<double>(m.sessions_opened));
  line("bstc_sessions_closed_total", static_cast<double>(m.sessions_closed));
  line("bstc_session_iterations_total", static_cast<double>(m.iterations));
  line("bstc_plan_explains_total", static_cast<double>(m.explains));
  line("bstc_service_queue_wait_seconds_total", m.total_queue_wait_s);
  line("bstc_service_queue_wait_seconds_max", m.max_queue_wait_s);
  line("bstc_service_inspect_seconds_total", m.total_inspect_s);
  line("bstc_service_execute_seconds_total", m.total_execute_s);
  // The micro-kernel autotuner owns its counts; the active-kernel gauge
  // shows which geometry each rank converged on.
  const Autotuner& tuner = Autotuner::instance();
  const TuneStats tune = tuner.stats();
  line("bstc_tune_lookups_total", static_cast<double>(tune.lookups));
  line("bstc_tune_hits_total", static_cast<double>(tune.hits));
  line("bstc_tune_benchmarks_total", static_cast<double>(tune.benchmarks));
  for (const auto& [kernel, buckets] : tuner.active_kernels()) {
    out += "bstc_tune_active_buckets{kernel=\"" + kernel + "\"} " +
           std::to_string(buckets) + "\n";
  }
  out += net::prometheus_text(net::global_wire_counters().snapshot());
  out += obs::prometheus_text(obs::Registry::instance());
  return rank >= 0 ? obs::label_rank(out, rank) : out;
}

}  // namespace bstc
