#pragma once

/// \file harness.hpp
/// Shared machinery of bench_e2e: run options, the per-op ledger built
/// from trace spans, and the report every workload fills.
///
/// Everything here observes the library from outside: it reads spans and
/// counters the library already emits (obs::Registry, Autotuner stats,
/// ServeOutcome / EngineResult / LaunchReport fields) and times calls into
/// public entry points. Nothing under src/ knows this benchmark exists.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "obs/obs.hpp"
#include "plan/plan.hpp"
#include "shape/shape.hpp"

namespace bstc::e2e {

/// One invocation's settings (see main.cpp for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< length of the timed loop
  std::string trace_dir;   ///< non-empty: traced run, traces land here
  bool smoke = false;      ///< toy problem sizes (the smoke test)
  int setup_reps = 3;      ///< set-up repetitions; setup_s is their median

  bool traced() const { return !trace_dir.empty(); }
  /// How long the same-run kernel ceiling is timed.
  double ceiling_seconds() const { return smoke ? 0.05 : 1.0; }
  /// Trace mode alternates untraced and traced rounds so the tracing
  /// overhead is measured on interleaved samples of the same run.
  bool round_traced(std::size_t round) const {
    return traced() && round % 2 == 1;
  }
};

/// A timeline interval, from the in-process registry or from a merged
/// multi-rank trace file.
struct TraceSpan {
  std::uint32_t pid = 0;   ///< rank (0 in-process)
  std::uint32_t lane = 0;  ///< scheduler queue id for task spans
  std::string cat;         ///< obs category name ("task", "comm.tx", ...)
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Spans recorded in this process so far, converted.
std::vector<TraceSpan> registry_spans();

/// Parse a merged trace written by obs::write_merged_trace (one event per
/// line). Throws bstc::Error when the file cannot be read.
std::vector<TraceSpan> read_merged_trace(const std::string& path);

/// Lane-seconds by executor task kind, summed over a set of task spans.
/// Device lanes run load / chunkload / gemmbatch / chunkunload / store;
/// CPU lanes run gen (B generation) and asend (A broadcast roots).
struct Ledger {
  double gemm_s = 0.0;        ///< gemmbatch(: the tile kernel
  double stage_a_s = 0.0;     ///< chunkload(: A staging incl. broadcast waits
  double stage_b_s = 0.0;     ///< load(: B staging + C tile allocation
  double c_flush_s = 0.0;     ///< store(: C flush to the host store
  double unload_s = 0.0;      ///< chunkunload(: A eviction
  double gen_s = 0.0;         ///< gen(: B generation / acquisition
  double asend_s = 0.0;       ///< asend(: A broadcast sends
  double tx_s = 0.0;          ///< comm.tx spans
  double rx_s = 0.0;          ///< comm.rx spans
  std::size_t frames_sent = 0;  ///< comm.tx span count
  std::size_t spans = 0;        ///< every span seen
  /// Positive gaps between consecutive task spans of one device lane.
  std::vector<double> gaps_s;
  /// Worst device lane of: |sum(task durations) + sum(gaps) - (last end -
  /// first start)| / (last end - first start). Zero unless spans overlap
  /// on a lane, which a single-threaded queue never does.
  double worst_lane_error = 0.0;

  double device_busy_s() const {
    return gemm_s + stage_a_s + stage_b_s + c_flush_s + unload_s;
  }
};

/// Build the ledger of `spans`.
Ledger ledger_of(const std::vector<TraceSpan>& spans);

/// The ledger check: "" when every device lane's task spans and gaps add
/// up to the lane's run span within 1%, else the failure to record.
std::string check_lanes(const Ledger& ledger);

/// What one traced round contributes to the per-layer metrics: totals
/// over the round's ops, turned into per-op values by layer_metrics().
struct RoundTotals {
  std::size_t ops = 0;
  double wall_s = 0.0;      ///< sum of op wall times
  double engine_s = 0.0;    ///< sum of per-op executor wall times
  double lane_s = 0.0;      ///< device-lane capacity: lanes x executor wall
  double rank_s = 0.0;      ///< rank-seconds the comm shares are taken over
  double flops = 0.0;
  double tasks = 0.0;
  double queue_wait_s = 0.0;
  double inspect_s = 0.0;   ///< inspector time inside ops
  double plan_lookups = 0.0;
  double plan_hits = 0.0;
  double rejected = 0.0;
  double tune_lookups = 0.0;
  double tune_benchmarks = 0.0;
  double tiles_generated = 0.0;
  double a_bytes = 0.0;
  double c_bytes = 0.0;
  Ledger ledger;
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  ///< samples behind the value
};

/// Everything a workload hands back to main().
struct Report {
  std::vector<double> setup_s;      ///< one per set-up repetition
  std::vector<double> op_s;         ///< untraced op wall times
  std::vector<double> op_s_traced;  ///< traced op wall times (trace mode)
  double ops_per_s = 0.0;           ///< workload-defined throughput
  double gflops = 0.0;              ///< workload-defined compute rate
  double child_rss_mb = 0.0;        ///< largest child process RSS (ranks)
  std::vector<RoundTotals> rounds;  ///< traced rounds (trace mode)
  double inspect_s = 0.0;           ///< one build_plan on the problem
  double ceiling_gflops = 0.0;      ///< same-run single-thread kernel rate
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;      ///< first few gate messages
  std::map<std::string, double> problem;  ///< descriptive facts (results JSON)

  /// Count one attempted op; `failure` empty means every gate passed.
  void record_op(const std::string& failure);
};

/// Independent seed for stream `stream`, item `index` of a run seeded
/// with `seed` (SplitMix64 finalizer over the three).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

/// Median and linear-interpolated percentile (q in [0, 1]); 0 when empty.
double median(std::vector<double> v);
double percentile(std::vector<double> v, double q);

/// Process peak RSS (VmHWM) in MiB.
double peak_rss_mb();

/// Return free heap pages to the kernel and restart the VmHWM count, so
/// peak_rss_mb() covers the timed loop only. Without it the peak would
/// depend on which malloc arenas the torn-down set-up repetitions left
/// holding freed memory, and jump between runs in 64 MiB arena steps.
void reset_peak_rss();

/// Value of a registry counter (0 when absent).
double registry_counter(const char* name);

/// Seconds of one build_plan on (a, b, c): the median over repeated
/// builds (at least 3, and at least 0.1 s of them).
double time_inspector(const Shape& a, const Shape& b, const Shape& c,
                      const MachineModel& machine, const PlanConfig& cfg);

/// Single-thread gemm_batch_with rate (Gflop/s) at the plan's most
/// frequent batch shape, with the kernel the autotuner picks for it,
/// timed for at least `min_seconds`.
double kernel_ceiling_gflops(const ExecutionPlan& plan, const Shape& a,
                             const Shape& b, const Shape& c,
                             double min_seconds);

/// Write the spans recorded in this process as a one-rank merged trace.
void write_registry_trace(const std::string& path);

/// The per-layer metrics of a traced run.
std::vector<Metric> layer_metrics(const Report& report);

/// The four workloads.
Report run_abcd_fine(const Options& opts);
Report run_abcd_coarse(const Options& opts);
Report run_synth_ranks2(const Options& opts);
Report run_serve_mix(const Options& opts);

}  // namespace bstc::e2e
