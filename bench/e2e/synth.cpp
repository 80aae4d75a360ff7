/// \file synth.cpp
/// synth-ranks2: the distributed executor as two real rank processes on
/// TCP loopback (a 1 x 2 grid), driven through net::run_launcher with
/// fork + run_worker children, the way tests/test_net_integration.cpp
/// does. The only workload whose A broadcast and C return cross sockets.
///
/// Each child reports what only it can see — its autotuner and B
/// generation counters — through a pipe before exiting; its peak RSS
/// comes back through wait4().

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "harness.hpp"
#include "net/launch.hpp"
#include "plan/builder.hpp"
#include "plan/stats.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"
#include "tile/autotune.hpp"

namespace bstc::e2e {
namespace {

constexpr int kRanks = 2;

net::NetProblemSpec synth_spec(const Options& opts) {
  net::NetProblemSpec s;
  if (opts.smoke) {
    s.m = 96;
    s.k = s.n = 480;
    s.tile_lo = 8;
    s.tile_hi = 24;
    s.gpu_mem = 6e5;
  } else {
    s.m = 1000;
    s.k = s.n = 4000;
    s.tile_lo = 32;
    s.tile_hi = 96;
    s.gpu_mem = 4e6;
  }
  s.density = 0.4;
  s.seed = derive_seed(opts.seed, 'S', 0);
  s.np = kRanks;
  s.p = 1;
  s.gpus_per_node = 1;
  return s;
}

/// Counters a child ships back through its pipe (deltas over run_worker).
struct ChildCounts {
  double tune_lookups = 0.0;
  double tune_benchmarks = 0.0;
  double tiles_generated = 0.0;
};

struct Child {
  pid_t pid = -1;
  int fd = -1;  ///< read end of the child's report pipe
  bool reaped = false;
  int status = 0;
  struct rusage usage {};
};

struct LaunchOutcome {
  net::LaunchReport report;
  double wall_s = 0.0;
  double max_child_rss_mb = 0.0;
  ChildCounts counts;  ///< summed over ranks
  std::string error;
};

void spawn(std::vector<Child>& children, const net::NetProblemSpec& spec,
           const std::string& trace_out, const std::string& host,
           std::uint16_t port) {
  int fds[2];
  if (::pipe(fds) != 0) throw Error("synth: pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw Error("synth: fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    const TuneStats t0 = Autotuner::instance().stats();
    const double g0 = registry_counter("bstc_b_tiles_generated_total");
    int rc = 3;
    try {
      net::WorkerOptions w;
      w.host = host;
      w.port = port;
      w.spec = spec;
      w.trace_out = trace_out;
      rc = net::run_worker(w);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "synth-ranks2 worker: %s\n", e.what());
    }
    const TuneStats t1 = Autotuner::instance().stats();
    const ChildCounts c{
        static_cast<double>(t1.lookups - t0.lookups),
        static_cast<double>(t1.benchmarks - t0.benchmarks),
        registry_counter("bstc_b_tiles_generated_total") - g0};
    if (::write(fds[1], &c, sizeof c) != static_cast<ssize_t>(sizeof c)) {
      rc = 3;
    }
    ::_exit(rc);
  }
  ::close(fds[1]);
  children.push_back(Child{pid, fds[0]});
}

void reap(Child& c, int flags) {
  if (!c.reaped && ::wait4(c.pid, &c.status, flags, &c.usage) == c.pid) {
    c.reaped = true;
  }
}

/// One launch: rendezvous, two forked ranks, bitwise verdict, exact byte
/// check. Every child is reaped before this returns.
LaunchOutcome launch(const net::NetProblemSpec& spec,
                     const std::string& trace_out) {
  LaunchOutcome out;
  std::vector<Child> children;
  net::LaunchOptions lo;
  lo.spec = spec;
  lo.trace_out = trace_out;
  Timer timer;
  try {
    out.report = net::run_launcher(
        lo,
        [&](const std::string& host, std::uint16_t port, int) {
          spawn(children, spec, trace_out, host, port);
        },
        [&] {
          int dead = 0;
          for (Child& c : children) {
            reap(c, WNOHANG);
            dead += c.reaped ? 1 : 0;
          }
          return dead;
        });
  } catch (const std::exception& e) {
    out.error = std::string("launch: ") + e.what();
  }
  out.wall_s = timer.elapsed_s();
  for (Child& c : children) {
    ChildCounts counts;
    const bool got =
        ::read(c.fd, &counts, sizeof counts) == static_cast<ssize_t>(sizeof counts);
    ::close(c.fd);
    reap(c, 0);
    out.counts.tune_lookups += counts.tune_lookups;
    out.counts.tune_benchmarks += counts.tune_benchmarks;
    out.counts.tiles_generated += counts.tiles_generated;
    out.max_child_rss_mb = std::max(
        out.max_child_rss_mb, static_cast<double>(c.usage.ru_maxrss) / 1024.0);
    const bool clean = got && WIFEXITED(c.status) && WEXITSTATUS(c.status) == 0;
    if (!clean && out.error.empty()) {
      out.error = "a rank process failed (pid " + std::to_string(c.pid) + ")";
    }
  }
  if (out.error.empty() && !out.report.ok) {
    out.error = out.report.verdict.bitwise_identical
                    ? "wire bytes differ from the plan's analytic volumes"
                    : "distributed C is not bitwise-identical";
  }
  return out;
}

/// The merged trace of one traced launch, cut to what the ledger covers:
/// task spans inside each rank's "engine" phase (rank 0's verification
/// replay runs later, in "gather"), comm spans up to the end of "gather"
/// (the trace gather itself is tracing overhead).
RoundTotals trace_round(const std::string& path, const LaunchOutcome& lo,
                        double flops) {
  const std::vector<TraceSpan> all = read_merged_trace(path);
  std::vector<double> engine_lo(kRanks, 0.0), engine_hi(kRanks, 0.0),
      gather_hi(kRanks, 0.0);
  for (const TraceSpan& s : all) {
    if (s.cat != "phase" || s.pid >= kRanks) continue;
    if (s.name == "engine") {
      engine_lo[s.pid] = s.start_s;
      engine_hi[s.pid] = s.end_s;
    } else if (s.name == "gather") {
      gather_hi[s.pid] = s.end_s;
    }
  }
  std::vector<TraceSpan> kept;
  for (const TraceSpan& s : all) {
    if (s.pid >= kRanks) continue;
    const bool in_engine =
        s.start_s >= engine_lo[s.pid] && s.end_s <= engine_hi[s.pid];
    if ((s.cat == "task" && in_engine) ||
        ((s.cat == "comm.tx" || s.cat == "comm.rx") &&
         s.start_s <= gather_hi[s.pid])) {
      kept.push_back(s);
    }
  }
  RoundTotals t;
  t.ops = 1;
  t.wall_s = lo.wall_s;
  t.rank_s = kRanks * lo.wall_s;
  t.flops = flops;
  for (int r = 0; r < kRanks; ++r) {
    const net::SummaryMsg& s = lo.report.summaries[static_cast<std::size_t>(r)];
    t.engine_s = std::max(t.engine_s, s.engine_seconds);
    t.lane_s += s.engine_seconds;  // one device lane per rank
    t.tasks += static_cast<double>(s.tasks_executed);
    // The engine phase is build_plan + contract_with_plan; the summary's
    // engine_seconds covers only the latter.
    t.inspect_s += (engine_hi[static_cast<std::size_t>(r)] -
                    engine_lo[static_cast<std::size_t>(r)] - s.engine_seconds) /
                   kRanks;
  }
  t.tune_lookups = lo.counts.tune_lookups;
  t.tune_benchmarks = lo.counts.tune_benchmarks;
  t.tiles_generated = lo.counts.tiles_generated;
  t.a_bytes = lo.report.total_a_wire_bytes;
  t.c_bytes = lo.report.total_c_wire_bytes;
  t.ledger = ledger_of(kept);
  t.ledger.spans = all.size();
  return t;
}

double engine_seconds(const net::LaunchReport& report) {
  double s = 0.0;
  for (const net::SummaryMsg& m : report.summaries) {
    s = std::max(s, m.engine_seconds);
  }
  return s;
}

}  // namespace

Report run_synth_ranks2(const Options& opts) {
  const net::NetProblemSpec spec = synth_spec(opts);
  Report report;
  // Set-up: one single-process contract() of the problem, which tunes
  // every kernel bucket it uses, then one warm-up launch. Forked ranks
  // inherit this process's tuned kernel table, as ranks sharing a tuning
  // cache would; otherwise every launch would mostly measure autotuning.
  for (int rep = 0; rep < opts.setup_reps; ++rep) {
    Autotuner::instance().clear();
    Timer timer;
    const net::BuiltProblem warm_prob = net::build_problem(spec);
    EngineConfig cfg;
    cfg.plan = warm_prob.plan_cfg;
    contract(warm_prob.a, warm_prob.b_shape, warm_prob.b_gen,
             warm_prob.c_shape, nullptr, warm_prob.machine, cfg);
    const LaunchOutcome warm = launch(spec, "");
    BSTC_REQUIRE(warm.error.empty(), "synth-ranks2 warm-up: " + warm.error);
    report.setup_s.push_back(timer.elapsed_s());
  }

  const net::BuiltProblem prob = net::build_problem(spec);
  const ExecutionPlan plan = build_plan(prob.a_shape, prob.b_shape,
                                        prob.c_shape, prob.machine,
                                        prob.plan_cfg);
  const double flops =
      compute_stats(plan, prob.a_shape, prob.b_shape, prob.c_shape)
          .total_flops;
  const std::string trace_path =
      opts.traced() ? opts.trace_dir + "/synth-ranks2.trace.json" : "";

  double wall_total = 0.0;
  reset_peak_rss();
  Timer loop;
  for (std::size_t i = 0; loop.elapsed_s() < opts.seconds || i < 4; ++i) {
    const bool traced = opts.round_traced(i);
    const LaunchOutcome lo = launch(spec, traced ? trace_path : "");
    report.child_rss_mb = std::max(report.child_rss_mb, lo.max_child_rss_mb);
    std::string failure = lo.error;
    if (traced) {
      if (failure.empty()) {
        RoundTotals t = trace_round(trace_path, lo, flops);
        failure = check_lanes(t.ledger);
        report.rounds.push_back(std::move(t));
      }
      report.op_s_traced.push_back(engine_seconds(lo.report));
    } else {
      report.op_s.push_back(engine_seconds(lo.report));
      wall_total += lo.wall_s;
    }
    report.record_op(failure);
  }

  report.ops_per_s = static_cast<double>(report.op_s.size()) / wall_total;
  report.gflops = flops / median(report.op_s) / 1e9;
  report.problem["m"] = static_cast<double>(spec.m);
  report.problem["n_eq_k"] = static_cast<double>(spec.n);
  report.problem["flops_per_op"] = flops;
  report.problem["ranks"] = kRanks;
  if (opts.traced()) {
    report.inspect_s = time_inspector(prob.a_shape, prob.b_shape,
                                      prob.c_shape, prob.machine,
                                      prob.plan_cfg);
    report.ceiling_gflops =
        kernel_ceiling_gflops(plan, prob.a_shape, prob.b_shape, prob.c_shape,
                              opts.ceiling_seconds());
  }
  return report;
}

}  // namespace bstc::e2e
