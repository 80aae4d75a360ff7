/// \file abcd.cpp
/// The two chemistry workloads: the ABCD term R = T*V of a small alkane
/// (STO-3G, permutationally symmetric pairs) at a fine and a coarse
/// tiling. The fine tiling does about as many flops as the coarse one in
/// ~30x as many tasks, so scheduler and per-task costs dominate it while
/// the coarse one is bound by the kernel and by B generation.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "chem/abcd.hpp"
#include "chem/molecule.hpp"
#include "chem/orbitals.hpp"
#include "core/engine.hpp"
#include "harness.hpp"
#include "plan/builder.hpp"
#include "plan/stats.hpp"
#include "service/contraction_service.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"
#include "tile/autotune.hpp"
#include "tile/gemm.hpp"

namespace bstc::e2e {
namespace {

/// Geometry of one ABCD workload: alkane length, cluster counts (the
/// tiling granularity) and the per-device memory budget.
struct AbcdSize {
  int carbons = 10;
  std::size_t occ_clusters = 3;
  std::size_t ao_clusters = 10;
  double gpu_mem = 1e7;
};

constexpr int kDevices = 2;  // one node with two devices

struct AbcdInputs {
  AbcdProblem problem;
  MachineModel machine;
  TileGenerator v_gen;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> r_tiles;  ///< nonzero C
};

/// The chemistry (fixed k-means seed, so the shapes and flop count do not
/// move with --seed) plus the seeded V generator.
std::unique_ptr<AbcdInputs> build_inputs(const AbcdSize& size,
                                         std::uint64_t seed) {
  AbcdConfig cfg;
  cfg.occ_clusters = size.occ_clusters;
  cfg.ao_clusters = size.ao_clusters;
  cfg.symmetric_pairs = true;
  auto in = std::make_unique<AbcdInputs>();
  in->problem = build_abcd(
      OrbitalSystem::build(Molecule::alkane(size.carbons), BasisSet::kSto3g),
      cfg);
  in->machine = MachineModel::summit_gpus(kDevices);
  in->machine.node.gpu.memory_bytes = size.gpu_mem;
  in->v_gen = random_tile_generator(in->problem.v, derive_seed(seed, 'V', 0));
  const Shape& r = in->problem.r;
  for (std::uint32_t i = 0; i < r.tile_rows(); ++i) {
    for (std::uint32_t j = 0; j < r.tile_cols(); ++j) {
      if (r.nonzero(i, j)) in->r_tiles.emplace_back(i, j);
    }
  }
  return in;
}

/// A (= T) of sample `index`; index 0 is the warm-up.
BlockSparseMatrix build_a(const AbcdInputs& in, std::uint64_t seed,
                          std::size_t index) {
  Rng rng(derive_seed(seed, 'A', index));
  return BlockSparseMatrix::random(in.problem.t, rng);
}

/// Recompute two seeded-random C tiles with gemm_blocked, which shares
/// nothing with the packed, autotuned kernels the executor runs.
std::string check_c(const AbcdInputs& in, const BlockSparseMatrix& a,
                    const BlockSparseMatrix& c, std::uint64_t pick_seed) {
  const Shape& t = in.problem.t;
  const Shape& v = in.problem.v;
  Rng rng(pick_seed);
  for (int n = 0; n < 2; ++n) {
    const auto [i, j] = in.r_tiles[rng.uniform_index(in.r_tiles.size())];
    Tile ref(t.row_tiling().tile_extent(i), v.col_tiling().tile_extent(j));
    for (std::size_t k = 0; k < t.tile_cols(); ++k) {
      if (t.nonzero(i, k) && v.nonzero(k, j)) {
        gemm_blocked(1.0, a.tile(i, k), in.v_gen(k, j), 1.0, ref);
      }
    }
    Tile diff = c.tile(i, j);
    diff.axpy(-1.0, ref);
    const double err = diff.norm() / std::max(ref.norm(), 1e-300);
    if (!(err <= 1e-10)) {
      char msg[96];
      std::snprintf(msg, sizeof msg, "C(%u,%u) relative error %.3g", i, j,
                    err);
      return msg;
    }
  }
  return "";
}

/// What one timed call reports.
struct OpOutcome {
  BlockSparseMatrix c;
  double engine_s = 0.0;
  double queue_wait_s = 0.0;
  double inspect_s = 0.0;
  bool plan_lookup = false;
  bool plan_hit = false;
  std::size_t tasks = 0;
  std::size_t b_max_generations = 0;
  std::string error;
};

using OpFn = std::function<OpOutcome(const BlockSparseMatrix& a)>;

/// The loop both workloads share: build A (untimed), time one call, check
/// two C tiles (untimed); in trace mode every other call is traced and
/// its spans become one ledger round.
void sample_loop(const Options& opts, const AbcdInputs& in,
                 const ExecutionPlan& plan, const OpFn& op, Report& report) {
  obs::Registry& reg = obs::Registry::instance();
  const PlanStats stats =
      compute_stats(plan, in.problem.t, in.problem.v, in.problem.r);
  const double flops = stats.total_flops;
  reset_peak_rss();
  reg.clear();
  Timer loop;
  for (std::size_t i = 0; loop.elapsed_s() < opts.seconds || i < 4; ++i) {
    const BlockSparseMatrix a = build_a(in, opts.seed, i + 1);
    const bool traced = opts.round_traced(i);
    const TuneStats tune0 = Autotuner::instance().stats();
    reg.set_enabled(traced);
    Timer timer;
    OpOutcome out;
    {
      obs::ScopedSpan span(obs::Category::kPhase,
                           "bench.contract#" + std::to_string(i));
      out = op(a);
    }
    const double wall = timer.elapsed_s();
    reg.set_enabled(false);

    std::string failure = out.error;
    if (failure.empty()) {
      failure = check_c(in, a, out.c, derive_seed(opts.seed, 'C', i));
    }
    if (failure.empty() && out.b_max_generations > 1) {
      failure = "a B tile was generated more than once per node";
    }
    if (traced) {
      const TuneStats tune1 = Autotuner::instance().stats();
      RoundTotals t;
      t.ops = 1;
      t.wall_s = wall;
      t.engine_s = out.engine_s;
      t.lane_s = kDevices * out.engine_s;
      t.flops = flops;
      t.tasks = static_cast<double>(out.tasks);
      t.queue_wait_s = out.queue_wait_s;
      t.inspect_s = out.inspect_s;
      t.plan_lookups = out.plan_lookup ? 1.0 : 0.0;
      t.plan_hits = out.plan_hit ? 1.0 : 0.0;
      t.tune_lookups = static_cast<double>(tune1.lookups - tune0.lookups);
      t.tune_benchmarks =
          static_cast<double>(tune1.benchmarks - tune0.benchmarks);
      t.tiles_generated = registry_counter("bstc_b_tiles_generated_total");
      t.ledger = ledger_of(registry_spans());
      if (failure.empty()) failure = check_lanes(t.ledger);
      write_registry_trace(opts.trace_dir + "/" + opts.workload +
                           ".trace.json");
      report.rounds.push_back(std::move(t));
      report.op_s_traced.push_back(wall);
    } else {
      report.op_s.push_back(wall);
    }
    report.record_op(failure);
    reg.clear();
  }

  double total = 0.0;
  for (const double s : report.op_s) total += s;
  report.ops_per_s = static_cast<double>(report.op_s.size()) / total;
  report.gflops = flops / median(report.op_s) / 1e9;
  report.problem["m"] = static_cast<double>(in.problem.m());
  report.problem["n_eq_k"] = static_cast<double>(in.problem.n());
  report.problem["flops_per_op"] = flops;
  report.problem["blocks"] = static_cast<double>(stats.blocks);
  report.problem["gemm_tasks"] = static_cast<double>(stats.gemm_tasks);
  if (opts.traced()) {
    report.inspect_s = time_inspector(in.problem.t, in.problem.v,
                                      in.problem.r, in.machine, PlanConfig{});
    report.ceiling_gflops =
        kernel_ceiling_gflops(plan, in.problem.t, in.problem.v, in.problem.r,
                              opts.ceiling_seconds());
  }
}

}  // namespace

Report run_abcd_fine(const Options& opts) {
  const AbcdSize size = opts.smoke ? AbcdSize{6, 3, 6, 2e6}
                                   : AbcdSize{10, 3, 10, 1e7};
  Report report;
  std::unique_ptr<AbcdInputs> in;
  std::unique_ptr<ContractionService> service;
  std::uint64_t session = 0;
  // Set-up: chemistry, a service with an open session (the inspector),
  // and one warm-up iteration (autotuning and the session's one V
  // generation). The tuner is cleared so every repetition pays tuning.
  for (int rep = 0; rep < opts.setup_reps; ++rep) {
    service.reset();
    in.reset();
    Autotuner::instance().clear();
    Timer timer;
    in = build_inputs(size, opts.seed);
    service = std::make_unique<ContractionService>();
    SessionConfig cfg;
    cfg.a_shape = in->problem.t;
    cfg.b_shape = in->problem.v;
    cfg.c_shape = in->problem.r;
    cfg.b_generator = in->v_gen;
    cfg.machine = in->machine;
    BSTC_REQUIRE(service->open_session(cfg, session) == ServiceStatus::kOk,
                 "abcd-fine: open_session failed");
    ContractionResponse warm;
    BSTC_REQUIRE(service->iterate(session, build_a(*in, opts.seed, 0), nullptr,
                                  warm) == ServiceStatus::kOk,
                 "abcd-fine: warm-up iteration failed: " + warm.error);
    report.setup_s.push_back(timer.elapsed_s());
  }

  const ExecutionPlan plan = build_plan(in->problem.t, in->problem.v,
                                        in->problem.r, in->machine, {});
  sample_loop(opts, *in, plan,
              [&](const BlockSparseMatrix& a) {
                ContractionResponse resp;
                const ServiceStatus st =
                    service->iterate(session, a, nullptr, resp);
                OpOutcome o;
                if (st != ServiceStatus::kOk) {
                  o.error = std::string("iterate: ") +
                            service_status_name(st) + " " + resp.error;
                }
                o.c = std::move(resp.c);
                o.engine_s = resp.execute_s;
                o.queue_wait_s = resp.queue_wait_s;
                o.inspect_s = resp.inspect_s;
                o.plan_lookup = true;
                o.plan_hit = resp.plan_cache_hit;
                o.tasks = resp.tasks_executed;
                o.b_max_generations = resp.b_max_generations;
                return o;
              },
              report);
  return report;
}

Report run_abcd_coarse(const Options& opts) {
  const AbcdSize size = opts.smoke ? AbcdSize{6, 2, 3, 2e7}
                                   : AbcdSize{10, 2, 4, 2e8};
  Report report;
  std::unique_ptr<AbcdInputs> in;
  // Set-up: chemistry and one warm-up contract() (autotuning).
  for (int rep = 0; rep < opts.setup_reps; ++rep) {
    in.reset();
    Autotuner::instance().clear();
    Timer timer;
    in = build_inputs(size, opts.seed);
    contract(build_a(*in, opts.seed, 0), in->problem.v, in->v_gen,
             in->problem.r, nullptr, in->machine, EngineConfig{});
    report.setup_s.push_back(timer.elapsed_s());
  }

  const ExecutionPlan plan = build_plan(in->problem.t, in->problem.v,
                                        in->problem.r, in->machine, {});
  // Every call is one-shot, as in the paper: the inspector runs and each
  // node generates its V tiles afresh.
  sample_loop(opts, *in, plan,
              [&](const BlockSparseMatrix& a) {
                OpOutcome o;
                try {
                  Timer timer;
                  EngineResult res =
                      contract(a, in->problem.v, in->v_gen, in->problem.r,
                               nullptr, in->machine, EngineConfig{});
                  o.inspect_s = timer.elapsed_s() - res.wall_seconds;
                  o.engine_s = res.wall_seconds;
                  o.tasks = res.tasks_executed;
                  o.b_max_generations = res.b_max_generations;
                  o.c = std::move(res.c);
                } catch (const std::exception& e) {
                  o.error = std::string("contract: ") + e.what();
                }
                return o;
              },
              report);
  return report;
}

}  // namespace bstc::e2e
