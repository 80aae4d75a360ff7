/// \file bstc_cli.cpp
/// Command-line front-end to the library — run any contraction scenario
/// without writing code.
///
/// Subcommands:
///   simulate     synthetic block-sparse product on a simulated machine
///   abcd         the C65H132-style chemistry workload (any chain length)
///   xyz          a molecule from an .xyz file
///   plan         build a plan and print its structure/statistics
///   execute      run the REAL engine on a small synthetic problem + verify
///   serve-batch  drive the ContractionService with a scripted request mix
///   program-run  iterate a named contraction program (multi-term DAG)
///   store-build  materialize a spec's B tiles into a shared-memory store
///   store-inspect  attach a tile store read-only and print its layout
///   launch       run the distributed executor as --np real OS processes
///   worker       join a launch rendezvous (spawned by `launch`)
///   help         `bstc_cli help <cmd>` or `bstc_cli <cmd> --help`
///
/// Examples:
///   bstc_cli simulate --m 48000 --n 192000 --density 0.5 --nodes 16 --p 2
///   bstc_cli abcd --carbons 65 --tiling v2 --gpus 108
///   bstc_cli plan --m 24000 --n 96000 --density 0.25 --nodes 8
///   bstc_cli execute --m 96 --n 480 --density 0.4 --nodes 2 --gpus 2
///   bstc_cli serve-batch --clients 4 --workers 2 --script requests.txt
///   bstc_cli program-run --program ccsd-doubles --iters 3 --ranks 4
///   bstc_cli launch --np 4 --p 2 --m 96 --k 480 --n 480
///
/// Each subcommand declares its flags in one table (kCommands). A flag
/// not in the command's table is rejected with a nearest-known-flag
/// suggestion (Args::reject_unknown) before the command runs, so a typo
/// fails loudly instead of silently running with the default.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "baseline/cpu_reference.hpp"
#include "baseline/dbcsr.hpp"
#include "bsm/block_sparse_matrix.hpp"
#include "chem/abcd.hpp"
#include "chem/abcd3d.hpp"
#include "chem/molecule.hpp"
#include "chem/orbitals.hpp"
#include "core/engine.hpp"
#include "net/counters.hpp"
#include "net/launch.hpp"
#include "net/serve.hpp"
#include "obs/obs.hpp"
#include "obs/trace_merge.hpp"
#include "plan/builder.hpp"
#include "plan/explain.hpp"
#include "plan/serialize.hpp"
#include "plan/stats.hpp"
#include "service/contraction_service.hpp"
#include "service/fingerprint.hpp"
#include "service/local_service.hpp"
#include "shape/shape_algebra.hpp"
#include "shm/tile_store.hpp"
#include "shm/watchdog.hpp"
#include "sim/simulator.hpp"
#include "support/args.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

using namespace bstc;

namespace {

// ---------------------------------------------------------------------------
// Shared option readers. The flags each one reads are listed in the flag
// groups beside the command table below.

struct SynthProblem {
  Tiling mt, kt, nt;
  Shape a, b, c;
};

SynthProblem make_problem(const Args& args) {
  const Index m = args.get_int("m", 48000);
  const Index n = args.get_int("n", 192000);
  const Index k = args.get_int("k", n);
  const double density = args.get_double("density", 0.5);
  const Index tile_lo = args.get_int("tile-lo", 512);
  const Index tile_hi = args.get_int("tile-hi", 2048);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)));
  SynthProblem p;
  p.mt = Tiling::random_uniform(m, tile_lo, tile_hi, rng);
  p.kt = Tiling::random_uniform(k, tile_lo, tile_hi, rng);
  p.nt = Tiling::random_uniform(n, tile_lo, tile_hi, rng);
  p.a = Shape::random(p.mt, p.kt, density, rng);
  p.b = Shape::random(p.kt, p.nt, density, rng);
  p.c = contract_shape(p.a, p.b);
  return p;
}

MachineModel make_machine(const Args& args) {
  MachineModel machine =
      args.has("gpus")
          ? MachineModel::summit_gpus(
                static_cast<int>(args.get_int("gpus", 6)))
          : MachineModel::summit(static_cast<int>(args.get_int("nodes", 16)));
  machine.node.gpu.memory_bytes =
      args.get_double("gpu-mem", machine.node.gpu.memory_bytes);
  return machine;
}

PlanConfig make_plan_config(const Args& args) {
  PlanConfig cfg;
  cfg.p = static_cast<int>(args.get_int("p", 1));
  cfg.prefetch_depth = static_cast<int>(args.get_int("prefetch", 2));
  const std::string assignment = args.get("assignment", "mirrored");
  if (assignment == "cyclic") {
    cfg.assignment = AssignmentPolicy::kCyclic;
  } else if (assignment == "lpt") {
    cfg.assignment = AssignmentPolicy::kLpt;
  } else {
    BSTC_REQUIRE(assignment == "mirrored",
                 "--assignment must be mirrored|cyclic|lpt");
  }
  const std::string packing = args.get("packing", "worst-fit");
  if (packing == "first-fit") {
    cfg.packing = PackingPolicy::kFirstFit;
  } else if (packing == "best-fit") {
    cfg.packing = PackingPolicy::kBestFit;
  } else {
    BSTC_REQUIRE(packing == "worst-fit",
                 "--packing must be worst-fit|first-fit|best-fit");
  }
  return cfg;
}

void report_sim(const SimResult& sim, const MachineModel& machine) {
  std::printf("flops          %s\n", fmt_flop_count(sim.total_flops).c_str());
  std::printf("time           %s\n", fmt_duration(sim.makespan_s).c_str());
  std::printf("performance    %s (%s of aggregate GEMM peak)\n",
              fmt_flops(sim.performance).c_str(),
              fmt_percent(sim.performance / machine.aggregate_gpu_peak())
                  .c_str());
  std::printf("per GPU        %s\n", fmt_flops(sim.per_gpu_performance).c_str());
  std::printf("inspection     %s\n", fmt_duration(sim.inspect_s).c_str());
}

int cmd_simulate(const Args& args) {
  const SynthProblem p = make_problem(args);
  const MachineModel machine = make_machine(args);
  const PlanConfig cfg = make_plan_config(args);
  std::printf("A %lld x %lld (%s), B %lld x %lld (%s) on %d nodes / %d GPUs\n",
              static_cast<long long>(p.mt.extent()),
              static_cast<long long>(p.kt.extent()),
              fmt_percent(p.a.density()).c_str(),
              static_cast<long long>(p.kt.extent()),
              static_cast<long long>(p.nt.extent()),
              fmt_percent(p.b.density()).c_str(), machine.nodes,
              machine.total_gpus());
  const SimResult sim = simulate_contraction(p.a, p.b, p.c, machine, cfg);
  report_sim(sim, machine);

  if (args.get_bool("baselines", false)) {
    const DbcsrResult dbcsr = simulate_dbcsr_best(p.a, p.b, p.c, machine);
    std::printf("DBCSR-style    %s\n",
                dbcsr.feasible ? fmt_flops(dbcsr.performance).c_str()
                               : dbcsr.failure.c_str());
    const CpuRefResult cpu = simulate_cpu_reference(p.a, p.b, p.c, machine);
    std::printf("CPU-only       %s (%s)\n",
                fmt_duration(cpu.time_s).c_str(),
                fmt_flops(cpu.performance).c_str());
  }
  return 0;
}

int cmd_abcd(const Args& args) {
  const int carbons = static_cast<int>(args.get_int("carbons", 65));
  const std::string tiling = args.get("tiling", "v1");
  AbcdConfig cfg = tiling == "v2"   ? AbcdConfig::tiling_v2()
                   : tiling == "v3" ? AbcdConfig::tiling_v3()
                                    : AbcdConfig::tiling_v1();
  BSTC_REQUIRE(tiling == "v1" || tiling == "v2" || tiling == "v3",
               "--tiling must be v1|v2|v3");
  const Molecule molecule = Molecule::alkane(carbons);
  const OrbitalSystem system = OrbitalSystem::build(molecule);
  // Scale cluster counts with the molecule.
  cfg.ao_clusters = std::max<std::size_t>(
      4, cfg.ao_clusters * static_cast<std::size_t>(carbons) / 65);
  cfg.occ_clusters = std::max<std::size_t>(
      2, cfg.occ_clusters * static_cast<std::size_t>(carbons) / 65);
  const AbcdProblem problem = build_abcd(system, cfg);
  const AbcdTraits traits = abcd_traits(problem);
  std::printf("%s (%s): M x N x K = %s x %s x %s\n",
              molecule.formula().c_str(), tiling.c_str(),
              fmt_group(traits.m).c_str(), fmt_group(traits.n).c_str(),
              fmt_group(traits.k).c_str());
  std::printf("densities      T %s, V %s, R %s; %s (%zu tile GEMMs)\n",
              fmt_percent(traits.density_t).c_str(),
              fmt_percent(traits.density_v).c_str(),
              fmt_percent(traits.density_r).c_str(),
              fmt_flop_count(traits.flops).c_str(), traits.gemm_tasks);
  const MachineModel machine = make_machine(args);
  const SimResult sim = simulate_contraction(problem.t, problem.v, problem.r,
                                             machine, make_plan_config(args));
  report_sim(sim, machine);
  return 0;
}

int cmd_xyz(const Args& args) {
  BSTC_REQUIRE(args.positional().size() >= 2,
               "usage: bstc_cli xyz <file.xyz> [options]");
  const Molecule molecule = Molecule::load_xyz(args.positional()[1]);
  const std::string basis_name = args.get("basis", "def2-svp");
  const BasisSet basis = basis_name == "sto-3g"     ? BasisSet::kSto3g
                         : basis_name == "def2-tzvp" ? BasisSet::kDef2Tzvp
                                                     : BasisSet::kDef2Svp;
  const OrbitalSystem3 system = OrbitalSystem3::build(molecule, basis);
  AbcdConfig cfg;
  cfg.ao_clusters = static_cast<std::size_t>(
      args.get_int("ao-clusters",
                   std::max<std::int64_t>(4, molecule.count(Element::kC))));
  cfg.occ_clusters = static_cast<std::size_t>(
      args.get_int("occ-clusters",
                   std::max<std::int64_t>(2, static_cast<std::int64_t>(
                                                 cfg.ao_clusters / 8))));
  const AbcdProblem3 problem = build_abcd_3d(system, cfg);
  const AbcdTraits traits = abcd_traits(problem);
  std::printf("%s (%s): U=%zu O=%zu, M x N x K = %s x %s x %s\n",
              molecule.formula().c_str(), basis_name.c_str(), system.num_ao(),
              system.num_occ(), fmt_group(traits.m).c_str(),
              fmt_group(traits.n).c_str(), fmt_group(traits.k).c_str());
  std::printf("densities      T %s, V %s, R %s; %s\n",
              fmt_percent(traits.density_t).c_str(),
              fmt_percent(traits.density_v).c_str(),
              fmt_percent(traits.density_r).c_str(),
              fmt_flop_count(traits.flops).c_str());
  const MachineModel machine = make_machine(args);
  const SimResult sim = simulate_contraction(problem.t, problem.v, problem.r,
                                             machine, make_plan_config(args));
  report_sim(sim, machine);
  return 0;
}

int cmd_plan(const Args& args) {
  const SynthProblem p = make_problem(args);
  const MachineModel machine = make_machine(args);
  const ExecutionPlan plan =
      build_plan(p.a, p.b, p.c, machine, make_plan_config(args));
  const PlanStats st = compute_stats(plan, p.a, p.b, p.c);
  const auto violations = validate_plan(plan, p.a, p.b, p.c);
  std::printf("grid           %d x %d\n", plan.grid.p, plan.grid.q);
  std::printf("blocks         %zu (%zu oversized), chunks %zu\n", st.blocks,
              st.oversized_blocks, st.chunks);
  std::printf("GEMM tasks     %zu (%s)\n", st.gemm_tasks,
              fmt_flop_count(st.total_flops).c_str());
  std::printf("A h2d          %s (network %s)\n",
              fmt_bytes(st.a_h2d_bytes).c_str(),
              fmt_bytes(st.a_network_bytes).c_str());
  std::printf("B generated    %s, C staged %s\n",
              fmt_bytes(st.b_generated_bytes).c_str(),
              fmt_bytes(st.c_h2d_bytes).c_str());
  std::printf("GPU imbalance  %.3f\n", st.gpu_imbalance);
  std::printf("validation     %s\n",
              violations.empty()
                  ? "ok"
                  : (std::to_string(violations.size()) + " violations")
                        .c_str());
  for (const auto& v : violations) std::printf("  ! %s\n", v.c_str());
  if (args.get_bool("explain", false)) {
    std::printf("\n%s", explain_plan(plan, p.a, p.b, p.c).c_str());
  }
  const std::string save = args.get("save", "");
  if (!save.empty()) {
    save_plan(plan, save);
    std::printf("plan saved to %s\n", save.c_str());
  }
  return violations.empty() ? 0 : 1;
}

/// Single-process trace: this process is the only "rank" in the merged
/// JSON, with its wire totals (zero unless a transport ran) attached.
void write_local_trace(const std::string& path) {
  obs::Registry& reg = obs::Registry::instance();
  obs::RankTrace t;
  t.rank = 0;
  net::WireCounterSnapshot wc;
  t.spans =
      reg.spans_with([&] { wc = net::global_wire_counters().snapshot(); });
  t.lane_names = reg.lane_names();
  t.wire_frames_sent = wc.frames_sent;
  t.wire_frames_received = wc.frames_received;
  t.wire_bytes_sent = wc.bytes_sent;
  t.wire_bytes_received = wc.bytes_received;
  obs::write_merged_trace(path, {t});
  std::printf("trace          %s\n", path.c_str());
}

int cmd_execute(const Args& args) {
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) obs::Registry::instance().set_enabled(true);
  const SynthProblem p = make_problem(args);
  const MachineModel machine = make_machine(args);
  EngineConfig cfg;
  cfg.plan = make_plan_config(args);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)) + 1);
  const BlockSparseMatrix a = BlockSparseMatrix::random(p.a, rng);
  const TileGenerator b_gen = random_tile_generator(p.b, 1234);
  const EngineResult result =
      contract(a, p.b, b_gen, p.c, nullptr, machine, cfg);
  std::printf("tasks          %zu in %s\n", result.tasks_executed,
              fmt_duration(result.wall_seconds).c_str());
  std::printf("B generations  at most %zu per node\n",
              result.b_max_generations);
  std::printf("A broadcast    %s, C return %s\n",
              fmt_bytes(result.a_network_bytes).c_str(),
              fmt_bytes(result.c_network_bytes).c_str());
  if (!trace_out.empty()) write_local_trace(trace_out);

  if (args.get_bool("verify", true)) {
    BlockSparseMatrix b_full(p.b);
    for (std::size_t r = 0; r < p.b.tile_rows(); ++r) {
      for (std::size_t c = 0; c < p.b.tile_cols(); ++c) {
        if (p.b.nonzero(r, c)) b_full.tile(r, c) = b_gen(r, c);
      }
    }
    BlockSparseMatrix expected(p.c);
    multiply_reference(a, b_full, expected);
    const double err = result.c.max_abs_diff(expected);
    std::printf("verification   max|C - C_ref| = %.3e -> %s\n", err,
                err < 1e-10 ? "OK" : "FAILED");
    return err < 1e-10 ? 0 : 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// launch / worker: the multi-process distributed executor (src/net).

net::NetProblemSpec make_net_spec(const Args& args) {
  net::NetProblemSpec spec;
  spec.m = args.get_int("m", spec.m);
  spec.k = args.get_int("k", spec.k);
  spec.n = args.get_int("n", spec.n);
  spec.density = args.get_double("density", spec.density);
  spec.tile_lo = args.get_int("tile-lo", spec.tile_lo);
  spec.tile_hi = args.get_int("tile-hi", spec.tile_hi);
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  spec.np = static_cast<int>(args.get_int("np", spec.np));
  spec.p = static_cast<int>(args.get_int("p", spec.p));
  spec.gpus_per_node =
      static_cast<int>(args.get_int("gpus-per-node", spec.gpus_per_node));
  spec.gpu_mem = args.get_double("gpu-mem", spec.gpu_mem);
  return spec;
}

int cmd_worker(const Args& args) {
  net::WorkerOptions opts;
  opts.host = args.get("host", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  BSTC_REQUIRE(opts.port != 0, "worker: --port is required");
  opts.spec = make_net_spec(args);
  opts.trace_out = args.get("trace-out", "");
  opts.node_id = static_cast<int>(args.get_int("node-id", 0));
  return net::run_worker(opts);
}

/// --node-map "0,1,0,1" -> the node id of each spawned worker (by spawn
/// index). --ranks-per-node N fills the map round-robin-free: the first
/// N workers on node 0, the next N on node 1, ...
std::vector<int> parse_node_map(const Args& args, int np) {
  std::vector<int> node_of(static_cast<std::size_t>(np), 0);
  const std::string map = args.get("node-map", "");
  const auto per_node = static_cast<int>(args.get_int("ranks-per-node", 0));
  BSTC_REQUIRE(map.empty() || per_node == 0,
               "launch: --node-map and --ranks-per-node are exclusive");
  if (!map.empty()) {
    std::stringstream ss(map);
    std::string item;
    std::size_t idx = 0;
    while (std::getline(ss, item, ',')) {
      BSTC_REQUIRE(idx < node_of.size(),
                   "launch: --node-map lists more entries than --np");
      node_of[idx++] = std::stoi(item);
    }
    BSTC_REQUIRE(idx == node_of.size(),
                 "launch: --node-map must list exactly --np node ids");
  } else if (per_node > 0) {
    for (int w = 0; w < np; ++w) node_of[static_cast<std::size_t>(w)] = w / per_node;
  }
  return node_of;
}

/// Worker processes re-executed from this very binary (/proc/self/exe),
/// so a parent never depends on PATH or the invocation spelling.
class WorkerProcesses {
 public:
  /// Fork a worker running `bstc_cli <args...>`; `who` prefixes errors.
  void spawn(const std::string& who, const std::vector<std::string>& args) {
    const pid_t pid = fork();
    BSTC_REQUIRE(pid >= 0, who + ": fork failed");
    if (pid == 0) {
      std::vector<std::string> argv_s = {"/proc/self/exe"};
      argv_s.insert(argv_s.end(), args.begin(), args.end());
      std::vector<char*> argv;
      argv.reserve(argv_s.size() + 1);
      for (std::string& a : argv_s) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      std::perror((who + ": execv /proc/self/exe").c_str());
      _exit(127);
    }
    children_.push_back(Child{pid, false, 0});
  }

  /// Reap the workers that have exited, without blocking; returns how many
  /// have exited so far.
  int dead_poll() {
    int dead = 0;
    for (Child& c : children_) {
      if (!c.reaped && waitpid(c.pid, &c.status, WNOHANG) == c.pid) {
        c.reaped = true;
      }
      if (c.reaped) ++dead;
    }
    return dead;
  }

  /// Wait for every worker; returns how many did not exit with status 0.
  int reap_all() {
    int failures = 0;
    for (Child& c : children_) {
      if (!c.reaped) waitpid(c.pid, &c.status, 0);
      c.reaped = true;
      if (!WIFEXITED(c.status) || WEXITSTATUS(c.status) != 0) ++failures;
    }
    return failures;
  }

 private:
  struct Child {
    pid_t pid = -1;
    bool reaped = false;
    int status = 0;
  };
  std::vector<Child> children_;
};

int cmd_launch(const Args& args) {
  net::LaunchOptions opts;
  opts.spec = make_net_spec(args);
  opts.host = args.get("host", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  opts.trace_out = args.get("trace-out", "");
  const std::string metrics_out = args.get("metrics-out", "");
  const std::vector<int> node_map = parse_node_map(args, opts.spec.np);

  WorkerProcesses workers;
  const std::vector<std::string> spec_flags = net::spec_to_flags(opts.spec);
  const int spawn_local =
      static_cast<int>(args.get_int("spawn", opts.spec.np));

  const auto spawn = [&](const std::string& host, std::uint16_t port,
                         int index) {
    if (index >= spawn_local) {
      // Leave this slot to a hand-started worker; tell the operator where.
      std::printf("launch: waiting for worker %d to join: "
                  "bstc_cli worker --host %s --port %u [problem flags]\n",
                  index, host.c_str(), static_cast<unsigned>(port));
      std::fflush(stdout);
      return;
    }
    std::vector<std::string> argv = {"worker", "--host", host, "--port",
                                     std::to_string(port)};
    argv.insert(argv.end(), spec_flags.begin(), spec_flags.end());
    argv.push_back("--node-id");
    argv.push_back(std::to_string(node_map[static_cast<std::size_t>(index)]));
    if (!opts.trace_out.empty()) {
      argv.push_back("--trace-out");
      argv.push_back(opts.trace_out);
    }
    workers.spawn("launch", argv);
  };

  net::LaunchReport report;
  try {
    report = net::run_launcher(opts, spawn,
                               [&workers] { return workers.dead_poll(); });
  } catch (...) {
    workers.reap_all();
    throw;
  }
  const int worker_failures = workers.reap_all();

  const int q = opts.spec.np / opts.spec.p;
  std::printf("grid           %d x %d (%d processes over TCP loopback)\n",
              opts.spec.p, q, opts.spec.np);
  TextTable table({"rank", "tasks", "A sent", "C sent", "frames tx", "frames rx",
                   "retries", "engine"});
  for (const net::SummaryMsg& s : report.summaries) {
    table.add_row({std::to_string(s.rank), std::to_string(s.tasks_executed),
                   fmt_bytes(s.a_wire_bytes), fmt_bytes(s.c_wire_bytes),
                   std::to_string(s.frames_sent),
                   std::to_string(s.frames_received),
                   std::to_string(s.connect_retries),
                   fmt_duration(s.engine_seconds)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("verdict        %s (max|diff| = %.3e, |C|_F = %.6e)\n",
              report.verdict.bitwise_identical
                  ? "bitwise-identical to the single-process engine"
                  : "MISMATCH against the single-process engine",
              report.verdict.max_abs_diff, report.verdict.c_norm);
  std::printf("A wire         %.0f bytes measured vs %.0f analytic -> %s\n",
              report.total_a_wire_bytes,
              report.verdict.stats_a_network_bytes,
              report.total_a_wire_bytes ==
                      report.verdict.stats_a_network_bytes
                  ? "exact"
                  : "MISMATCH");
  std::printf("C wire         %.0f bytes measured vs %.0f analytic -> %s\n",
              report.total_c_wire_bytes,
              report.verdict.stats_c_network_bytes,
              report.total_c_wire_bytes ==
                      report.verdict.stats_c_network_bytes
                  ? "exact"
                  : "MISMATCH");
  std::printf("A inter-node   %.0f bytes measured vs %.0f analytic -> %s\n",
              report.total_a_inter_bytes,
              report.verdict.stats_a_internode_bytes,
              report.total_a_inter_bytes ==
                      report.verdict.stats_a_internode_bytes
                  ? "exact"
                  : "MISMATCH");
  std::printf("A intra-node   %.0f bytes measured vs %.0f analytic -> %s\n",
              report.total_a_intra_bytes,
              report.verdict.stats_a_intranode_bytes,
              report.total_a_intra_bytes ==
                      report.verdict.stats_a_intranode_bytes
                  ? "exact"
                  : "MISMATCH");
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    BSTC_REQUIRE(out.good(), "launch: cannot write " + metrics_out);
    for (const net::SummaryMsg& s : report.summaries) out << s.metrics_text;
    std::printf("metrics        %s (bstc_wire_*, bstc_bcast_* for %d "
                "ranks)\n",
                metrics_out.c_str(), opts.spec.np);
  }
  if (!opts.trace_out.empty()) {
    std::printf("trace          %s (merged across %d ranks)\n",
                opts.trace_out.c_str(), opts.spec.np);
  }
  if (worker_failures > 0) {
    std::fprintf(stderr, "launch: %d worker(s) exited with a failure\n",
                 worker_failures);
  }
  return report.ok && worker_failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve-batch: drive the ContractionService with a scripted request mix.
//
// Requests are ServeProblemSpecs (everything rebuilt from seeds), driven
// through the ServeInterface boundary — so the same script runs against
// the in-process LocalService or, with --ranks N, against a RemoteService
// routing to N forked worker ranks, with no change to the request format.

/// One scripted workload: a problem class submitted `repeat` times, or a
/// CCSD-style session iterated `session_iters` times.
struct ServeWorkload {
  std::string label;
  ServeProblemSpec spec;
  int repeat = 1;
  int session_iters = 0;  ///< > 0: session workload instead of submits
  std::string program;    ///< non-empty: iterate this named program

  // Aggregated outcomes (filled by the drivers).
  std::uint64_t fingerprint = 0;
  int ok = 0, rejected = 0, failed = 0, cache_hits = 0;
  int served_by = -1;  ///< rank of the last kOk outcome
  double inspect_s = 0.0, execute_s = 0.0, wait_s = 0.0;
  std::mutex mutex;
};

/// key=value pairs of one script line.
using ScriptLine = std::map<std::string, std::string>;

double script_num(const ScriptLine& kv, const std::string& key,
                  double fallback) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  BSTC_REQUIRE(end != nullptr && *end == '\0' && !it->second.empty(),
               "script: " + key + " expects a number, got '" + it->second +
                   "'");
  return v;
}

std::unique_ptr<ServeWorkload> make_workload(const std::string& kind,
                                             const ScriptLine& kv,
                                             int default_repeat) {
  auto w = std::make_unique<ServeWorkload>();
  w->spec.m = static_cast<Index>(script_num(kv, "m", 96));
  w->spec.k = static_cast<Index>(script_num(kv, "k", 480));
  w->spec.n = static_cast<Index>(
      script_num(kv, "n", static_cast<double>(w->spec.k)));
  w->spec.density = script_num(kv, "density", 0.4);
  w->spec.tile_lo = static_cast<Index>(script_num(kv, "tile-lo", 8));
  w->spec.tile_hi = static_cast<Index>(script_num(kv, "tile-hi", 24));
  w->spec.seed = static_cast<std::uint64_t>(script_num(kv, "seed", 42));
  w->spec.gpus = static_cast<int>(script_num(kv, "gpus", 1));
  w->spec.gpu_mem = script_num(kv, "gpu-mem", 1.0e6);
  w->spec.p = static_cast<int>(script_num(kv, "p", 1));
  const std::string extent = std::to_string(w->spec.m) + "x" +
                             std::to_string(w->spec.k) + "x" +
                             std::to_string(w->spec.n);
  if (kind == "session") {
    w->session_iters = static_cast<int>(script_num(kv, "iters", 4));
    w->label = "session " + extent;
  } else if (kind == "program") {
    const auto it = kv.find("name");
    w->program = it == kv.end() ? "ccsd-doubles" : it->second;
    // m is ccsd-doubles' chain length; the synthetic default would mean
    // a 65-carbon production run.
    if (w->program == "ccsd-doubles" && kv.find("m") == kv.end()) {
      w->spec.m = 3;
    }
    w->session_iters = static_cast<int>(script_num(kv, "iters", 2));
    w->label = "program " + w->program;
  } else {
    w->repeat = static_cast<int>(script_num(kv, "repeat", default_repeat));
    w->label = "problem " + extent;
  }
  return w;
}

std::vector<std::unique_ptr<ServeWorkload>> parse_script(
    std::istream& in, int default_repeat) {
  std::vector<std::unique_ptr<ServeWorkload>> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string kind;
    if (!(tokens >> kind)) continue;  // blank / comment-only line
    BSTC_REQUIRE(kind == "problem" || kind == "session" || kind == "program",
                 "script: unknown workload kind '" + kind +
                     "' (expected problem|session|program)");
    ScriptLine kv;
    std::string token;
    while (tokens >> token) {
      const std::size_t eq = token.find('=');
      BSTC_REQUIRE(eq != std::string::npos,
                   "script: expected key=value, got '" + token + "'");
      kv[token.substr(0, eq)] = token.substr(eq + 1);
    }
    out.push_back(make_workload(kind, kv, default_repeat));
  }
  return out;
}

void record_outcome(ServeWorkload& w, ServiceStatus status,
                    const ServeOutcome& outcome) {
  std::lock_guard lock(w.mutex);
  if (status == ServiceStatus::kOk) {
    w.fingerprint = outcome.fingerprint;
    w.served_by = outcome.served_by;
    ++w.ok;
    if (outcome.plan_cache_hit) ++w.cache_hits;
    w.inspect_s += outcome.inspect_s;
    w.execute_s += outcome.execute_s;
    w.wait_s += outcome.queue_wait_s;
  } else if (status == ServiceStatus::kQueueFull) {
    ++w.rejected;
  } else {
    ++w.failed;
    std::fprintf(stderr, "%s: %s (%s)\n", w.label.c_str(),
                 service_status_name(status), outcome.error.c_str());
  }
}

/// Run the whole scripted mix against any ServeInterface: `clients`
/// threads deal the batch submits round-robin; each session gets its own
/// thread (a CCSD loop is sequential by nature). Iteration a_seeds are
/// deterministic, so local and distributed runs compute identical bits.
void drive_serve(ServeInterface& service,
                 std::vector<std::unique_ptr<ServeWorkload>>& workloads,
                 int clients) {
  std::vector<ServeWorkload*> submits;
  for (const auto& w : workloads) {
    for (int r = 0; r < w->repeat && w->session_iters == 0; ++r) {
      submits.push_back(w.get());
    }
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&submits, &service, c, clients] {
      for (std::size_t i = static_cast<std::size_t>(c); i < submits.size();
           i += static_cast<std::size_t>(clients)) {
        ServeWorkload& w = *submits[i];
        ServeRequest req;
        req.spec = w.spec;
        req.want_c = false;  // throughput mode: the checksum witness is enough
        ServeOutcome outcome;
        record_outcome(w, service.Contract(req, outcome), outcome);
      }
    });
  }
  for (const auto& w : workloads) {
    if (w->session_iters == 0) continue;
    threads.emplace_back([&service, w = w.get()] {
      for (int it = 0; it < w->session_iters; ++it) {
        ServeRequest req;
        req.spec = w->spec;
        req.program = w->program;
        req.a_seed = w->spec.seed + 100 + static_cast<std::uint64_t>(it);
        req.want_c = false;
        ServeOutcome outcome;
        const ServiceStatus status =
            w->program.empty() ? service.SessionIterate(req, outcome)
                               : service.ProgramRun(req, outcome);
        record_outcome(*w, status, outcome);
      }
      ServeRequest close_req;
      close_req.spec = w->spec;
      close_req.program = w->program;
      ServeOutcome outcome;
      service.SessionClose(close_req, outcome);
    });
  }
  for (std::thread& t : threads) t.join();
}

void report_workloads(
    const std::vector<std::unique_ptr<ServeWorkload>>& workloads) {
  TextTable table({"workload", "fingerprint", "rank", "ok", "rejected",
                   "failed", "plan hits", "inspect", "mean exec",
                   "mean wait"});
  for (const auto& w : workloads) {
    const int n = std::max(1, w->ok);
    table.add_row({w->label, fingerprint_hex(w->fingerprint),
                   std::to_string(w->served_by), std::to_string(w->ok),
                   std::to_string(w->rejected), std::to_string(w->failed),
                   std::to_string(w->cache_hits), fmt_duration(w->inspect_s),
                   fmt_duration(w->execute_s / n),
                   fmt_duration(w->wait_s / n)});
  }
  std::printf("%s\n", table.render().c_str());
}

/// One row per gathered rank; each column is a (title, series) read from
/// the rank's exposition text.
void report_ranks(
    const std::vector<net::ServeRankMetrics>& ranks,
    const std::vector<std::pair<std::string, std::string>>& columns) {
  std::vector<std::string> header = {"rank"};
  for (const auto& column : columns) header.push_back(column.first);
  TextTable table(header);
  for (const net::ServeRankMetrics& r : ranks) {
    std::vector<std::string> row = {std::to_string(r.rank)};
    for (const auto& column : columns) {
      row.push_back(
          std::to_string(static_cast<std::uint64_t>(r.value(column.second))));
    }
    table.add_row(row);
  }
  std::printf("%s\n", table.render().c_str());
}

// ---------------------------------------------------------------------------
// Shared-memory tile stores: store-build / store-inspect, plus the
// serve-batch --shm-store plumbing.

/// POSIX shm names are one path component: "/bstc_store". Reserve room
/// for the ".g<generation>" / ".ctl" suffixes within the control
/// segment's publishable-name capacity.
void require_shm_name(const std::string& name) {
  BSTC_REQUIRE(!name.empty() && name.front() == '/' &&
                   name.find('/', 1) == std::string::npos,
               "shm name must look like /bstc_store (one leading slash), "
               "got '" + name + "'");
  BSTC_REQUIRE(name.size() + 24 < shm::kCtlNameCapacity,
               "shm name too long: '" + name + "'");
}

/// The problem spec described by the common geometry flags (same
/// defaults as a script line, so `store-build` with no flags matches the
/// built-in serve mix's first workload).
ServeProblemSpec spec_from_args(const Args& args) {
  ServeProblemSpec spec;
  spec.m = static_cast<Index>(args.get_int("m", 96));
  spec.k = static_cast<Index>(args.get_int("k", 480));
  spec.n = static_cast<Index>(args.get_int("n", spec.k));
  spec.density = args.get_double("density", 0.4);
  spec.tile_lo = static_cast<Index>(args.get_int("tile-lo", 8));
  spec.tile_hi = static_cast<Index>(args.get_int("tile-hi", 24));
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  spec.gpus = static_cast<int>(args.get_int("gpus", 1));
  spec.gpu_mem = args.get_double("gpu-mem", 1.0e6);
  spec.p = static_cast<int>(args.get_int("p", 1));
  return spec;
}

/// Materialize `spec`'s B tile set into "<base>.g<generation>".
shm::StoreBuildInfo build_spec_store(const std::string& base,
                                     const ServeProblemSpec& spec,
                                     std::uint64_t generation) {
  const BuiltServeProblem built = build_serve_problem(spec);
  const std::string store_name =
      base + ".g" + std::to_string(generation);
  shm::StoreBuildInfo info;
  const shm::Status st = shm::ShmTileStore::build(
      store_name, built.b_shape, built.b_gen, serve_store_fingerprint(spec),
      generation, &info);
  BSTC_REQUIRE(st.ok, "store build failed: " + st.message);
  return info;
}

int cmd_store_build(const Args& args) {
  const std::string base = args.get("name", "/bstc_store");
  require_shm_name(base);
  const auto generation =
      static_cast<std::uint64_t>(args.get_int("generation", 1));
  BSTC_REQUIRE(generation >= 1, "--generation must be >= 1");
  const ServeProblemSpec spec = spec_from_args(args);
  const shm::StoreBuildInfo info = build_spec_store(base, spec, generation);
  TextTable table({"store", "fingerprint", "generation", "tiles", "payload",
                   "segment"});
  table.add_row({info.name, fingerprint_hex(info.fingerprint),
                 std::to_string(info.generation), std::to_string(info.tiles),
                 fmt_bytes(static_cast<double>(info.payload_bytes)),
                 fmt_bytes(static_cast<double>(info.segment_bytes))});
  std::printf("%s\n", table.render().c_str());
  if (args.get_bool("publish", true)) {
    const std::string ctl = base + ".ctl";
    shm::StoreWatchdog watchdog;
    shm::Status st = shm::StoreWatchdog::create(ctl, watchdog);
    BSTC_REQUIRE(st.ok, "control segment create failed: " + st.message);
    st = watchdog.publish(
        shm::StoreHandle{info.generation, info.fingerprint, info.name});
    BSTC_REQUIRE(st.ok, "publish failed: " + st.message);
    std::printf("published      %s -> %s\n", ctl.c_str(), info.name.c_str());
  }
  return 0;
}

int cmd_store_inspect(const Args& args) {
  const std::string name = args.get("name", "");
  BSTC_REQUIRE(!name.empty(), "store-inspect: --name is required");
  std::shared_ptr<shm::ShmTileReader> reader;
  const shm::Status st = shm::ShmTileReader::attach(name, reader);
  if (!st.ok) {
    std::fprintf(stderr, "store-inspect: %s\n", st.message.c_str());
    return 1;
  }
  TextTable table({"store", "fingerprint", "generation", "grid", "tiles",
                   "payload", "segment"});
  table.add_row({reader->name(), fingerprint_hex(reader->fingerprint()),
                 std::to_string(reader->generation()),
                 std::to_string(reader->grid_rows()) + "x" +
                     std::to_string(reader->grid_cols()),
                 std::to_string(reader->tile_count()),
                 fmt_bytes(static_cast<double>(reader->payload_bytes())),
                 fmt_bytes(static_cast<double>(reader->segment_bytes()))});
  std::printf("%s\n", table.render().c_str());
  if (args.get_bool("tiles", false)) {
    TextTable tiles({"tile", "rows", "cols", "bytes"});
    for (std::size_t r = 0; r < reader->grid_rows(); ++r) {
      for (std::size_t c = 0; c < reader->grid_cols(); ++c) {
        if (!reader->has_tile(r, c)) continue;
        const Tile& t = reader->tile(r, c);
        std::string label = "(";
        label.append(std::to_string(r)).append(",");
        label.append(std::to_string(c)).append(")");
        tiles.add_row({label,
                       std::to_string(t.rows()), std::to_string(t.cols()),
                       std::to_string(static_cast<std::size_t>(t.rows()) *
                                      static_cast<std::size_t>(t.cols()) *
                                      sizeof(double))});
      }
    }
    std::printf("%s\n", tiles.render().c_str());
  }
  return 0;
}

int cmd_serve_batch(const Args& args) {
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) obs::Registry::instance().set_enabled(true);
  ServiceConfig service_cfg;
  service_cfg.workers = static_cast<int>(args.get_int("workers", 2));
  service_cfg.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue", 16));
  service_cfg.plan_cache_capacity =
      static_cast<std::size_t>(args.get_int("cache", 32));
  const int clients = static_cast<int>(args.get_int("clients", 4));
  const int default_repeat = static_cast<int>(args.get_int("repeat", 4));
  const int ranks = static_cast<int>(args.get_int("ranks", 0));
  const auto inflight =
      static_cast<std::size_t>(args.get_int("inflight", 8));
  BSTC_REQUIRE(clients >= 1, "--clients must be >= 1");
  BSTC_REQUIRE(ranks >= 0, "--ranks must be >= 0");

  std::vector<std::unique_ptr<ServeWorkload>> workloads;
  const std::string script_path = args.get("script", "");
  if (!script_path.empty()) {
    std::ifstream in(script_path);
    BSTC_REQUIRE(in.good(), "cannot open script " + script_path);
    workloads = parse_script(in, default_repeat);
  } else {
    std::istringstream builtin(
        "problem m=96 k=480 n=480 density=0.4 seed=1 gpus=2\n"
        "problem m=64 k=320 n=320 density=0.6 seed=2 gpus=1\n"
        "session m=64 k=320 n=320 density=0.5 seed=3 iters=6 gpus=1\n");
    workloads = parse_script(builtin, default_repeat);
  }
  BSTC_REQUIRE(!workloads.empty(), "the request script is empty");

  // --shm-store: materialize the first workload's B tile set into one
  // shared segment and publish it on a control segment; every rank
  // (in-process or forked) attaches and serves those requests zero-copy.
  // Other workloads in the mix fall back to private generator caches.
  const std::string shm_store = args.get("shm-store", "");
  shm::StoreWatchdog watchdog;
  shm::StoreBuildInfo store_info;
  std::string shm_ctl;
  if (!shm_store.empty()) {
    require_shm_name(shm_store);
    store_info = build_spec_store(shm_store, workloads.front()->spec, 1);
    shm_ctl = shm_store + ".ctl";
    shm::Status st = shm::StoreWatchdog::create(shm_ctl, watchdog);
    BSTC_REQUIRE(st.ok, "control segment create failed: " + st.message);
    st = watchdog.publish(shm::StoreHandle{
        store_info.generation, store_info.fingerprint, store_info.name});
    BSTC_REQUIRE(st.ok, "store publish failed: " + st.message);
    std::printf("shm store      %s: %zu tiles, %s payload, fingerprint %s\n",
                store_info.name.c_str(), store_info.tiles,
                fmt_bytes(static_cast<double>(store_info.payload_bytes))
                    .c_str(),
                fingerprint_hex(store_info.fingerprint).c_str());
  }

  const std::string metrics_out = args.get("metrics-out", "");
  Timer wall;
  int failed = 0;

  if (ranks == 0) {
    // Single-process mode: the same request boundary, served in-process.
    std::shared_ptr<shm::StoreRegistry> store;
    if (!shm_ctl.empty()) {
      store = std::make_shared<shm::StoreRegistry>();
      shm::Status st = shm::StoreRegistry::attach(shm_ctl, *store);
      BSTC_REQUIRE(st.ok, "store registry attach failed: " + st.message);
      st = store->refresh();
      BSTC_REQUIRE(st.ok, "store registry refresh failed: " + st.message);
    }
    LocalService local(service_cfg, 0, store);
    drive_serve(local, workloads, clients);
    const double wall_s = wall.elapsed_s();
    report_workloads(workloads);
    const ServiceMetrics m = local.metrics();
    std::printf("%s\n", metrics_table(m).render().c_str());
    std::printf("wall           %s (%.1f requests/s)\n",
                fmt_duration(wall_s).c_str(),
                static_cast<double>(m.completed) / std::max(wall_s, 1e-9));
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      BSTC_REQUIRE(out.good(), "cannot open " + metrics_out);
      out << metrics_prometheus(m);
      BSTC_REQUIRE(out.good(), "failed writing " + metrics_out);
      std::printf("metrics        %s\n", metrics_out.c_str());
    }
    for (const auto& w : workloads) failed += w->failed;
  } else {
    // Distributed mode: fork --ranks serve-worker processes of this very
    // binary, route the identical request stream through a ServeRouter.
    net::Listener listener("127.0.0.1", 0);
    const std::uint16_t port = listener.local_port();
    std::vector<std::string> argv = {
        "serve-worker",
        "--host", "127.0.0.1",
        "--port", std::to_string(port),
        "--workers", std::to_string(service_cfg.workers),
        "--queue", std::to_string(service_cfg.queue_capacity),
        "--cache", std::to_string(service_cfg.plan_cache_capacity)};
    if (!shm_ctl.empty()) {
      argv.push_back("--shm-ctl");
      argv.push_back(shm_ctl);
    }
    WorkerProcesses workers;
    for (int i = 0; i < ranks; ++i) workers.spawn("serve-batch", argv);
    std::vector<net::PeerLink> links = net::accept_serve_workers(
        listener, ranks, 60000, [&workers] { return workers.dead_poll(); });
    net::ServeRouterConfig router_cfg;
    router_cfg.max_inflight_per_worker = inflight;
    net::ServeRouter router(std::move(links), router_cfg);
    net::RemoteService remote(router);

    drive_serve(remote, workloads, clients);
    const double wall_s = wall.elapsed_s();
    report_workloads(workloads);

    const std::vector<net::ServeRankMetrics> per_rank =
        router.gather_metrics();
    report_ranks(per_rank, {{"submitted", "bstc_service_submitted_total"},
                            {"completed", "bstc_service_completed_total"},
                            {"failed", "bstc_service_failed_total"},
                            {"plan hits", "bstc_plan_cache_hits_total"},
                            {"plan misses", "bstc_plan_cache_misses_total"},
                            {"sessions", "bstc_sessions_opened_total"},
                            {"iters", "bstc_session_iterations_total"}});
    const net::ServeRouterStats rs = router.stats();
    std::printf("router         %llu routed, %llu rejected, %llu affinity "
                "hits, %llu lost, %zu/%d workers live\n",
                static_cast<unsigned long long>(rs.routed),
                static_cast<unsigned long long>(rs.rejected),
                static_cast<unsigned long long>(rs.affinity_hits),
                static_cast<unsigned long long>(rs.worker_lost),
                rs.live_workers, ranks);
    std::printf("wall           %s\n", fmt_duration(wall_s).c_str());

    if (!metrics_out.empty()) {
      // One artifact: front-side router counters, then every worker
      // rank's section (each line already rank-labeled).
      std::ofstream out(metrics_out);
      BSTC_REQUIRE(out.good(), "cannot open " + metrics_out);
      out << "bstc_router_routed_total " << rs.routed << "\n"
          << "bstc_router_rejected_total " << rs.rejected << "\n"
          << "bstc_router_affinity_hits_total " << rs.affinity_hits << "\n"
          << "bstc_router_reassigned_total " << rs.reassigned << "\n"
          << "bstc_router_worker_lost_total " << rs.worker_lost << "\n"
          << "bstc_router_live_workers " << rs.live_workers << "\n";
      if (!shm_store.empty()) {
        // The front built the store once; worker sections below carry
        // per-rank bstc_b_tiles_generated_total (0 when the store served
        // them) — together they witness one materialization per node.
        out << "bstc_front_store_builds_total 1\n"
            << "bstc_front_store_tiles " << store_info.tiles << "\n"
            << "bstc_front_store_payload_bytes " << store_info.payload_bytes
            << "\n"
            << "bstc_front_store_segment_bytes " << store_info.segment_bytes
            << "\n";
      }
      for (const net::ServeRankMetrics& r : per_rank) out << r.prometheus;
      BSTC_REQUIRE(out.good(), "failed writing " + metrics_out);
      std::printf("metrics        %s\n", metrics_out.c_str());
    }

    router.shutdown();
    const int worker_failures = workers.reap_all();
    if (worker_failures > 0) {
      std::fprintf(stderr, "serve-batch: %d worker(s) exited abnormally\n",
                   worker_failures);
    }
    for (const auto& w : workloads) failed += w->failed;
    failed += worker_failures;
  }

  if (!shm_store.empty()) {
    // Unlink both names: attached readers (none left by now) would keep
    // their pages; fresh attaches must fail with ENOENT.
    watchdog.close();
    shm::ShmArena::unlink(store_info.name);
    shm::StoreWatchdog::unlink(shm_ctl);
  }

  if (!trace_out.empty()) write_local_trace(trace_out);
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// program-run: iterate a named contraction program (a multi-term DAG from
// expr/programs.hpp) through the serving boundary — in-process, and
// optionally again across forked worker ranks with a bitwise verdict.

/// What one driver run of a program produced (per-iteration checksums are
/// the bitwise witness compared between local and distributed runs).
struct ProgramDriveResult {
  std::uint64_t fingerprint = 0;       ///< program instance fingerprint
  std::vector<std::uint64_t> checksums;  ///< residual checksum per iteration
  double c_norm = 0.0;                 ///< final residual Frobenius norm
  std::size_t nodes = 0, intermediates = 0, reuse = 0;
  double execute_s = 0.0;
  BlockSparseMatrix c;  ///< final iteration's residual (want_c)
  bool has_c = false;
  int failed = 0;
};

ProgramDriveResult drive_program(ServeInterface& service,
                                 const ServeProblemSpec& spec,
                                 const std::string& program, int iters) {
  ProgramDriveResult out;
  for (int it = 0; it < iters; ++it) {
    ServeRequest req;
    req.spec = spec;
    req.program = program;
    req.a_seed = spec.seed + 100 + static_cast<std::uint64_t>(it);
    req.want_c = it == iters - 1;  // ship only the final residual back
    ServeOutcome outcome;
    const ServiceStatus status = service.ProgramRun(req, outcome);
    if (status != ServiceStatus::kOk) {
      ++out.failed;
      std::fprintf(stderr, "program-run: iteration %d: %s (%s)\n", it,
                   service_status_name(status), outcome.error.c_str());
      continue;
    }
    out.fingerprint = outcome.fingerprint;
    out.checksums.push_back(outcome.c_checksum);
    out.c_norm = outcome.c_norm;
    out.nodes = outcome.program_nodes;
    out.intermediates = outcome.program_intermediates;
    out.reuse = outcome.program_reuse;
    out.execute_s += outcome.execute_s;
    if (outcome.has_c) {
      out.c = std::move(outcome.c);
      out.has_c = true;
    }
  }
  // Release the program session (runner, node sessions, B caches).
  ServeRequest close_req;
  close_req.spec = spec;
  close_req.program = program;
  ServeOutcome close_outcome;
  service.SessionClose(close_req, close_outcome);
  return out;
}

int cmd_program_run(const Args& args) {
  const std::string program = args.get("program", "ccsd-doubles");
  const int iters = static_cast<int>(args.get_int("iters", 2));
  const int ranks = static_cast<int>(args.get_int("ranks", 0));
  const std::string metrics_out = args.get("metrics-out", "");
  BSTC_REQUIRE(iters >= 1, "--iters must be >= 1");
  BSTC_REQUIRE(ranks >= 0, "--ranks must be >= 0");
  ServeProblemSpec spec = spec_from_args(args);
  // ccsd-doubles reads spec.m as the alkane chain length; the synthetic
  // default (96, clamped to 65 carbons) would be a production-sized run.
  if (program == "ccsd-doubles" && !args.has("m")) spec.m = 3;
  ServiceConfig service_cfg;
  service_cfg.workers = static_cast<int>(args.get_int("workers", 2));

  // In-process run — also the bitwise reference for distributed mode.
  ProgramDriveResult local_result;
  ServiceMetrics local_metrics;
  double local_wall = 0.0;
  {
    LocalService local(service_cfg);
    Timer wall;
    local_result = drive_program(local, spec, program, iters);
    local_wall = wall.elapsed_s();
    local_metrics = local.metrics();
  }
  TextTable table({"program", "fingerprint", "iters", "nodes",
                   "intermediates", "reuse", "checksum", "|R|_F",
                   "mean exec"});
  table.add_row({program, fingerprint_hex(local_result.fingerprint),
                 std::to_string(iters), std::to_string(local_result.nodes),
                 std::to_string(local_result.intermediates),
                 std::to_string(local_result.reuse),
                 local_result.checksums.empty()
                     ? "-"
                     : fingerprint_hex(local_result.checksums.back()),
                 fmt_fixed(local_result.c_norm, 6),
                 fmt_duration(local_result.execute_s / std::max(1, iters))});
  std::printf("%s\n", table.render().c_str());
  std::printf("local          %d iterations in %s, %zu intermediates "
              "built per iteration, %zu reuse hits\n",
              iters, fmt_duration(local_wall).c_str(),
              local_result.intermediates, local_result.reuse);
  int failed = local_result.failed;

  if (ranks == 0) {
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      BSTC_REQUIRE(out.good(), "cannot open " + metrics_out);
      out << metrics_prometheus(local_metrics);
      BSTC_REQUIRE(out.good(), "failed writing " + metrics_out);
      std::printf("metrics        %s\n", metrics_out.c_str());
    }
    return failed == 0 ? 0 : 1;
  }

  // Distributed mode: the same program stream through forked worker
  // ranks, then a bitwise comparison against the in-process residuals.
  net::Listener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.local_port();
  WorkerProcesses workers;
  for (int i = 0; i < ranks; ++i) {
    workers.spawn("program-run",
                  {"serve-worker", "--host", "127.0.0.1", "--port",
                   std::to_string(port), "--workers",
                   std::to_string(service_cfg.workers)});
  }
  std::vector<net::PeerLink> links = net::accept_serve_workers(
      listener, ranks, 60000, [&workers] { return workers.dead_poll(); });
  net::ServeRouter router(std::move(links));
  net::RemoteService remote(router);

  Timer wall;
  const ProgramDriveResult remote_result =
      drive_program(remote, spec, program, iters);
  const double remote_wall = wall.elapsed_s();
  failed += remote_result.failed;

  const int owner = router.owner_of(
      serve_program_routing_key(spec, program));
  std::printf("distributed    %d iterations over %d ranks in %s "
              "(program sticky to rank %d)\n",
              iters, ranks, fmt_duration(remote_wall).c_str(), owner);
  const bool checksums_match =
      local_result.checksums == remote_result.checksums &&
      !local_result.checksums.empty();
  double max_diff = -1.0;
  if (local_result.has_c && remote_result.has_c) {
    max_diff = local_result.c.max_abs_diff(remote_result.c);
  }
  const bool bitwise = checksums_match && max_diff == 0.0;
  std::printf("verdict        %s (per-iteration checksums %s, "
              "max|R - R_local| = %.3e)\n",
              bitwise ? "bitwise-identical to the single-process run"
                      : "MISMATCH against the single-process run",
              checksums_match ? "equal" : "DIFFER", max_diff);
  if (!bitwise) ++failed;

  const std::vector<net::ServeRankMetrics> per_rank =
      router.gather_metrics();
  report_ranks(per_rank,
               {{"programs", "bstc_expr_programs_total"},
                {"nodes", "bstc_expr_nodes_total"},
                {"built", "bstc_expr_intermediates_built_total"},
                {"reuse", "bstc_expr_intermediate_reuse_total"},
                {"released", "bstc_expr_intermediates_released_total"},
                {"sessions", "bstc_sessions_opened_total"},
                {"plan misses", "bstc_plan_cache_misses_total"}});

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    BSTC_REQUIRE(out.good(), "cannot open " + metrics_out);
    for (const net::ServeRankMetrics& r : per_rank) out << r.prometheus;
    BSTC_REQUIRE(out.good(), "failed writing " + metrics_out);
    std::printf("metrics        %s\n", metrics_out.c_str());
  }

  router.shutdown();
  failed += workers.reap_all();
  return failed == 0 ? 0 : 1;
}

int cmd_serve_worker(const Args& args) {
  net::ServeWorkerOptions opts;
  opts.host = args.get("host", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  BSTC_REQUIRE(opts.port != 0, "serve-worker: --port is required");
  opts.service.workers = static_cast<int>(args.get_int("workers", 2));
  opts.service.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue", 16));
  opts.service.plan_cache_capacity =
      static_cast<std::size_t>(args.get_int("cache", 32));
  opts.shm_ctl = args.get("shm-ctl", "");
  // The kCrash fault-injection op stays dead in production workers; only
  // the test harness runs workers with it armed.
  return net::run_serve_worker(opts);
}

// ---------------------------------------------------------------------------
// Command table: one entry per subcommand with every flag it reads. main()
// declares the table's flags and rejects any other flag before the command
// runs; `help <cmd>` and `<cmd> --help` print the same table.

struct Flag {
  const char* name;
  const char* help;  ///< value placeholder, two spaces, description
};
using Flags = std::vector<Flag>;

Flags operator+(Flags a, const Flags& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// make_problem: a random synthetic product.
const Flags kSynthFlags = {
    {"m", "M  rows of A and C (default 48000)"},
    {"n", "N  columns of B and C (default 192000)"},
    {"k", "K  inner extent (default N)"},
    {"density", "D  tile density of A and B (default 0.5)"},
    {"tile-lo", "T  smallest tile extent (default 512)"},
    {"tile-hi", "T  largest tile extent (default 2048)"},
    {"seed", "S  RNG seed (default 42)"},
};
/// make_machine and make_plan_config: the Summit model and the inspector.
const Flags kMachineFlags = {
    {"nodes", "N  Summit nodes, 6 GPUs each (default 16)"},
    {"gpus", "G  total GPUs instead of --nodes"},
    {"gpu-mem", "BYTES  per-GPU memory"},
    {"p", "P  grid rows (default 1)"},
    {"prefetch", "D  A chunks resident per block (default 2)"},
    {"assignment", "mirrored|cyclic|lpt  column assignment"},
    {"packing", "worst-fit|first-fit|best-fit  block packing"},
};
/// make_net_spec: the problem every launch rank builds.
const Flags kNetSpecFlags = {
    {"np", "N  rank processes, one per grid node (default 4)"},
    {"p", "P  grid rows; q = np / p (default 2)"},
    {"m", "M  rows of A and C"},
    {"k", "K  inner extent"},
    {"n", "N  columns of B and C"},
    {"density", "D  tile density of A and B"},
    {"tile-lo", "T  smallest tile extent"},
    {"tile-hi", "T  largest tile extent"},
    {"seed", "S  RNG seed"},
    {"gpus-per-node", "G  device queues per rank (default 1)"},
    {"gpu-mem", "BYTES  per-device memory budget (default 6e5)"},
};
/// spec_from_args: a serving-layer problem spec.
const Flags kServeSpecFlags = {
    {"m", "M  rows of A and C (default 96)"},
    {"k", "K  inner extent (default 480)"},
    {"n", "N  columns of B and C (default K)"},
    {"density", "D  tile density (default 0.4)"},
    {"tile-lo", "T  smallest tile extent (default 8)"},
    {"tile-hi", "T  largest tile extent (default 24)"},
    {"seed", "S  RNG seed (default 42)"},
    {"gpus", "G  devices (default 1)"},
    {"gpu-mem", "BYTES  per-device memory (default 1e6)"},
    {"p", "P  grid rows (default 1)"},
};
/// The service knobs of serve-batch, program-run and serve-worker.
const Flags kServiceFlags = {
    {"workers", "N  requests the service executes at once, each on\n"
                "its caller's thread (default 2)"},
    {"queue", "N  requests that may wait for a slot (default 16)"},
    {"cache", "N  LRU plan-cache capacity (default 32)"},
};

struct CommandInfo {
  const char* name;
  const char* summary;
  const char* usage;  ///< the usage line
  int (*run)(const Args&);
  Flags flags;
  const char* notes = "";  ///< printed after the flags
};

const CommandInfo kCommands[] = {
    {"simulate", "synthetic product on a simulated machine",
     "usage: bstc_cli simulate [options]", cmd_simulate,
     kSynthFlags + kMachineFlags +
         Flags{{"baselines", "true  also run DBCSR-style + CPU models"}}},
    {"abcd", "the C65H132-style chemistry workload",
     "usage: bstc_cli abcd [options]", cmd_abcd,
     Flags{{"carbons", "N  alkane chain length (default 65)"},
           {"tiling", "v1|v2|v3  the paper's three tilings"}} +
         kMachineFlags},
    {"xyz", "a molecule loaded from an .xyz file",
     "usage: bstc_cli xyz <file.xyz> [options]", cmd_xyz,
     Flags{{"basis", "sto-3g|def2-svp|def2-tzvp"},
           {"ao-clusters", "N  AO clusters"},
           {"occ-clusters", "N  occupied-orbital clusters"}} +
         kMachineFlags},
    {"plan", "build a plan and print structure/statistics",
     "usage: bstc_cli plan [options]", cmd_plan,
     kSynthFlags + kMachineFlags +
         Flags{{"explain", "true  per-node narrative of the plan"},
               {"save", "FILE  serialize the plan to FILE"}}},
    {"execute", "run the real engine and verify the product",
     "usage: bstc_cli execute [options]", cmd_execute,
     kSynthFlags + kMachineFlags +
         Flags{{"verify", "true|false  compare against the reference product"},
               {"trace-out",
                "F.json  write a unified obs trace (tasks + plan spans)"}}},
    {"launch", "run the distributed executor as real OS processes",
     "usage: bstc_cli launch [options]", cmd_launch,
     kNetSpecFlags +
         Flags{
             {"host", "H  rendezvous host (default 127.0.0.1)"},
             {"port", "P  rendezvous port (default: ephemeral)"},
             {"spawn", "N  fork only N workers; the remaining np - N\n"
                       "join by hand via `bstc_cli worker` (default np)"},
             {"trace-out", "F.json  gather every rank's spans and write one\n"
                           "merged Chrome/Perfetto trace (per-rank lanes)"},
             {"node-map", "LIST  node id of each worker, e.g. 0,1,0,1"},
             {"ranks-per-node",
              "N  shorthand: workers 0..N-1 on node 0, ..."},
             {"metrics-out", "F  write per-rank bstc_wire_* and bstc_bcast_*\n"
                             "Prometheus lines"}},
     "  Forks --np workers of this binary, runs the 2D-grid contraction\n"
     "  over TCP, verifies C bitwise against a single-process run, and\n"
     "  checks measured wire bytes against the plan statistics exactly\n"
     "  (totals and the intra-/inter-node split). Grid rows are packed\n"
     "  onto the fewest nodes of the node map, and each A tile is\n"
     "  broadcast along its row by a binomial tree (tiles < 256 KiB) or a\n"
     "  ring (larger tiles) over one leader per node.\n"},
    {"worker", "join a launch rendezvous (spawned by `launch`)",
     "usage: bstc_cli worker --host H --port P [problem flags]", cmd_worker,
     kNetSpecFlags +
         Flags{{"host", "H  the launcher's rendezvous host"},
               {"port", "P  the launcher's rendezvous port"},
               {"node-id", "N  which physical node this rank runs on"},
               {"trace-out", "F.json  must match the launcher's --trace-out\n"
                             "(every rank takes part in the trace gather)"}},
     "  Normally started by `bstc_cli launch`, not by hand; the problem\n"
     "  flags must match the launcher's (fingerprints are cross-checked).\n"},
    {"serve-batch", "drive the ContractionService with a request mix",
     "usage: bstc_cli serve-batch [options]", cmd_serve_batch,
     kServiceFlags +
         Flags{
             {"clients", "N  concurrent client threads (default 4)"},
             {"repeat", "N  submits per scripted problem (default 4)"},
             {"script", "FILE  request script; without it a built-in mix\n"
                        "of two problems and one session runs"},
             {"trace-out", "F.json  write a span trace of the whole batch"},
             {"metrics-out", "F.txt  write Prometheus-style text metrics"},
             {"ranks", "N  distributed mode: fork N serve-worker ranks\n"
                       "and route the same request stream over TCP"},
             {"inflight", "N  per-worker in-flight admission bound (def 8)"},
             {"shm-store", "NAME  build a shared-memory B-tile store (shm\n"
                           "name, e.g. /bstc_store) for the first workload's\n"
                           "spec and serve every rank from it zero-copy"}},
     "  script lines:  problem m=96 k=480 n=480 density=0.4 seed=1 \\\n"
     "                   repeat=4 gpus=2 gpu-mem=1e6 [tile-lo=8 tile-hi=24]\n"
     "                 session m=64 k=320 n=320 density=0.5 iters=6 ...\n"
     "                 program name=ccsd-doubles m=6 iters=3 seed=7 ...\n"
     "                 ('#' starts a comment)\n"},
    {"program-run", "iterate a named contraction program (multi-term DAG)",
     "usage: bstc_cli program-run [options]", cmd_program_run,
     Flags{{"program", "NAME  registered program: abcd | ccsd-doubles\n"
                       "(default ccsd-doubles)"},
           {"iters", "N  program iterations (default 2); A-side tensors\n"
                     "are reseeded every iteration, fixed tensors stay\n"
                     "cached in node sessions"},
           {"workers", "N  requests each rank's service executes at\n"
                       "once (default 2)"},
           {"ranks", "N  also run distributed: fork N serve-worker ranks,\n"
                     "iterate the same program over TCP and verify the\n"
                     "residual bitwise against the single-process run"},
           {"metrics-out", "F.txt  Prometheus text: the local service\n"
                           "exposition, or per-rank sections"}} +
         kServeSpecFlags,
     "  ccsd-doubles reads --m as the alkane chain length, clamped to\n"
     "  [2,65].\n"},
    {"serve-worker", "join a distributed serve-batch (spawned by it)",
     "usage: bstc_cli serve-worker --host H --port P [options]",
     cmd_serve_worker,
     kServiceFlags +
         Flags{{"host", "H  the front rank's host"},
               {"port", "P  the front rank's port"},
               {"shm-ctl", "NAME  attach this shm store control segment\n"
                           "and serve matching requests zero-copy"}},
     "  Normally started by `bstc_cli serve-batch --ranks N`, not by\n"
     "  hand. Dials the front rank and serves spec-based requests until\n"
     "  drained.\n"},
    {"store-build", "materialize a spec's B tiles into a shm store",
     "usage: bstc_cli store-build [options]", cmd_store_build,
     Flags{{"name", "NAME  shm base name (default /bstc_store); the\n"
                    "segment is NAME.g<generation>"},
           {"generation", "N  generation id to seal into the store (def 1)"},
           {"publish", "true  create NAME.ctl and publish the generation\n"
                       "(default true; the control name must be free)"}} +
         kServeSpecFlags,
     "  The spec flags must match the serve workload exactly: workers\n"
     "  attach by store fingerprint, a mismatch falls back to private\n"
     "  generator caches.\n"},
    {"store-inspect", "attach a tile store read-only and print its layout",
     "usage: bstc_cli store-inspect --name NAME.g1 [options]",
     cmd_store_inspect,
     Flags{{"name", "NAME  the store segment name (required)"},
           {"tiles", "true  also list every tile's grid slot and extents"}}},
};

const CommandInfo* find_command(const std::string& name) {
  for (const CommandInfo& info : kCommands) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

void usage() {
  std::printf("usage: bstc_cli <command> [options]\n\ncommands:\n");
  for (const CommandInfo& info : kCommands) {
    std::printf("  %-13s %s\n", info.name, info.summary);
  }
  std::printf(
      "\nrun `bstc_cli help <command>` or `bstc_cli <command> --help`\n");
}

void print_help(const CommandInfo& info) {
  std::printf("%s — %s\n%s\n", info.name, info.summary, info.usage);
  for (const Flag& flag : info.flags) {
    std::string help = flag.help;
    for (std::size_t at = help.find('\n'); at != std::string::npos;
         at = help.find('\n', at + 1)) {
      help.insert(at + 1, 24, ' ');
    }
    std::printf("  --%-19s %s\n", flag.name, help.c_str());
  }
  std::printf("%s", info.notes);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    if (args.positional().empty()) {
      usage();
      return 2;
    }
    const std::string& cmd = args.positional().front();
    if (cmd == "help") {
      if (args.positional().size() >= 2) {
        const CommandInfo* info = find_command(args.positional()[1]);
        if (info == nullptr) {
          usage();
          return 2;
        }
        print_help(*info);
        return 0;
      }
      usage();
      return 0;
    }
    const CommandInfo* info = find_command(cmd);
    if (info == nullptr) {
      usage();
      return 2;
    }
    if (args.get_bool("help", false)) {
      print_help(*info);
      return 0;
    }
    // A typo'd flag is an error with a suggestion, not a silent default,
    // and it fails before the command runs. Once the table's flags are
    // declared, reading any other flag is an error too.
    for (const Flag& flag : info->flags) args.has(flag.name);
    args.reject_unknown();
    args.seal();
    return info->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
