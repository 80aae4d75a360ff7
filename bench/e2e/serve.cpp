/// \file serve.cpp
/// serve-mix: a LocalService (2 workers, queue 16, plan cache 32) driven
/// as a closed loop by 2 client threads through serve_dispatch. Requests
/// are small, so per-request overhead dominates: spec expansion, A build,
/// DAG build and engine thread start-up per call, the inspector on plan
/// misses, and autotuner lookups.
///
/// Mix: 75% kContract over 4 hot specs, 20% kSessionIterate on one spec,
/// 5% kContract on specs never seen before (plan misses, LRU churn). Hot
/// and session requests draw A from a fixed pool of 8 seeds per spec, so
/// their results are checked bitwise against references computed in
/// set-up with a direct contract(); novel requests are recomputed the
/// same way after the timed loop.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "harness.hpp"
#include "plan/builder.hpp"
#include "service/local_service.hpp"
#include "service/serve_api.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"
#include "tile/autotune.hpp"

namespace bstc::e2e {
namespace {

constexpr int kClients = 2;
constexpr int kHotSpecs = 4;
constexpr int kPoolSeeds = 8;

ServeProblemSpec make_spec(Index m, Index kn, std::uint64_t seed) {
  ServeProblemSpec s;
  s.m = m;
  s.k = s.n = kn;
  s.seed = seed;
  return s;  // density 0.4, tiles 8-24, 1 device, 1e6 B device memory
}

/// Hot spec h (0..3) and the session spec are fixed; the seed drives the
/// request order, the A seeds and the novel specs.
ServeProblemSpec hot_spec(int h) { return make_spec(64 + 16 * h, 320 + 80 * h, 1000 + h); }
ServeProblemSpec session_spec() { return make_spec(96, 480, 2000); }

/// Checksum and flops of C = A*B for (spec, a_seed), by a direct
/// contract() on the spec's expansion — the service's answer must match
/// it bit for bit.
struct Reference {
  std::uint64_t checksum = 0;
  double flops = 0.0;
};

Reference reference(const ServeProblemSpec& spec, std::uint64_t a_seed) {
  const BuiltServeProblem built = build_serve_problem(spec);
  const EngineResult res =
      contract(build_serve_a(built, a_seed), built.b_shape, built.b_gen,
               built.c_shape, nullptr, built.machine, built.engine);
  return Reference{bsm_content_checksum(res.c), res.plan_stats.total_flops};
}

using RefKey = std::pair<std::uint64_t, std::uint64_t>;  // routing key, a_seed

RefKey ref_key(const ServeRequest& r) {
  return {serve_routing_key(r.spec), r.a_seed};
}

/// The request generator and the references for every pooled request.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) : seed_(seed) {
    for (int h = 0; h <= kHotSpecs; ++h) {
      const ServeProblemSpec spec = h < kHotSpecs ? hot_spec(h) : session_spec();
      for (int x = 0; x < kPoolSeeds; ++x) {
        const std::uint64_t a_seed =
            derive_seed(seed, 'P', static_cast<std::uint64_t>(h * kPoolSeeds + x)) | 1;
        pools_[h].push_back(a_seed);
        ServeRequest r;
        r.spec = spec;
        r.a_seed = a_seed;
        refs_[ref_key(r)] = reference(spec, a_seed);
      }
    }
  }

  /// Draw the next request of a client's stream.
  ServeRequest next(Rng& rng, std::uint64_t& novel_counter) const {
    ServeRequest r;
    r.want_c = false;
    const double u = rng.uniform();
    if (u < 0.75) {
      const int h = static_cast<int>(rng.uniform_index(kHotSpecs));
      r.spec = hot_spec(h);
      r.a_seed = pools_[h][rng.uniform_index(kPoolSeeds)];
    } else if (u < 0.95) {
      r.kind = ServeRequestKind::kSessionIterate;
      r.spec = session_spec();
      r.a_seed = pools_[kHotSpecs][rng.uniform_index(kPoolSeeds)];
    } else {
      const auto size = static_cast<Index>(rng.uniform_index(kHotSpecs));
      r.spec = make_spec(64 + 16 * size, 320 + 80 * size,
                         derive_seed(seed_, 'N', novel_counter++));
      r.a_seed = derive_seed(seed_, 'n', novel_counter) | 1;
    }
    return r;
  }

  /// The set-up reference, or nullopt for a novel request.
  std::optional<Reference> expected(const ServeRequest& r) const {
    const auto it = refs_.find(ref_key(r));
    if (it == refs_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::uint64_t seed_;
  std::vector<std::uint64_t> pools_[kHotSpecs + 1];
  std::map<RefKey, Reference> refs_;
};

/// One served request as the client saw it.
struct Served {
  ServeRequest request;
  ServiceStatus status = ServiceStatus::kOk;
  ServeOutcome outcome;
  double latency_s = 0.0;
};

/// Serve `count` requests per client, each client in its own thread
/// (closed loop: a client sends its next request when the last returns).
std::vector<Served> serve_round(LocalService& service, const Mix& mix,
                                std::vector<Rng>& streams,
                                std::uint64_t& novel_counter, int count) {
  std::vector<std::vector<ServeRequest>> plans(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int x = 0; x < count; ++x) {
      plans[static_cast<std::size_t>(c)].push_back(
          mix.next(streams[static_cast<std::size_t>(c)], novel_counter));
    }
  }
  std::vector<std::vector<Served>> done(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &plans, &done, c] {
      for (const ServeRequest& req : plans[static_cast<std::size_t>(c)]) {
        Served s;
        s.request = req;
        Timer timer;
        {
          obs::ScopedSpan span(obs::Category::kPhase, "bench.request");
          s.status = serve_dispatch(service, req, s.outcome);
        }
        s.latency_s = timer.elapsed_s();
        done[static_cast<std::size_t>(c)].push_back(std::move(s));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<Served> all;
  for (auto& d : done) {
    for (Served& s : d) all.push_back(std::move(s));
  }
  return all;
}

std::string failure_of(const Served& s, const std::optional<Reference>& ref) {
  if (s.status != ServiceStatus::kOk) {
    return std::string("request: ") + service_status_name(s.status) + " " +
           s.outcome.error;
  }
  if (ref && ref->checksum != s.outcome.c_checksum) {
    return "C checksum differs from the direct contract() reference";
  }
  return "";
}

}  // namespace

Report run_serve_mix(const Options& opts) {
  const int warmup = opts.smoke ? 20 : 150;      // per client
  const int round_size = opts.smoke ? 10 : 100;  // per client
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 16;
  cfg.plan_cache_capacity = 32;

  Report report;
  std::unique_ptr<Mix> mix;
  std::unique_ptr<LocalService> service;
  std::vector<Rng> streams;
  std::uint64_t novel_counter = 0;
  // Set-up: references for every pooled request, a fresh service, and a
  // warm-up of 2 x 150 requests (tuning, hot plans, the session's B).
  for (int rep = 0; rep < opts.setup_reps; ++rep) {
    service.reset();
    mix.reset();
    Autotuner::instance().clear();
    Timer timer;
    mix = std::make_unique<Mix>(opts.seed);
    service = std::make_unique<LocalService>(cfg);
    streams.clear();
    for (int c = 0; c < kClients; ++c) {
      streams.emplace_back(derive_seed(opts.seed, 'Q', static_cast<std::uint64_t>(c)));
    }
    novel_counter = 0;
    for (const Served& s :
         serve_round(*service, *mix, streams, novel_counter, warmup)) {
      const std::string f = failure_of(s, mix->expected(s.request));
      BSTC_REQUIRE(f.empty(), "serve-mix warm-up: " + f);
    }
    report.setup_s.push_back(timer.elapsed_s());
  }

  obs::Registry& reg = obs::Registry::instance();
  std::vector<Served> novel;      // checked after the loop
  std::vector<long> novel_round;  // index into report.rounds, -1 untraced
  double wall_total = 0.0;
  double flops_total = 0.0;
  reset_peak_rss();
  reg.clear();
  Timer loop;
  for (std::size_t i = 0; loop.elapsed_s() < opts.seconds || i < 4; ++i) {
    const bool traced = opts.round_traced(i);
    const TuneStats tune0 = Autotuner::instance().stats();
    reg.set_enabled(traced);
    Timer round_timer;
    std::vector<Served> served =
        serve_round(*service, *mix, streams, novel_counter, round_size);
    const double round_wall = round_timer.elapsed_s();
    reg.set_enabled(false);

    RoundTotals t;
    for (Served& s : served) {
      const std::optional<Reference> ref = mix->expected(s.request);
      (traced ? report.op_s_traced : report.op_s).push_back(s.latency_s);
      ++t.ops;
      t.wall_s += s.latency_s;
      t.engine_s += s.outcome.execute_s;
      t.lane_s += s.outcome.execute_s;  // one device lane per engine
      t.queue_wait_s += s.outcome.queue_wait_s;
      t.inspect_s += s.outcome.inspect_s;
      t.plan_lookups += 1.0;
      t.plan_hits += s.outcome.plan_cache_hit ? 1.0 : 0.0;
      t.rejected += s.status == ServiceStatus::kQueueFull ? 1.0 : 0.0;
      t.tasks += static_cast<double>(s.outcome.tasks_executed);
      if (ref) {
        if (s.status == ServiceStatus::kOk) {
          t.flops += ref->flops;
          if (!traced) flops_total += ref->flops;
        }
        report.record_op(failure_of(s, ref));
      } else {
        novel.push_back(std::move(s));
        novel_round.push_back(
            traced ? static_cast<long>(report.rounds.size()) : -1);
      }
    }
    if (traced) {
      const TuneStats tune1 = Autotuner::instance().stats();
      t.tune_lookups = static_cast<double>(tune1.lookups - tune0.lookups);
      t.tune_benchmarks =
          static_cast<double>(tune1.benchmarks - tune0.benchmarks);
      t.tiles_generated = registry_counter("bstc_b_tiles_generated_total");
      t.ledger = ledger_of(registry_spans());
      write_registry_trace(opts.trace_dir + "/serve-mix.trace.json");
      report.rounds.push_back(std::move(t));
    } else {
      wall_total += round_wall;
    }
    reg.clear();
  }

  // Novel requests: recompute each on its own, outside the timed loop.
  for (std::size_t x = 0; x < novel.size(); ++x) {
    const Reference ref =
        reference(novel[x].request.spec, novel[x].request.a_seed);
    const std::string f = failure_of(novel[x], ref);
    report.record_op(f);
    if (!f.empty()) continue;
    if (novel_round[x] < 0) {
      flops_total += ref.flops;
    } else {
      report.rounds[static_cast<std::size_t>(novel_round[x])].flops += ref.flops;
    }
  }

  report.ops_per_s = static_cast<double>(report.op_s.size()) / wall_total;
  report.gflops = flops_total / wall_total / 1e9;
  report.problem["clients"] = kClients;
  report.problem["workers"] = cfg.workers;
  report.problem["novel_requests"] = static_cast<double>(novel.size());
  if (opts.traced()) {
    for (int h = 0; h <= kHotSpecs; ++h) {
      const BuiltServeProblem b =
          build_serve_problem(h < kHotSpecs ? hot_spec(h) : session_spec());
      report.inspect_s += time_inspector(b.a_shape, b.b_shape, b.c_shape,
                                         b.machine, b.engine.plan) /
                          (kHotSpecs + 1);
    }
    const BuiltServeProblem b = build_serve_problem(session_spec());
    const ExecutionPlan plan = build_plan(b.a_shape, b.b_shape, b.c_shape,
                                          b.machine, b.engine.plan);
    report.ceiling_gflops = kernel_ceiling_gflops(
        plan, b.a_shape, b.b_shape, b.c_shape, opts.ceiling_seconds());
  }
  return report;
}

}  // namespace bstc::e2e
