/// Tests of the service metrics exposition. Every number has one owner —
/// the service, the autotuner, the WireCounters or the obs registry — and
/// the exposition is rendered from those owners, so each series appears
/// exactly once, unlabelled and per rank, and the per-rank text reads back
/// the same values through ServeRankMetrics::value().

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "net/serve.hpp"
#include "obs/obs.hpp"
#include "service/local_service.hpp"
#include "service/metrics.hpp"
#include "service/serve_api.hpp"
#include "shm/arena.hpp"
#include "shm/tile_store.hpp"
#include "shm/watchdog.hpp"
#include "support/error.hpp"
#include "tile/autotune.hpp"

namespace bstc {
namespace {

/// How often each series (the text before a line's value) appears.
std::map<std::string, int> series_counts(const std::string& text) {
  std::map<std::string, int> counts;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    ++counts[line.substr(0, line.rfind(' '))];
  }
  return counts;
}

ServeProblemSpec store_spec() {
  ServeProblemSpec spec;
  spec.m = 64;
  spec.k = 160;
  spec.n = 160;
  spec.density = 0.5;
  spec.tile_lo = 8;
  spec.tile_hi = 24;
  spec.seed = 81;
  spec.gpus = 1;
  return spec;
}

/// Every series another owner's numbers were once copied into the
/// service metrics for. Each must still be in the exposition.
const char* const kSeriesOfOtherOwners[] = {
    // net::WireCounters
    "bstc_wire_frames_sent_total",
    "bstc_wire_frames_received_total",
    "bstc_wire_bytes_sent_total",
    "bstc_wire_bytes_received_total",
    "bstc_wire_connect_retries_total",
    "bstc_wire_reconnects_total",
    "bstc_bcast_frames_total",
    "bstc_bcast_fwd_frames_total",
    "bstc_bcast_inter_bytes_total",
    "bstc_bcast_intra_bytes_total",
    // obs registry: shared-memory data plane
    "bstc_b_tiles_generated_total",
    "bstc_shm_store_builds_total",
    "bstc_shm_attaches_total",
    "bstc_shm_swaps_total",
    "bstc_shm_resident_bytes",
    "bstc_shm_generation",
    // obs registry: contraction programs
    "bstc_expr_programs_total",
    "bstc_expr_nodes_total",
    "bstc_expr_intermediates_built_total",
    "bstc_expr_intermediate_reuse_total",
    "bstc_expr_intermediates_released_total",
    // Autotuner
    "bstc_tune_lookups_total",
    "bstc_tune_hits_total",
    "bstc_tune_benchmarks_total",
};

TEST(MetricsExposition, EverySeriesAppearsOnceUnlabelledAndPerRank) {
  obs::Registry::instance().clear();
  const std::string base = "/bstc_test_expo_" + std::to_string(getpid());
  const std::string ctl = base + ".ctl";
  const BuiltServeProblem built = build_serve_problem(store_spec());
  const auto build_generation = [&](std::uint64_t generation) {
    shm::StoreBuildInfo info;
    const shm::Status st = shm::ShmTileStore::build(
        base + ".g" + std::to_string(generation), built.b_shape, built.b_gen,
        serve_store_fingerprint(store_spec()), generation, &info);
    BSTC_REQUIRE(st.ok, "store build failed: " + st.message);
    return shm::StoreHandle{info.generation, info.fingerprint, info.name};
  };

  {
    // Shared-memory paths: build, publish, attach, then hot-swap.
    shm::StoreWatchdog watchdog;
    ASSERT_TRUE(shm::StoreWatchdog::create(ctl, watchdog).ok);
    ASSERT_TRUE(watchdog.publish(build_generation(1)).ok);
    auto store = std::make_shared<shm::StoreRegistry>();
    ASSERT_TRUE(shm::StoreRegistry::attach(ctl, *store).ok);
    ASSERT_TRUE(store->refresh().ok);
    LocalService local(ServiceConfig{}, 0, store);

    // Service paths: a store-served contract, a generated one, a session.
    ServeOutcome out;
    ServeRequest req;
    req.kind = ServeRequestKind::kContract;
    req.spec = store_spec();
    ASSERT_EQ(serve_dispatch(local, req, out), ServiceStatus::kOk)
        << out.error;
    req.spec.seed = 82;  // not in the store: B is generated
    ASSERT_EQ(serve_dispatch(local, req, out), ServiceStatus::kOk)
        << out.error;
    req.kind = ServeRequestKind::kSessionIterate;
    req.a_seed = 5;
    ASSERT_EQ(serve_dispatch(local, req, out), ServiceStatus::kOk)
        << out.error;

    // Expr paths: two iterations of a program with a shared intermediate.
    req = ServeRequest{};
    req.kind = ServeRequestKind::kProgramRun;
    req.spec.m = 2;
    req.spec.seed = 7;
    req.program = "ccsd-doubles";
    for (std::uint64_t it = 0; it < 2; ++it) {
      req.a_seed = 107 + it;
      ASSERT_EQ(serve_dispatch(local, req, out), ServiceStatus::kOk)
          << out.error;
    }

    ASSERT_TRUE(watchdog.publish(build_generation(2)).ok);
    ASSERT_TRUE(local.swap_store().ok);

    // Tuner path: at least one lookup, whatever the process tuning mode.
    Autotuner::instance().select(24, 24, 24);

    const ServiceMetrics m = local.metrics();
    const std::string plain = metrics_prometheus(m);
    const std::string ranked = metrics_prometheus(m, 3);
    const std::map<std::string, int> plain_series = series_counts(plain);
    const std::map<std::string, int> ranked_series = series_counts(ranked);

    for (const auto& [series, n] : plain_series) {
      EXPECT_EQ(n, 1) << series;
      EXPECT_EQ(series.find("rank="), std::string::npos) << series;
    }
    for (const auto& [series, n] : ranked_series) {
      EXPECT_EQ(n, 1) << series;
      EXPECT_NE(series.find("{rank=\"3\""), std::string::npos) << series;
    }
    EXPECT_EQ(plain_series.size(), ranked_series.size());
    for (const char* series : kSeriesOfOtherOwners) {
      EXPECT_EQ(plain_series.count(series), 1u) << series;
      EXPECT_EQ(ranked_series.count(obs::label_rank(series, 3)), 1u)
          << series;
    }
    for (const auto& [kernel, buckets] :
         Autotuner::instance().active_kernels()) {
      const std::string series =
          "bstc_tune_active_buckets{kernel=\"" + kernel + "\"}";
      EXPECT_EQ(obs::series_value(plain, series),
                static_cast<double>(buckets));
    }
    // Per-rank sections now carry the registry's histograms too.
    EXPECT_EQ(ranked_series.count("bstc_service_queue_wait_seconds_bucket"
                                  "{rank=\"3\",le=\"+Inf\"}"),
              1u);

    // The per-rank text reads back every unlabelled value.
    const net::ServeRankMetrics rank3{3, ranked};
    for (const auto& [series, n] : plain_series) {
      EXPECT_EQ(rank3.value(series), obs::series_value(plain, series))
          << series;
    }
    EXPECT_EQ(rank3.value("bstc_service_completed_total"),
              static_cast<double>(m.completed));
    EXPECT_EQ(rank3.value("bstc_shm_swaps_total"), 1.0);
    EXPECT_EQ(rank3.value("bstc_shm_generation"), 2.0);
    EXPECT_EQ(rank3.value("bstc_expr_programs_total"), 2.0);
    EXPECT_EQ(rank3.value("bstc_expr_intermediate_reuse_total"), 2.0);
    EXPECT_GT(rank3.value("bstc_b_tiles_generated_total"), 0.0);
    EXPECT_EQ(rank3.value("bstc_no_such_series_total"), 0.0);
    watchdog.close();
  }
  for (std::uint64_t g = 1; g <= 2; ++g) {
    shm::ShmArena::unlink(base + ".g" + std::to_string(g));
  }
  shm::StoreWatchdog::unlink(ctl);
}

TEST(MetricsExposition, RankValueRejectsMalformedText) {
  const net::ServeRankMetrics good{2, "bstc_x_total{rank=\"2\"} 5\n"};
  EXPECT_EQ(good.value("bstc_x_total"), 5.0);
  EXPECT_EQ(good.value("bstc_y_total"), 0.0);
  const net::ServeRankMetrics bad{2, "bstc_x_total{rank=\"2\"} five\n"};
  EXPECT_THROW(bad.value("bstc_x_total"), Error);
}

}  // namespace
}  // namespace bstc
