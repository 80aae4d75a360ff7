#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <tuple>
#include <utility>

#include "obs/trace_merge.hpp"
#include "plan/builder.hpp"
#include "plan/stats.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "tile/gemm.hpp"

namespace bstc::e2e {
namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Value of `"key":` in one merged-trace line (quoted string or bare
/// number), or "" when absent — the same narrow reader tools/trace_check
/// uses for the one-event-per-line format.
std::string field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t start = at + needle.size();
  if (start < line.size() && line[start] == '"') {
    std::string out;
    for (std::size_t i = start + 1; i < line.size(); ++i) {
      if (line[i] == '\\' && i + 1 < line.size()) {
        out += line[++i];
      } else if (line[i] == '"') {
        return out;
      } else {
        out += line[i];
      }
    }
    return out;
  }
  std::size_t end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(start, end - start);
}

double safe_div(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<TraceSpan> registry_spans() {
  std::vector<TraceSpan> out;
  for (const obs::Span& s : obs::Registry::instance().spans()) {
    out.push_back(TraceSpan{0, s.lane, obs::category_name(s.category), s.name,
                            s.start_s, s.end_s});
  }
  return out;
}

std::vector<TraceSpan> read_merged_trace(const std::string& path) {
  std::ifstream in(path);
  BSTC_REQUIRE(in.good(), "cannot read trace " + path);
  std::vector<TraceSpan> out;
  std::string line;
  while (std::getline(in, line)) {
    if (field(line, "ph") != "X") continue;
    TraceSpan s;
    s.pid = static_cast<std::uint32_t>(std::strtoul(field(line, "pid").c_str(),
                                                    nullptr, 10));
    s.lane = static_cast<std::uint32_t>(
        std::strtoul(field(line, "tid").c_str(), nullptr, 10));
    s.cat = field(line, "cat");
    s.name = field(line, "name");
    s.start_s = std::strtod(field(line, "ts").c_str(), nullptr) * 1e-6;
    s.end_s = s.start_s + std::strtod(field(line, "dur").c_str(), nullptr) * 1e-6;
    out.push_back(std::move(s));
  }
  return out;
}

Ledger ledger_of(const std::vector<TraceSpan>& spans) {
  Ledger l;
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::vector<std::pair<double, double>>>
      device_lanes;
  for (const TraceSpan& s : spans) {
    ++l.spans;
    const double dur = s.end_s - s.start_s;
    if (s.cat == "comm.tx") {
      l.tx_s += dur;
      ++l.frames_sent;
      continue;
    }
    if (s.cat == "comm.rx") {
      l.rx_s += dur;
      continue;
    }
    if (s.cat != "task") continue;
    double* bucket = nullptr;
    bool device = true;
    if (starts_with(s.name, "gemmbatch(")) {
      bucket = &l.gemm_s;
    } else if (starts_with(s.name, "chunkload(")) {
      bucket = &l.stage_a_s;
    } else if (starts_with(s.name, "load(")) {
      bucket = &l.stage_b_s;
    } else if (starts_with(s.name, "store(")) {
      bucket = &l.c_flush_s;
    } else if (starts_with(s.name, "chunkunload(")) {
      bucket = &l.unload_s;
    } else if (starts_with(s.name, "gen(")) {
      bucket = &l.gen_s;
      device = false;
    } else if (starts_with(s.name, "asend(")) {
      bucket = &l.asend_s;
      device = false;
    }
    if (bucket == nullptr) continue;
    *bucket += dur;
    if (device) device_lanes[{s.pid, s.lane}].emplace_back(s.start_s, s.end_s);
  }
  for (auto& [lane, ivals] : device_lanes) {
    std::sort(ivals.begin(), ivals.end());
    double busy = 0.0;
    double gaps = 0.0;
    double reach = ivals.front().second;  // latest end so far
    for (std::size_t i = 0; i < ivals.size(); ++i) {
      busy += ivals[i].second - ivals[i].first;
      if (i > 0 && ivals[i].first > reach) {
        gaps += ivals[i].first - reach;
        l.gaps_s.push_back(ivals[i].first - reach);
      }
      reach = std::max(reach, ivals[i].second);
    }
    const double extent = reach - ivals.front().first;
    if (extent > 0.0) {
      l.worst_lane_error = std::max(
          l.worst_lane_error, std::abs(busy + gaps - extent) / extent);
    }
  }
  return l;
}

std::string check_lanes(const Ledger& ledger) {
  return ledger.worst_lane_error <= 0.01
             ? ""
             : "device-lane task spans and gaps do not add up to the lane's "
               "run span";
}

void Report::record_op(const std::string& failure) {
  ++attempted;
  if (failure.empty()) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(failure);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
                    index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (starts_with(line, "VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double registry_counter(const char* name) {
  const auto counters = obs::Registry::instance().counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : static_cast<double>(it->second);
}

double time_inspector(const Shape& a, const Shape& b, const Shape& c,
                      const MachineModel& machine, const PlanConfig& cfg) {
  std::vector<double> t;
  Timer total;
  while (t.size() < 3 || total.elapsed_s() < 0.1) {
    Timer timer;
    const ExecutionPlan plan = build_plan(a, b, c, machine, cfg);
    t.push_back(timer.elapsed_s());
  }
  return median(t);
}

double kernel_ceiling_gflops(const ExecutionPlan& plan, const Shape& a,
                             const Shape& b, const Shape& c,
                             double min_seconds) {
  // Most frequent tile GEMM shape and most frequent batch size.
  std::map<std::tuple<Index, Index, Index>, std::size_t> shapes;
  std::map<std::size_t, std::size_t> batch_sizes;
  for (const NodePlan& node : plan.nodes) {
    for (const BlockPlan& block : node.blocks) {
      const GemmEnumerator gemms(block);
      for (const Chunk& chunk : block.chunks) {
        for (const GemmGroup& g : gemms.gemm_groups(chunk, c)) {
          ++batch_sizes[g.is.size()];
          for (const std::uint32_t i : g.is) {
            ++shapes[{a.row_tiling().tile_extent(i),
                      a.col_tiling().tile_extent(g.k),
                      b.col_tiling().tile_extent(g.j)}];
          }
        }
      }
    }
  }
  BSTC_REQUIRE(!shapes.empty(), "ceiling: the plan has no GEMMs");
  const auto by_count = [](const auto& x, const auto& y) {
    return x.second < y.second;
  };
  const auto [m, k, n] =
      std::max_element(shapes.begin(), shapes.end(), by_count)->first;
  const std::size_t batch =
      std::max_element(batch_sizes.begin(), batch_sizes.end(), by_count)
          ->first;

  Rng rng(0xce11u);
  std::vector<Tile> as(batch, Tile(m, k));
  std::vector<Tile> cs(batch, Tile(m, n));
  Tile bt(k, n);
  bt.fill_random(rng);
  std::vector<GemmBatchItem> items;
  for (std::size_t x = 0; x < batch; ++x) {
    as[x].fill_random(rng);
    items.push_back({&as[x], &cs[x]});
  }
  const MicroKernel& mk = select_batch_microkernel(items, bt);
  gemm_batch_with(mk, 1.0, items, bt, 1.0);  // warm caches and pack arenas
  std::size_t reps = 0;
  Timer timer;
  do {
    gemm_batch_with(mk, 1.0, items, bt, 1.0);
    ++reps;
  } while (timer.elapsed_s() < min_seconds);
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n) * static_cast<double>(batch) *
                       static_cast<double>(reps);
  return flops / timer.elapsed_s() / 1e9;
}

void write_registry_trace(const std::string& path) {
  const obs::Registry& reg = obs::Registry::instance();
  obs::RankTrace t;
  t.spans = reg.spans();
  t.lane_names = reg.lane_names();
  obs::write_merged_trace(path, {t});
}

std::vector<Metric> layer_metrics(const Report& r) {
  // Per-op values of every traced round, then the median across rounds.
  std::map<std::string, std::pair<std::vector<double>, std::string>> per;
  const auto put = [&per](const char* name, double v, const char* unit) {
    per[name].first.push_back(v);
    per[name].second = unit;
  };
  for (const RoundTotals& t : r.rounds) {
    if (t.ops == 0) continue;
    const double ops = static_cast<double>(t.ops);
    const Ledger& l = t.ledger;
    put("core.engine_s", t.engine_s / ops, "s");
    put("core.stage_a_s", l.stage_a_s / ops, "s");
    put("core.stage_b_s", l.stage_b_s / ops, "s");
    put("core.c_flush_s", l.c_flush_s / ops, "s");
    put("core.call_overhead_frac", safe_div(t.wall_s - t.engine_s, t.wall_s),
        "ratio");
    put("tile.gemm_s", l.gemm_s / ops, "s");
    put("tile.gemm_gflops", safe_div(t.flops, l.gemm_s) / 1e9, "Gflop/s");
    put("tile.tune_lookups", t.tune_lookups / ops, "count");
    put("tile.tune_benchmarks", t.tune_benchmarks / ops, "count");
    put("runtime.tasks", t.tasks / ops, "count");
    put("runtime.idle_s", (t.lane_s - l.device_busy_s()) / ops, "s");
    put("runtime.lane_busy_frac", safe_div(l.device_busy_s(), t.lane_s),
        "ratio");
    put("runtime.dispatch_gap_us_p50", median(l.gaps_s) * 1e6, "us");
    put("bsm.gen_s", l.gen_s / ops, "s");
    put("bsm.tiles_generated", t.tiles_generated / ops, "count");
    put("plan.inspect_frac", safe_div(t.inspect_s, t.wall_s), "ratio");
    put("service.queue_wait_frac", safe_div(t.queue_wait_s, t.wall_s),
        "ratio");
    put("service.plan_hit_ratio", safe_div(t.plan_hits, t.plan_lookups),
        "ratio");
    put("service.reject_frac", t.rejected / ops, "ratio");
    put("comm.a_bytes", t.a_bytes / ops, "B");
    put("comm.c_bytes", t.c_bytes / ops, "B");
    put("comm.a_send_frac", safe_div(l.asend_s, t.rank_s), "ratio");
    put("net.frames_sent", static_cast<double>(l.frames_sent) / ops, "count");
    put("net.tx_busy_frac", safe_div(l.tx_s, t.rank_s), "ratio");
    put("net.rx_busy_frac", safe_div(l.rx_s, t.rank_s), "ratio");
    put("obs.spans_per_op", static_cast<double>(l.spans) / ops, "count");
  }
  std::vector<Metric> out;
  for (const auto& [name, values] : per) {
    out.push_back(Metric{name, median(values.first), values.second,
                         values.first.size()});
  }
  double gemm_gflops = 0.0;
  for (const Metric& m : out) {
    if (m.name == "tile.gemm_gflops") gemm_gflops = m.value;
  }
  out.push_back(Metric{"plan.inspect_s", r.inspect_s, "s", 1});
  out.push_back(Metric{"tile.ceiling_gflops", r.ceiling_gflops, "Gflop/s", 1});
  out.push_back(Metric{"tile.frac_of_ceiling",
                       safe_div(gemm_gflops, r.ceiling_gflops), "ratio", 1});
  out.push_back(Metric{"obs.trace_overhead_frac",
                       safe_div(median(r.op_s_traced), median(r.op_s)) - 1.0,
                       "ratio", r.op_s_traced.size()});
  return out;
}

}  // namespace bstc::e2e
