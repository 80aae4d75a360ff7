/// \file main.cpp
/// bench_e2e — end-to-end benchmark of the real executor on four
/// workloads, with a per-layer split of the time from a traced run.
///
///   bench_e2e --workload NAME --seed S [--seconds T] [--trace DIR]
///             [--out results.json] [--smoke]
///
/// Untraced, it prints the end-to-end metrics; with --trace DIR it runs
/// the same workload with every other round traced, prints the per-layer
/// metrics and leaves DIR/<workload>.trace.json behind. One line per
/// metric: `workload metric value unit n=samples`. The exit code is 0
/// only when every correctness gate passed. See README.md.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>

#include "harness.hpp"
#include "support/args.hpp"
#include "support/error.hpp"
#include "tile/autotune.hpp"
#include "tile/cpu_features.hpp"

#ifndef BENCH_GIT_COMMIT
#define BENCH_GIT_COMMIT "unknown"
#endif
#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using bstc::e2e::Metric;
using bstc::e2e::Options;
using bstc::e2e::Report;

const std::map<std::string, std::function<Report(const Options&)>>&
workloads() {
  static const std::map<std::string, std::function<Report(const Options&)>> w{
      {"abcd-fine", bstc::e2e::run_abcd_fine},
      {"abcd-coarse", bstc::e2e::run_abcd_coarse},
      {"synth-ranks2", bstc::e2e::run_synth_ranks2},
      {"serve-mix", bstc::e2e::run_serve_mix},
  };
  return w;
}

std::vector<Metric> end_to_end_metrics(const Report& r) {
  using bstc::e2e::median;
  using bstc::e2e::percentile;
  return {
      {"setup_s", median(r.setup_s), "s", r.setup_s.size()},
      {"op_s_p50", median(r.op_s), "s", r.op_s.size()},
      {"op_s_p90", percentile(r.op_s, 0.9), "s", r.op_s.size()},
      {"ops_per_s", r.ops_per_s, "1/s", r.op_s.size()},
      {"gflops", r.gflops, "Gflop/s", r.op_s.size()},
      {"peak_rss_mb",
       std::max(bstc::e2e::peak_rss_mb(), r.child_rss_mb), "MiB", 1},
  };
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(v[i]);
  }
  return out + "]";
}

/// The raw results: host facts, every metric, every sample.
std::string results_json(const Options& opts, const Report& r,
                         const std::vector<Metric>& metrics) {
  std::string j = "{\n";
  j += "  \"workload\": " + json_string(opts.workload) + ",\n";
  j += "  \"seed\": " + std::to_string(opts.seed) + ",\n";
  j += "  \"seconds\": " + json_number(opts.seconds) + ",\n";
  j += std::string("  \"traced\": ") + (opts.traced() ? "true" : "false") +
       ",\n";
  j += std::string("  \"smoke\": ") + (opts.smoke ? "true" : "false") + ",\n";
  j += "  \"host\": {\"nproc\": " +
       std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
       ", \"isa\": " +
       json_string(bstc::kernel_isa_name(bstc::host_best_isa())) +
       ", \"build_type\": " + json_string(BENCH_BUILD_TYPE) +
       ", \"git_commit\": " + json_string(BENCH_GIT_COMMIT) +
       ", \"tuned_kernels\": {";
  const char* sep = "";
  for (const auto& [kernel, buckets] :
       bstc::Autotuner::instance().active_kernels()) {
    j += sep;
    j += json_string(kernel) + ": " + std::to_string(buckets);
    sep = ", ";
  }
  j += "}},\n  \"problem\": {";
  sep = "";
  for (const auto& [key, value] : r.problem) {
    j += sep;
    j += json_string(key) + ": " + json_number(value);
    sep = ", ";
  }
  j += "},\n  \"attempted\": " + std::to_string(r.attempted) +
       ",\n  \"failed\": " + std::to_string(r.failed) +
       ",\n  \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) j += ", ";
    j += json_string(r.failures[i]);
  }
  j += "],\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    j += "    " + json_string(m.name) + ": {\"value\": " +
         json_number(m.value) + ", \"unit\": " + json_string(m.unit) +
         ", \"n\": " + std::to_string(m.n) + "}" +
         (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  j += "  },\n  \"samples\": {\"setup_s\": " + json_array(r.setup_s) +
       ", \"op_s\": " + json_array(r.op_s) +
       ", \"op_s_traced\": " + json_array(r.op_s_traced) + "}\n}\n";
  return j;
}

int run(int argc, char** argv) {
  // A pinned kernel, a disabled or pre-loaded tuner, or a forced broadcast
  // algorithm would silently change what is measured.
  for (const char* var :
       {"BSTC_KERNEL", "BSTC_TUNE", "BSTC_TUNE_CACHE", "BSTC_BCAST"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "bench_e2e: refusing to run with %s set\n", var);
      return 2;
    }
  }
  const bstc::Args args(argc, argv);
  Options opts;
  opts.workload = args.get("workload", "");
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opts.seconds = args.get_double("seconds", 10.0);
  opts.trace_dir = args.get("trace", "");
  opts.smoke = args.get_bool("smoke", false);
  const std::string out_path = args.get("out", "");
  // A traced run reports no setup_s, so one set-up is enough.
  opts.setup_reps = opts.smoke || opts.traced() ? 1 : 3;
  args.reject_unknown();
  const auto it = workloads().find(opts.workload);
  if (it == workloads().end()) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload abcd-fine|abcd-coarse|"
                 "synth-ranks2|serve-mix --seed S [--seconds T] "
                 "[--trace DIR] [--out FILE] [--smoke]\n");
    return 2;
  }

  const Report report = it->second(opts);
  const std::vector<Metric> metrics = opts.traced()
                                          ? bstc::e2e::layer_metrics(report)
                                          : end_to_end_metrics(report);
  for (const Metric& m : metrics) {
    std::printf("%s %s %.9g %s n=%zu\n", opts.workload.c_str(),
                m.name.c_str(), m.value, m.unit.c_str(), m.n);
  }
  std::printf("%s attempted %zu failed %zu\n", opts.workload.c_str(),
              report.attempted, report.failed);
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", opts.workload.c_str(),
                 f.c_str());
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << results_json(opts, report, metrics);
    BSTC_REQUIRE(out.good(), "cannot write " + out_path);
  }
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
