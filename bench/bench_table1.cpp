/// Reproduces paper Table 1: problem traits of the C65H132 ABCD
/// contraction for the three tilings v1/v2/v3.

#include <cstdio>

#include "bench_common.hpp"

using namespace bstc;
using namespace bstc::bench;

namespace {

struct PaperRow {
  double flops, flops_opt;
  double tasks, tasks_opt;
  const char* rows_per_block;
  const char* cols_per_block;
  double dt, dv, dr;
};

}  // namespace

int main() {
  std::printf(
      "Table 1 — C65H132 ABCD contraction traits for tilings v1/v2/v3\n"
      "(paper reference values in parentheses; M, N, K and the qualitative\n"
      "fine->coarse trends are the reproduction targets)\n\n");

  const PaperRow paper[3] = {
      {877e12, 850e12, 1899971, 1843309, "700", "700", 0.098, 0.024, 0.149},
      {923e12, 899e12, 468368, 455159, "[500;2500]", "[500;2500]", 0.102,
       0.026, 0.161},
      {1237e12, 1209e12, 67818, 66315, "[1000;5000]", "[1000;5000]", 0.132,
       0.031, 0.217},
  };
  const AbcdConfig cfgs[3] = {AbcdConfig::tiling_v1(), AbcdConfig::tiling_v2(),
                              AbcdConfig::tiling_v3()};
  const char* names[3] = {"v1", "v2", "v3"};

  TextTable table({"trait", "v1", "(paper)", "v2", "(paper)", "v3",
                   "(paper)"});
  AbcdProblem problems[3];
  AbcdTraits tr[3];
  for (int i = 0; i < 3; ++i) {
    problems[i] = c65h132(cfgs[i]);
    tr[i] = abcd_traits(problems[i]);
  }

  auto row = [&](const std::string& name, auto get_ours, auto get_paper) {
    std::vector<std::string> cells{name};
    for (int i = 0; i < 3; ++i) {
      cells.push_back(get_ours(tr[i]));
      cells.push_back(parenthesized(get_paper(paper[i])));
    }
    table.add_row(std::move(cells));
  };

  row(
      "M x N x K",
      [](const AbcdTraits& t) {
        return fmt_group(t.m) + " x " + fmt_group(t.n) + " x " +
               fmt_group(t.k);
      },
      [](const PaperRow&) {
        return std::string("26,576 x 2,464,900 x 2,464,900");
      });
  row(
      "#flop", [](const AbcdTraits& t) { return fmt_flop_count(t.flops); },
      [](const PaperRow& p) { return fmt_flop_count(p.flops); });
  row(
      "#flop (opt.)",
      [](const AbcdTraits& t) { return fmt_flop_count(t.flops_opt); },
      [](const PaperRow& p) { return fmt_flop_count(p.flops_opt); });
  row(
      "#GEMM tasks",
      [](const AbcdTraits& t) {
        return fmt_group(static_cast<std::int64_t>(t.gemm_tasks));
      },
      [](const PaperRow& p) {
        return fmt_group(static_cast<std::int64_t>(p.tasks));
      });
  row(
      "#GEMM tasks (opt.)",
      [](const AbcdTraits& t) {
        return fmt_group(static_cast<std::int64_t>(t.gemm_tasks_opt));
      },
      [](const PaperRow& p) {
        return fmt_group(static_cast<std::int64_t>(p.tasks_opt));
      });
  {
    int pi = 0;
    row(
        "avg #rows/block",
        [](const AbcdTraits& t) { return fmt_fixed(t.avg_rows_per_tile, 0); },
        [&pi, &paper](const PaperRow& p) {
          (void)pi;
          return std::string(p.rows_per_block);
        });
    row(
        "avg #cols/block",
        [](const AbcdTraits& t) { return fmt_fixed(t.avg_cols_per_tile, 0); },
        [](const PaperRow& p) { return std::string(p.cols_per_block); });
  }
  row(
      "density of T",
      [](const AbcdTraits& t) { return fmt_percent(t.density_t); },
      [](const PaperRow& p) { return fmt_percent(p.dt); });
  row(
      "density of V",
      [](const AbcdTraits& t) { return fmt_percent(t.density_v); },
      [](const PaperRow& p) { return fmt_percent(p.dv); });
  row(
      "density of R (opt.)",
      [](const AbcdTraits& t) { return fmt_percent(t.density_r); },
      [](const PaperRow& p) { return fmt_percent(p.dr); });

  print_table("Table 1 (reproduced vs paper)", table);

  for (int i = 0; i < 3; ++i) {
    std::printf("%s: %zu row tiles, %zu x %zu B tiles, nnz(B) = %zu\n",
                names[i], problems[i].t.tile_rows(),
                problems[i].v.tile_rows(), problems[i].v.tile_cols(),
                problems[i].v.nnz_tiles());
  }
  return 0;
}
