#pragma once

/// \file bench_common.hpp
/// Shared helpers for the paper-reproduction benchmark binaries.
///
/// Synthetic problems follow the paper's §5.1 setup: M = 48k, N = K swept
/// upward, tile extents uniform in [512, 2048], both inputs at the target
/// element-wise density, 16 Summit nodes (96 V100s).

#include <cstdio>
#include <string>
#include <vector>

#include "chem/abcd.hpp"
#include "chem/molecule.hpp"
#include "chem/orbitals.hpp"
#include "shape/shape.hpp"
#include "shape/shape_algebra.hpp"
#include "support/format.hpp"
#include "support/table.hpp"
#include "tiling/tiling.hpp"

namespace bstc::bench {

/// A synthetic §5.1 problem instance.
struct SyntheticProblem {
  Tiling mt, kt, nt;
  Shape a, b, c;
};

/// Deterministic synthetic problem with the paper's tiling irregularity.
inline SyntheticProblem make_synthetic(Index m, Index n_eq_k, double density,
                                       std::uint64_t seed = 42) {
  Rng rng(seed);
  SyntheticProblem p;
  p.mt = Tiling::random_uniform(m, 512, 2048, rng);
  p.kt = Tiling::random_uniform(n_eq_k, 512, 2048, rng);
  p.nt = Tiling::random_uniform(n_eq_k, 512, 2048, rng);
  p.a = Shape::random(p.mt, p.kt, density, rng);
  p.b = Shape::random(p.kt, p.nt, density, rng);
  p.c = contract_shape(p.a, p.b);
  return p;
}

/// The paper's Figure 2/3/4 sweep values.
inline std::vector<Index> fig2_sizes() {
  return {48000, 96000, 192000, 384000, 576000, 768000};
}
inline std::vector<double> fig2_densities() {
  return {1.0, 0.75, 0.5, 0.25, 0.1};
}
constexpr Index kFig2M = 48000;

/// The C65H132 problem for one of the paper's three tilings.
inline AbcdProblem c65h132(const AbcdConfig& cfg) {
  return build_abcd(OrbitalSystem::build(Molecule::alkane(65)), cfg);
}

/// Figure 7-9 GPU counts.
inline std::vector<int> fig7_gpu_counts() {
  return {3, 6, 12, 24, 48, 96, 108};
}

/// "(text)": a paper reference value beside ours. Appended in place;
/// `"(" + std::string&&` trips GCC 12's -Wrestrict false positive.
inline std::string parenthesized(const std::string& text) {
  std::string out = "(";
  out.append(text).append(")");
  return out;
}

/// Print a table with a headline and its CSV form.
inline void print_table(const std::string& title, const TextTable& table) {
  std::printf("== %s ==\n%s\n", title.c_str(), table.render().c_str());
  std::printf("-- CSV --\n%s\n", table.to_csv().c_str());
}

}  // namespace bstc::bench
