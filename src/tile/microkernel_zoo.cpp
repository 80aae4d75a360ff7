#include <string>
#include <vector>

#include "support/error.hpp"
#include "tile/microkernel.hpp"

namespace bstc {
namespace {

/// The zoo is assembled once from the per-ISA variant tables, with names
/// derived from the (isa, geometry) fields — never hand-written — so a
/// kernel's reported identity cannot drift from what actually runs.
std::string kernel_name(KernelIsa isa, const KernelGeometry& g) {
  std::string name = kernel_isa_name(isa);
  name.append("-").append(std::to_string(g.mr));
  name.append("x").append(std::to_string(g.nr));
  return name;
}

struct Zoo {
  std::vector<MicroKernel> kernels;
  // [first, last) index ranges per ISA, in KernelIsa order.
  std::size_t first[3] = {0, 0, 0};
  std::size_t last[3] = {0, 0, 0};
};

const Zoo& zoo() {
  static const Zoo z = [] {
    Zoo built;
    const auto add = [&built](KernelIsa isa,
                              std::span<const detail::KernelVariant> variants) {
      built.first[static_cast<std::size_t>(isa)] = built.kernels.size();
      for (const detail::KernelVariant& v : variants) {
        if (v.fn == nullptr) continue;
        BSTC_REQUIRE(v.geom.mc % v.geom.mr == 0 && v.geom.nc % v.geom.nr == 0,
                     "kernel cache blocking must be a multiple of the "
                     "register tile");
        BSTC_REQUIRE(v.geom.mr <= kMaxPackMR && v.geom.nr <= kMaxPackNR,
                     "kernel geometry exceeds the arena sizing bound");
        built.kernels.push_back(
            {kernel_name(isa, v.geom), isa, v.geom, v.fn});
      }
      built.last[static_cast<std::size_t>(isa)] = built.kernels.size();
    };
    add(KernelIsa::kScalar, detail::scalar_kernel_variants());
    add(KernelIsa::kAvx2, detail::avx2_kernel_variants());
    add(KernelIsa::kAvx512, detail::avx512_kernel_variants());
    return built;
  }();
  return z;
}

}  // namespace

std::span<const MicroKernel> microkernel_zoo() { return zoo().kernels; }

std::span<const MicroKernel> microkernels_for_isa(KernelIsa isa) {
  const Zoo& z = zoo();
  const auto i = static_cast<std::size_t>(isa);
  return std::span<const MicroKernel>(z.kernels)
      .subspan(z.first[i], z.last[i] - z.first[i]);
}

const MicroKernel& default_microkernel() {
  static const MicroKernel* const mk = []() -> const MicroKernel* {
    const auto ks = microkernels_for_isa(active_kernel_isa());
    BSTC_REQUIRE(!ks.empty(), "no micro-kernel available for this ISA");
    for (const MicroKernel& k : ks) {
      if (k.geom.mr == kPackMR && k.geom.nr == kPackNR) return &k;
    }
    return &ks.front();
  }();
  return *mk;
}

const MicroKernel* find_microkernel(const std::string& name) {
  for (const MicroKernel& k : microkernel_zoo()) {
    if (k.name == name) return &k;
  }
  return nullptr;
}

}  // namespace bstc
