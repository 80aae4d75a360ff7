#pragma once

/// \file pack.hpp
/// BLIS-style panel packing for the tile GEMM kernels.
///
/// The packed GEMM copies operand blocks into contiguous, aligned panels
/// before the micro-kernel touches them: A blocks become MR-row panels,
/// B blocks become NR-column panels, both zero-padded to the full register
/// tile so the micro-kernel never branches on fringes. Panels live in a
/// grow-only per-thread arena (pack_arena()), so steady-state packing does
/// no allocation — essential when the executor runs millions of tile GEMMs
/// through worker threads.
///
/// The panel layout is parameterized by the register-tile geometry
/// (MR, NR) of the consuming micro-kernel — the kernel zoo ships several
/// geometries (see microkernel.hpp) and each packs with its own MR/NR.
/// The layout is ISA-independent: scalar, AVX2 and AVX-512 kernels of the
/// same geometry consume the same packed format.
///
/// The KC cache blocking is shared by every geometry on purpose: a C
/// element accumulates one fused multiply-add per k step within a KC
/// block and one alpha-scaled commit per block, so equal KC makes every
/// same-ISA kernel bitwise-identical regardless of the geometry the
/// autotuner picked (asserted in test_gemm_kernels.cpp).

#include <cstddef>

#include "tiling/tiling.hpp"

namespace bstc {

/// Register tile of the default (8x4) micro-kernel geometry.
constexpr Index kPackMR = 8;
constexpr Index kPackNR = 4;

/// Cache blocking of the default geometry: a KC x NR B panel stays in L1
/// across the A panels, the packed MC x KC A block in L2, the packed
/// KC x NC B block in L3. kPackKC is shared by every geometry (see above).
constexpr Index kPackMC = 128;
constexpr Index kPackKC = 256;
constexpr Index kPackNC = 512;

/// Largest register tile any zoo geometry uses (arena sizing bound).
constexpr Index kMaxPackMR = 12;
constexpr Index kMaxPackNR = 12;

/// One micro-kernel geometry: the register tile (mr x nr) and the cache
/// blocking it implies (mc a multiple of mr, nc a multiple of nr; kc is
/// the shared kPackKC).
struct KernelGeometry {
  Index mr = kPackMR;
  Index nr = kPackNR;
  Index mc = kPackMC;
  Index nc = kPackNC;
};

/// Doubles needed for a packed mc x kc A block (rows rounded up to mr).
constexpr std::size_t packed_a_doubles(Index mc, Index kc,
                                       Index mr = kPackMR) {
  return static_cast<std::size_t>((mc + mr - 1) / mr) *
         static_cast<std::size_t>(mr) * static_cast<std::size_t>(kc);
}

/// Doubles needed for a packed kc x nc B block (cols rounded up to nr).
constexpr std::size_t packed_b_doubles(Index kc, Index nc,
                                       Index nr = kPackNR) {
  return static_cast<std::size_t>((nc + nr - 1) / nr) *
         static_cast<std::size_t>(nr) * static_cast<std::size_t>(kc);
}

/// Grow-only, 64-byte-aligned scratch buffer for packed panels. Acquire
/// returns uninitialised storage valid until the next acquire that grows
/// the arena; capacity never shrinks. A `mapped` arena takes its buffer
/// from anonymous mappings instead of malloc.
class PackArena {
 public:
  explicit PackArena(bool mapped = false) : mapped_(mapped) {}
  ~PackArena();
  PackArena(const PackArena&) = delete;
  PackArena& operator=(const PackArena&) = delete;

  double* acquire(std::size_t doubles);
  std::size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  void release() noexcept;

  double* buffer_ = nullptr;
  std::size_t capacity_bytes_ = 0;
  bool mapped_ = false;
};

/// The calling thread's pack arena. Each worker thread owns one arena that
/// grows to the largest panel set it has ever packed and is reused for
/// every subsequent tile GEMM on that thread. A compute-pool helper's
/// arena is mapped, and no thread's arena registers a thread-exit
/// destructor (which would malloc): helpers must not touch malloc (see
/// ComputePool). Other threads keep malloc'ed buffers, which reuse freed
/// heap instead of faulting fresh pages in each time a per-op scheduler
/// thread starts (mapping them too cost serve-mix ~1 MiB of peak RSS).
PackArena& pack_arena();

/// Pack an mc x kc block of column-major A (leading dimension lda) into
/// mr-row panels: dst[p*kc*mr + k*mr + r] = A(p*mr + r, k), rows past mc
/// zero-padded. dst must hold packed_a_doubles(mc, kc, mr).
void pack_a(Index mc, Index kc, const double* a, Index lda, double* dst,
            Index mr = kPackMR);

/// Pack a kc x nc block of column-major B (leading dimension ldb) into
/// nr-column panels: dst[p*kc*nr + k*nr + c] = B(k, p*nr + c), columns
/// past nc zero-padded. dst must hold packed_b_doubles(kc, nc, nr).
void pack_b(Index kc, Index nc, const double* b, Index ldb, double* dst,
            Index nr = kPackNR);

}  // namespace bstc
