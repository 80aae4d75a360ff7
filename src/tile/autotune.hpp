#pragma once

/// \file autotune.hpp
/// Per-shape micro-kernel autotuning with a persistent tuning cache —
/// DBCSR's libsmm approach adapted to the zoo in microkernel.hpp.
///
/// Block-sparse workloads hit many small, skewed (m, k, n) tile shapes,
/// and no single register geometry is best for all of them. The
/// autotuner buckets each shape onto a coarse extent ladder, benchmarks
/// every candidate kernel of the active ISA on the bucket's first use
/// (a few repetitions on synthetic operands, best time wins), and
/// records the winner in a process-wide selection table. Because every
/// same-ISA kernel is bitwise-identical (see microkernel.hpp), selection
/// is purely a performance decision — results never depend on it.
///
/// Winners persist to an on-disk tuning cache (`BSTC_TUNE_CACHE=path`)
/// keyed by a CPU signature (active ISA + candidate kernel set), with the
/// same checksummed-header discipline as shm/arena: magic, layout
/// version, header and payload checksums all validated before a single
/// entry is trusted, and a wrong CPU signature rejects the file. The
/// cache is reloaded across runs and shared by co-located serve workers
/// (they inherit BSTC_TUNE_CACHE from the front; writes go through an
/// atomic rename, so concurrent writers are safe).
///
/// Environment:
///   * BSTC_TUNE=off|0     — disable tuning (default 8x4 kernel always);
///   * BSTC_TUNE_CACHE=p   — load winners from `p` at startup, persist
///                           new winners back to it;
///   * BSTC_KERNEL=avx2-8x6 (etc.) — pin one geometry, bypassing tuning.
///
/// Observability: the tuner owns its counts (stats(), active_kernels());
/// the service exposition renders them as bstc_tune_*_total and a
/// per-kernel bstc_tune_active_buckets{kernel="..."} gauge. kTune spans
/// mark benchmark pauses in traces.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "shm/arena.hpp"  // shm::Status — the attach/validate idiom
#include "tile/microkernel.hpp"

namespace bstc {

/// Counters of the autotuner's life so far (exposed as bstc_tune_*_total).
struct TuneStats {
  std::uint64_t lookups = 0;     ///< select() calls while enabled
  std::uint64_t hits = 0;        ///< served from the table (incl. cache)
  std::uint64_t benchmarks = 0;  ///< candidate kernels actually timed
};

inline constexpr std::uint64_t kTuneCacheMagic = 0x4253544354554e31ull;  // BSTCTUN1
/// v2: the signature, header and payload checksums are XXH64
/// (support/hash), not FNV-1a.
inline constexpr std::uint32_t kTuneCacheLayoutVersion = 2;

/// The checksummed header at offset 0 of a tuning-cache file (same
/// discipline as shm::ArenaHeader; sealed 64-byte layout).
struct TuneCacheHeader {
  std::uint64_t magic = 0;
  std::uint32_t layout_version = 0;
  std::uint32_t entry_count = 0;
  std::uint64_t cpu_signature = 0;  ///< active ISA + candidate kernel set
  std::uint64_t reserved0 = 0;
  std::uint64_t reserved1 = 0;
  std::uint64_t reserved2 = 0;
  std::uint64_t payload_checksum = 0;  ///< XXH64 of the entry array
  std::uint64_t header_checksum = 0;   ///< XXH64 of the fields above
};
static_assert(sizeof(TuneCacheHeader) == 64, "tune cache header is sealed");

/// One persisted winner: the bucket triple and the kernel's derived name.
struct TuneCacheEntry {
  std::uint32_t m = 0;
  std::uint32_t k = 0;
  std::uint32_t n = 0;
  std::uint32_t reserved = 0;
  char kernel[32] = {};
};
static_assert(sizeof(TuneCacheEntry) == 48, "tune cache entry is sealed");

/// The process-wide selection table. All methods are thread-safe; a
/// bucket's first select() benchmarks OUTSIDE the table lock under a
/// per-bucket in-flight marker, so concurrent misses of the same bucket
/// wait for one benchmark while hits and other buckets proceed (and
/// distinct cold buckets tune concurrently). Every later lookup is one
/// map find.
class Autotuner {
 public:
  /// The process instance (env-configured: BSTC_TUNE, BSTC_TUNE_CACHE,
  /// BSTC_KERNEL pin).
  static Autotuner& instance();

  /// Testing constructor: no env, no persistence, enabled, no pin.
  Autotuner();

  /// The kernel to run for an (m, k, n) tile GEMM under the active ISA.
  /// Disabled or pinned tuners return without consulting the table.
  const MicroKernel& select(Index m, Index k, Index n);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Drop every selection and zero the stats (tests, bench ablations).
  void clear();

  TuneStats stats() const;
  std::size_t table_size() const;

  /// (kernel name, buckets currently won) for every selected kernel —
  /// the active-kernel gauge the per-rank metrics gather ships.
  std::vector<std::pair<std::string, std::size_t>> active_kernels() const;

  /// Load winners from a tuning-cache file. Validates magic, layout
  /// version, header checksum, payload checksum, entry-count/size
  /// consistency and the CPU signature before trusting any entry;
  /// entries naming kernels absent from this build are rejected too.
  /// Loaded entries count as table hits on later select()s.
  shm::Status load_cache(const std::string& path);

  /// Persist the current table (atomic: temp file + rename).
  shm::Status save_cache(const std::string& path) const;

  /// Identity of the selection domain: active ISA + candidate kernel
  /// names + layout version. A cache from another CPU (different ISA or
  /// kernel set) never validates here.
  std::uint64_t cpu_signature() const;

  /// Coarse extent ladder for shape bucketing (monotonic, >= x).
  static Index bucket_dim(Index x);
  /// Packed (bucketed m, k, n) key.
  static std::uint64_t bucket_key(Index m, Index k, Index n);

 private:
  const MicroKernel* benchmark_bucket(Index m, Index k, Index n);

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, const MicroKernel*> table_;
  std::unordered_set<std::uint64_t> tuning_;  ///< buckets mid-benchmark
  std::condition_variable tuning_done_;       ///< signaled per recorded winner
  TuneStats stats_;
  bool enabled_ = true;
  const MicroKernel* pinned_ = nullptr;  ///< BSTC_KERNEL geometry pin
  std::string cache_path_;               ///< "" = no persistence
};

/// Autotuned kernel choice for one GEMM through the process instance.
const MicroKernel& select_microkernel(Index m, Index k, Index n);

}  // namespace bstc
