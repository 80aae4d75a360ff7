#include "tile/autotune.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "tile/cpu_features.hpp"
#include "tile/gemm.hpp"

namespace bstc {
namespace {

// Extent ladder for shape bucketing. Block-sparse tilings concentrate on
// a handful of characteristic extents; the ladder keeps the table small
// while separating the regimes where geometry choice actually flips
// (register-tile fringe fraction, panel reuse depth).
constexpr Index kBucketLadder[] = {4,  8,  12, 16,  24,  32,  48,
                                   64, 96, 128, 192, 256, 384, 512};

// Benchmark sizing: enough flops per timed rep to dominate timer noise,
// but capped so a first-touch pause stays in the low milliseconds.
constexpr double kBenchFlopTarget = 3.0e7;
constexpr int kBenchReps = 3;
constexpr Index kBenchMaxExtent = 512;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Autotuner::Autotuner() = default;

Autotuner& Autotuner::instance() {
  static Autotuner* const tuner = [] {
    auto* t = new Autotuner();
    if (const char* env = std::getenv("BSTC_TUNE")) {
      if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0) {
        t->enabled_ = false;
      }
    }
    // A full BSTC_KERNEL name ("avx2-8x6") pins that geometry for every
    // shape; resolve it against the active ISA so an explicit-downgrade
    // request still pins within whatever ISA actually dispatched.
    const std::string& geom = pinned_kernel_geometry();
    if (!geom.empty()) {
      const std::string want =
          std::string(kernel_isa_name(active_kernel_isa())) + "-" + geom;
      t->pinned_ = find_microkernel(want);
      if (t->pinned_ == nullptr) {
        std::fprintf(stderr,
                     "bstc: BSTC_KERNEL geometry %s not in this build's zoo; "
                     "tuning normally\n",
                     want.c_str());
      }
    }
    if (const char* env = std::getenv("BSTC_TUNE_CACHE")) {
      if (*env != '\0') {
        t->cache_path_ = env;
        shm::Status st = t->load_cache(t->cache_path_);
        if (!st && std::ifstream(t->cache_path_).good()) {
          std::fprintf(stderr, "bstc: ignoring tuning cache %s: %s\n",
                       t->cache_path_.c_str(), st.message.c_str());
        }
      }
    }
    return t;
  }();
  return *tuner;
}

Index Autotuner::bucket_dim(Index x) {
  if (x <= 0) return kBucketLadder[0];
  for (Index step : kBucketLadder) {
    if (x <= step) return step;
  }
  // Above the ladder, round up to the next multiple of 256: large tiles
  // are all deep in the cache-blocked regime where geometry choice is
  // stable, so coarse buckets suffice.
  return ((x + 255) / 256) * 256;
}

std::uint64_t Autotuner::bucket_key(Index m, Index k, Index n) {
  const auto bm = static_cast<std::uint64_t>(bucket_dim(m));
  const auto bk = static_cast<std::uint64_t>(bucket_dim(k));
  const auto bn = static_cast<std::uint64_t>(bucket_dim(n));
  // Each dim gets 21 bits of the key; an extent past that must fail
  // loudly rather than silently collide or round-trip through the cache
  // as a different bucket.
  BSTC_REQUIRE((bm | bk | bn) < (1ull << 21),
               "tune: bucketed extent exceeds the 21-bit key field");
  return (bm << 42) | (bk << 21) | bn;
}

const MicroKernel& Autotuner::select(Index m, Index k, Index n) {
  if (pinned_ != nullptr) {
    std::lock_guard lock(mutex_);
    ++stats_.lookups;
    ++stats_.hits;
    return *pinned_;
  }
  if (!enabled_) return default_microkernel();

  const std::uint64_t key = bucket_key(m, k, n);
  {
    std::unique_lock lock(mutex_);
    ++stats_.lookups;
    // A cold bucket's benchmark runs multiple milliseconds — far too long
    // to hold the table lock. The tuning thread marks the bucket in-flight
    // and benchmarks unlocked; concurrent misses of the SAME bucket wait
    // on the marker (so they never race the timer), while hits and misses
    // of other buckets proceed (and tune concurrently) unimpeded.
    for (;;) {
      auto it = table_.find(key);
      if (it != table_.end()) {
        ++stats_.hits;
        return *it->second;
      }
      if (tuning_.insert(key).second) break;  // we own this bucket's tune
      tuning_done_.wait(lock);
    }
  }
  const MicroKernel* chosen = nullptr;
  try {
    chosen = benchmark_bucket(bucket_dim(m), bucket_dim(k), bucket_dim(n));
  } catch (...) {
    // Drop the in-flight marker so waiters retry instead of hanging.
    {
      std::lock_guard lock(mutex_);
      tuning_.erase(key);
    }
    tuning_done_.notify_all();
    throw;
  }
  {
    std::lock_guard lock(mutex_);
    table_[key] = chosen;
    tuning_.erase(key);
  }
  tuning_done_.notify_all();
  if (!cache_path_.empty()) {
    shm::Status st = save_cache(cache_path_);
    if (!st) {
      std::fprintf(stderr, "bstc: tuning cache save failed: %s\n",
                   st.message.c_str());
    }
  }
  return *chosen;
}

const MicroKernel* Autotuner::benchmark_bucket(Index m, Index k, Index n) {
  std::span<const MicroKernel> candidates =
      microkernels_for_isa(active_kernel_isa());
  if (candidates.empty()) return &default_microkernel();

  const Index bm = std::min(m, kBenchMaxExtent);
  const Index bk = std::min(k, kBenchMaxExtent);
  const Index bn = std::min(n, kBenchMaxExtent);

  std::string span_name = "tune(";
  span_name.append(std::to_string(bm)).append(",");
  span_name.append(std::to_string(bk)).append(",");
  span_name.append(std::to_string(bn)).append(")");
  obs::ScopedSpan span(obs::Category::kTune, std::move(span_name));

  // Synthetic operands, deterministic per bucket. C is written with
  // beta=0 each rep, so one buffer serves every candidate.
  Rng rng(bucket_key(bm, bk, bn) ^ 0x5bd1e995u);
  std::vector<double> a(static_cast<std::size_t>(bm) * bk);
  std::vector<double> b(static_cast<std::size_t>(bk) * bn);
  std::vector<double> c(static_cast<std::size_t>(bm) * bn, 0.0);
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);

  const double flops = 2.0 * static_cast<double>(bm) *
                       static_cast<double>(bk) * static_cast<double>(bn);
  const int iters = static_cast<int>(
      std::clamp(kBenchFlopTarget / std::max(flops, 1.0), 1.0, 64.0));

  const MicroKernel* best = &candidates.front();
  double best_time = std::numeric_limits<double>::infinity();
  for (const MicroKernel& mk : candidates) {
    // Warm-up rep: faults the pack arena growth and operand pages out of
    // the timed loops.
    gemm_view_with(mk, bm, bn, bk, 1.0, a.data(), bm, b.data(), bk, 0.0,
                   c.data(), bm);
    double elapsed = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kBenchReps; ++rep) {
      const double t0 = now_seconds();
      for (int it = 0; it < iters; ++it) {
        gemm_view_with(mk, bm, bn, bk, 1.0, a.data(), bm, b.data(), bk, 0.0,
                       c.data(), bm);
      }
      elapsed = std::min(elapsed, (now_seconds() - t0) / iters);
    }
    {
      // Called outside the table lock (see select()); take it just for
      // the stats bump.
      std::lock_guard lock(mutex_);
      ++stats_.benchmarks;
    }
    if (elapsed < best_time) {
      best_time = elapsed;
      best = &mk;
    }
  }
  return best;
}

void Autotuner::clear() {
  std::lock_guard lock(mutex_);
  table_.clear();
  stats_ = TuneStats{};
}

TuneStats Autotuner::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::size_t Autotuner::table_size() const {
  std::lock_guard lock(mutex_);
  return table_.size();
}

std::vector<std::pair<std::string, std::size_t>> Autotuner::active_kernels()
    const {
  std::map<std::string, std::size_t> per_kernel;
  {
    std::lock_guard lock(mutex_);
    for (const auto& [key, mk] : table_) per_kernel[mk->name] += 1;
  }
  return {per_kernel.begin(), per_kernel.end()};
}

std::uint64_t Autotuner::cpu_signature() const {
  // Identity of the selection domain: a cache is only meaningful on a
  // host that dispatches the same ISA and ships the same candidate set.
  std::uint64_t sig =
      hash64(&kTuneCacheLayoutVersion, sizeof kTuneCacheLayoutVersion);
  const char* isa = kernel_isa_name(active_kernel_isa());
  sig = hash64(isa, std::strlen(isa), sig);
  for (const MicroKernel& mk : microkernels_for_isa(active_kernel_isa())) {
    sig = hash64(mk.name.data(), mk.name.size(), sig);
  }
  return sig;
}

shm::Status Autotuner::load_cache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return shm::Status::Fail("tune cache: cannot open " + path);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (bytes.size() < sizeof(TuneCacheHeader)) {
    return shm::Status::Fail("tune cache: file shorter than its header");
  }

  TuneCacheHeader hdr;
  std::memcpy(&hdr, bytes.data(), sizeof hdr);
  if (hdr.magic != kTuneCacheMagic) {
    return shm::Status::Fail("tune cache: bad magic");
  }
  if (hdr.layout_version != kTuneCacheLayoutVersion) {
    return shm::Status::Fail("tune cache: layout version mismatch");
  }
  const std::uint64_t want_hdr =
      hash64(&hdr, offsetof(TuneCacheHeader, header_checksum));
  if (hdr.header_checksum != want_hdr) {
    return shm::Status::Fail("tune cache: header checksum mismatch");
  }
  const std::size_t payload_bytes =
      static_cast<std::size_t>(hdr.entry_count) * sizeof(TuneCacheEntry);
  if (bytes.size() != sizeof hdr + payload_bytes) {
    return shm::Status::Fail("tune cache: payload size mismatch");
  }
  const std::uint64_t want_payload =
      hash64(bytes.data() + sizeof hdr, payload_bytes);
  if (hdr.payload_checksum != want_payload) {
    return shm::Status::Fail("tune cache: payload checksum mismatch");
  }
  if (hdr.cpu_signature != cpu_signature()) {
    return shm::Status::Fail(
        "tune cache: CPU signature mismatch (different ISA or kernel set)");
  }

  std::vector<std::pair<std::uint64_t, const MicroKernel*>> loaded;
  loaded.reserve(hdr.entry_count);
  for (std::uint32_t i = 0; i < hdr.entry_count; ++i) {
    TuneCacheEntry e;
    std::memcpy(&e, bytes.data() + sizeof hdr + i * sizeof e, sizeof e);
    if (std::memchr(e.kernel, '\0', sizeof e.kernel) == nullptr) {
      return shm::Status::Fail("tune cache: unterminated kernel name");
    }
    const MicroKernel* mk = find_microkernel(e.kernel);
    if (mk == nullptr || mk->isa != active_kernel_isa()) {
      return shm::Status::Fail(std::string("tune cache: unknown kernel ") +
                               e.kernel);
    }
    loaded.emplace_back(bucket_key(e.m, e.k, e.n), mk);
  }

  std::lock_guard lock(mutex_);
  for (const auto& [key, mk] : loaded) table_[key] = mk;
  return shm::Status::Ok();
}

shm::Status Autotuner::save_cache(const std::string& path) const {
  std::vector<TuneCacheEntry> entries;
  {
    std::lock_guard lock(mutex_);
    entries.reserve(table_.size());
    for (const auto& [key, mk] : table_) {
      TuneCacheEntry e;
      e.m = static_cast<std::uint32_t>((key >> 42) & 0x1fffffull);
      e.k = static_cast<std::uint32_t>((key >> 21) & 0x1fffffull);
      e.n = static_cast<std::uint32_t>(key & 0x1fffffull);
      std::snprintf(e.kernel, sizeof e.kernel, "%s", mk->name.c_str());
      entries.push_back(e);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const TuneCacheEntry& a, const TuneCacheEntry& b) {
              return std::tie(a.m, a.k, a.n) < std::tie(b.m, b.k, b.n);
            });

  TuneCacheHeader hdr;
  hdr.magic = kTuneCacheMagic;
  hdr.layout_version = kTuneCacheLayoutVersion;
  hdr.entry_count = static_cast<std::uint32_t>(entries.size());
  hdr.cpu_signature = cpu_signature();
  hdr.payload_checksum =
      hash64(entries.data(), entries.size() * sizeof(TuneCacheEntry));
  hdr.header_checksum =
      hash64(&hdr, offsetof(TuneCacheHeader, header_checksum));

  // Atomic publish: write a sibling temp file, then rename over the
  // target. Co-located serve workers racing here each land a complete
  // file; last writer wins, and no reader ever sees a torn cache.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return shm::Status::Fail("tune cache: cannot write " + tmp);
    out.write(reinterpret_cast<const char*>(&hdr), sizeof hdr);
    out.write(reinterpret_cast<const char*>(entries.data()),
              static_cast<std::streamsize>(entries.size() *
                                           sizeof(TuneCacheEntry)));
    if (!out) return shm::Status::Fail("tune cache: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return shm::Status::Fail("tune cache: rename to " + path + " failed");
  }
  return shm::Status::Ok();
}

const MicroKernel& select_microkernel(Index m, Index k, Index n) {
  return Autotuner::instance().select(m, k, n);
}

}  // namespace bstc
