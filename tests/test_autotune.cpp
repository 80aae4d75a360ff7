/// Autotuner tests: the shape-bucket ladder, select/hit/benchmark
/// accounting, and the persistent tuning cache — round-trip, the full
/// corruption battery (byte flips, truncation, bad magic/version), and
/// wrong-CPU-signature rejection via a forged-but-checksummed header.
/// Uses the test constructor (no env, no persistence) so the process
/// instance's state never leaks in.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/hash.hpp"
#include "tile/autotune.hpp"
#include "tile/cpu_features.hpp"
#include "tile/microkernel.hpp"

namespace bstc {
namespace {

std::string temp_cache_path(const char* tag) {
  return testing::TempDir() + "bstc_tune_" + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Fill a tuner's table via small selects (cheap benchmarks).
void warm(Autotuner& tuner) {
  tuner.select(8, 8, 8);
  tuner.select(24, 16, 12);
  tuner.select(64, 32, 48);
}

TEST(Autotune, BucketLadderIsMonotonicAndCovers) {
  Index prev = 0;
  for (Index x = 1; x <= 2000; ++x) {
    const Index b = Autotuner::bucket_dim(x);
    EXPECT_GE(b, x) << "bucket must round up";
    EXPECT_GE(b, prev) << "ladder must be monotonic in x";
    prev = Autotuner::bucket_dim(x);
  }
  // The ladder collapses near shapes onto one bucket...
  EXPECT_EQ(Autotuner::bucket_dim(30), Autotuner::bucket_dim(32));
  EXPECT_EQ(Autotuner::bucket_dim(600), Autotuner::bucket_dim(768));
  // ...and separates the regimes where geometry choice flips.
  EXPECT_NE(Autotuner::bucket_dim(8), Autotuner::bucket_dim(64));
  // Degenerate extents land in the smallest bucket.
  EXPECT_EQ(Autotuner::bucket_dim(0), Autotuner::bucket_dim(1));
  // Distinct buckets produce distinct keys; permutations differ.
  EXPECT_NE(Autotuner::bucket_key(8, 64, 256),
            Autotuner::bucket_key(256, 64, 8));
  EXPECT_EQ(Autotuner::bucket_key(30, 60, 100),
            Autotuner::bucket_key(32, 64, 128));
}

TEST(Autotune, BucketKeyRejectsExtentsPastTheKeyField) {
  // Each dim gets 21 bits of the packed key; an extent whose bucket
  // exceeds that must fail loudly instead of silently colliding or
  // round-tripping through the cache as a different bucket.
  constexpr Index kTooBig = Index{1} << 22;
  EXPECT_THROW(Autotuner::bucket_key(kTooBig, 8, 8), Error);
  EXPECT_THROW(Autotuner::bucket_key(8, kTooBig, 8), Error);
  EXPECT_THROW(Autotuner::bucket_key(8, 8, kTooBig), Error);
  // The largest in-range bucket still packs.
  constexpr Index kInRange = (Index{1} << 21) - 256;
  EXPECT_NO_THROW(Autotuner::bucket_key(kInRange, kInRange, kInRange));
}

TEST(Autotune, ConcurrentSelectsBenchmarkEachBucketExactlyOnce) {
  // Cold-bucket benchmarks run outside the table lock under a per-bucket
  // in-flight marker: concurrent misses of the same bucket must wait for
  // one benchmark (never race the timer or tune twice), while distinct
  // buckets tune independently. Hammer a handful of buckets from many
  // threads and check the accounting afterwards.
  Autotuner tuner;
  constexpr int kThreads = 8;
  constexpr int kRepsPerThread = 4;
  const Index shapes[][3] = {{8, 8, 8}, {24, 16, 12}, {64, 32, 48},
                             {128, 8, 128}};
  constexpr std::size_t kBuckets = std::size(shapes);

  std::vector<const MicroKernel*> picks(kThreads * kBuckets, nullptr);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int rep = 0; rep < kRepsPerThread; ++rep) {
          for (std::size_t s = 0; s < kBuckets; ++s) {
            const MicroKernel& mk =
                tuner.select(shapes[s][0], shapes[s][1], shapes[s][2]);
            picks[t * kBuckets + s] = &mk;  // last rep's pick
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }

  // Every thread agrees on each bucket's winner.
  for (std::size_t s = 0; s < kBuckets; ++s) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(picks[t * kBuckets + s], picks[s]) << "bucket " << s;
    }
  }
  // Each bucket was benchmarked exactly once (every candidate timed once
  // per bucket), no matter how the threads interleaved.
  const TuneStats s = tuner.stats();
  EXPECT_EQ(s.benchmarks,
            kBuckets * microkernels_for_isa(active_kernel_isa()).size());
  EXPECT_EQ(tuner.table_size(), kBuckets);
  EXPECT_EQ(s.lookups,
            static_cast<std::uint64_t>(kThreads) * kRepsPerThread * kBuckets);
  EXPECT_EQ(s.hits, s.lookups - kBuckets);
}

TEST(Autotune, SelectBenchmarksOncePerBucketThenHits) {
  Autotuner tuner;
  ASSERT_TRUE(tuner.enabled());
  const MicroKernel& first = tuner.select(16, 16, 16);
  TuneStats s = tuner.stats();
  EXPECT_EQ(s.lookups, 1u);
  EXPECT_EQ(s.hits, 0u);
  // Every candidate of the active ISA was timed exactly once.
  EXPECT_EQ(s.benchmarks, microkernels_for_isa(active_kernel_isa()).size());
  EXPECT_EQ(tuner.table_size(), 1u);

  // Same bucket (16x16x16 and 14x15x16 share it): pure table hit.
  const MicroKernel& again = tuner.select(14, 15, 16);
  s = tuner.stats();
  EXPECT_EQ(&again, &first);
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.benchmarks, microkernels_for_isa(active_kernel_isa()).size());

  // New bucket: another benchmark round.
  tuner.select(300, 16, 16);
  s = tuner.stats();
  EXPECT_EQ(s.benchmarks,
            2 * microkernels_for_isa(active_kernel_isa()).size());
  EXPECT_EQ(tuner.table_size(), 2u);

  // Selected kernels always match the active ISA (never mixing ISAs keeps
  // every possible selection bitwise-identical).
  EXPECT_EQ(first.isa, active_kernel_isa());

  // active_kernels() accounts for every bucket exactly once.
  std::size_t total = 0;
  for (const auto& [name, buckets] : tuner.active_kernels()) {
    EXPECT_NE(find_microkernel(name), nullptr);
    total += buckets;
  }
  EXPECT_EQ(total, tuner.table_size());

  tuner.clear();
  EXPECT_EQ(tuner.table_size(), 0u);
  EXPECT_EQ(tuner.stats().lookups, 0u);
}

TEST(Autotune, DisabledTunerRunsDefaultKernel) {
  Autotuner tuner;
  tuner.set_enabled(false);
  const MicroKernel& mk = tuner.select(100, 100, 100);
  EXPECT_EQ(&mk, &default_microkernel());
  EXPECT_EQ(tuner.stats().benchmarks, 0u);
  EXPECT_EQ(tuner.table_size(), 0u);
}

TEST(Autotune, CacheRoundTripRestoresSelectionsWithoutBenchmarks) {
  const std::string path = temp_cache_path("roundtrip");
  Autotuner writer;
  warm(writer);
  const auto written = writer.active_kernels();
  ASSERT_GT(writer.table_size(), 0u);
  ASSERT_TRUE(writer.save_cache(path)) << "save failed";

  Autotuner reader;
  const shm::Status st = reader.load_cache(path);
  ASSERT_TRUE(st) << st.message;
  EXPECT_EQ(reader.table_size(), writer.table_size());
  EXPECT_EQ(reader.active_kernels(), written);

  // Selections covered by the cache are hits — zero re-benchmarks, and
  // the same winners the writer picked.
  const MicroKernel& w = writer.select(8, 8, 8);
  const MicroKernel& r = reader.select(8, 8, 8);
  EXPECT_EQ(&w, &r);
  EXPECT_EQ(reader.stats().benchmarks, 0u);
  EXPECT_EQ(reader.stats().hits, 1u);
  std::remove(path.c_str());
}

TEST(Autotune, CacheRejectsMissingAndShortFiles) {
  Autotuner tuner;
  EXPECT_FALSE(tuner.load_cache(temp_cache_path("missing")));

  const std::string path = temp_cache_path("short");
  write_file(path, std::vector<char>(10, 'x'));
  const shm::Status st = tuner.load_cache(path);
  EXPECT_FALSE(st);
  EXPECT_NE(st.message.find("header"), std::string::npos);
  EXPECT_EQ(tuner.table_size(), 0u);
  std::remove(path.c_str());
}

TEST(Autotune, CacheRejectsEveryCorruption) {
  const std::string path = temp_cache_path("corrupt");
  Autotuner writer;
  warm(writer);
  ASSERT_TRUE(writer.save_cache(path));
  const std::vector<char> good = read_file(path);
  ASSERT_GE(good.size(), sizeof(TuneCacheHeader) + sizeof(TuneCacheEntry));

  // A pristine copy loads.
  {
    Autotuner reader;
    ASSERT_TRUE(reader.load_cache(path));
  }

  // Flip one byte at a time across the whole file: every flip must be
  // rejected (header fields and checksums cover everything). Stride keeps
  // the battery fast while still hitting header, checksum and payload
  // bytes.
  for (std::size_t i = 0; i < good.size(); i += 3) {
    std::vector<char> bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    write_file(path, bad);
    Autotuner reader;
    EXPECT_FALSE(reader.load_cache(path)) << "byte flip at " << i;
    EXPECT_EQ(reader.table_size(), 0u) << "entries leaked at " << i;
  }

  // Truncations: drop the tail at several points.
  for (const std::size_t keep :
       {good.size() - 1, good.size() - sizeof(TuneCacheEntry) / 2,
        sizeof(TuneCacheHeader), std::size_t{0}}) {
    std::vector<char> bad(good.begin(),
                          good.begin() + static_cast<std::ptrdiff_t>(keep));
    write_file(path, bad);
    Autotuner reader;
    EXPECT_FALSE(reader.load_cache(path)) << "truncated to " << keep;
  }

  // Appended garbage is a size mismatch too.
  {
    std::vector<char> bad = good;
    bad.push_back('!');
    write_file(path, bad);
    Autotuner reader;
    EXPECT_FALSE(reader.load_cache(path));
  }
  std::remove(path.c_str());
}

TEST(Autotune, CacheRejectsWrongCpuSignature) {
  // Forge a file whose checksums are all valid but whose CPU signature
  // names a different selection domain — a cache copied from another
  // host. The checksum chain passes; the signature gate must still
  // reject it.
  const std::string path = temp_cache_path("wrongcpu");
  Autotuner writer;
  warm(writer);
  ASSERT_TRUE(writer.save_cache(path));
  std::vector<char> bytes = read_file(path);

  TuneCacheHeader hdr;
  std::memcpy(&hdr, bytes.data(), sizeof hdr);
  ASSERT_EQ(hdr.cpu_signature, writer.cpu_signature());
  hdr.cpu_signature ^= 0xdeadbeefull;
  hdr.header_checksum =
      hash64(&hdr, offsetof(TuneCacheHeader, header_checksum));
  std::memcpy(bytes.data(), &hdr, sizeof hdr);
  write_file(path, bytes);

  Autotuner reader;
  const shm::Status st = reader.load_cache(path);
  EXPECT_FALSE(st);
  EXPECT_NE(st.message.find("signature"), std::string::npos) << st.message;
  EXPECT_EQ(reader.table_size(), 0u);
  std::remove(path.c_str());
}

TEST(Autotune, CacheRejectsUnknownKernelNames) {
  // A fully checksummed file naming a kernel this build doesn't ship
  // (e.g. written by a newer binary) must be rejected, not half-loaded.
  const std::string path = temp_cache_path("unknownkernel");
  Autotuner writer;
  warm(writer);
  ASSERT_TRUE(writer.save_cache(path));
  std::vector<char> bytes = read_file(path);

  TuneCacheEntry entry;
  std::memcpy(&entry, bytes.data() + sizeof(TuneCacheHeader), sizeof entry);
  std::snprintf(entry.kernel, sizeof entry.kernel, "%s", "avx2-64x64");
  std::memcpy(bytes.data() + sizeof(TuneCacheHeader), &entry, sizeof entry);

  TuneCacheHeader hdr;
  std::memcpy(&hdr, bytes.data(), sizeof hdr);
  hdr.payload_checksum = hash64(
      bytes.data() + sizeof hdr,
      static_cast<std::size_t>(hdr.entry_count) * sizeof(TuneCacheEntry));
  hdr.header_checksum =
      hash64(&hdr, offsetof(TuneCacheHeader, header_checksum));
  std::memcpy(bytes.data(), &hdr, sizeof hdr);
  write_file(path, bytes);

  Autotuner reader;
  const shm::Status st = reader.load_cache(path);
  EXPECT_FALSE(st);
  EXPECT_NE(st.message.find("unknown kernel"), std::string::npos)
      << st.message;
  EXPECT_EQ(reader.table_size(), 0u);
  std::remove(path.c_str());
}

TEST(Autotune, SaveIsAtomicIntoExistingFile) {
  // Overwriting an existing cache goes through tmp+rename; the result is
  // a complete, loadable file (no torn in-place writes).
  const std::string path = temp_cache_path("atomic");
  Autotuner a;
  a.select(8, 8, 8);
  ASSERT_TRUE(a.save_cache(path));
  Autotuner b;
  warm(b);
  ASSERT_TRUE(b.save_cache(path));  // last writer wins
  Autotuner reader;
  ASSERT_TRUE(reader.load_cache(path));
  EXPECT_EQ(reader.table_size(), b.table_size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bstc
