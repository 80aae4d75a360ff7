#pragma once

/// \file arena.hpp
/// ShmArena — a POSIX shared-memory segment with an offset-based bump
/// allocator and a sealed, checksummed header.
///
/// The arena is the storage primitive of the shared-memory data plane
/// (OSRM's contiguous block allocator idiom): a writer creates a segment
/// under /dev/shm, packs data through alloc()/at(), then seal()s it —
/// writing a header carrying a magic, the layout version, the content
/// fingerprint, a generation id, an XXH64 checksum of the payload and an
/// FNV-1a checksum of the header fields — and remaps it read-only.
/// Readers attach() read-only and validate everything before serving a
/// single byte: a truncated segment, a bad magic, a wrong layout version,
/// an unsealed or size-inconsistent header, a checksum mismatch or a
/// fingerprint mismatch each yields a clean Status error with no partial
/// attach.
///
/// Offsets, not pointers, are the currency: every process maps the
/// segment at a different address, so consumers address content as
/// `arena.at(offset)`. POSIX keeps an unlinked segment's pages alive
/// until the last mapping goes away, which is exactly the hot-swap
/// contract: the watchdog may unlink a superseded generation while
/// readers are still draining requests against it.

#include <cstddef>
#include <cstdint>
#include <string>

namespace bstc::shm {

/// Attach/build outcome at the shm boundary. Corrupt or mismatched
/// segments are an expected input (a crashed writer, a stale name), so
/// they report here instead of throwing.
struct Status {
  bool ok = true;
  std::string message;

  static Status Ok() { return Status{}; }
  static Status Fail(std::string msg) { return Status{false, std::move(msg)}; }
  explicit operator bool() const { return ok; }
};

inline constexpr std::uint64_t kArenaMagic = 0x42535443414e4131ull;  // BSTCANA1
/// v2: the payload checksum is XXH64 (support/hash), not FNV-1a.
inline constexpr std::uint32_t kArenaLayoutVersion = 2;
/// Payload alignment of every alloc() (cache line; also double-safe).
inline constexpr std::size_t kArenaAlign = 64;

/// The sealed header at offset 0 of every arena segment.
struct ArenaHeader {
  std::uint64_t magic = 0;
  std::uint32_t layout_version = 0;
  std::uint32_t sealed = 0;       ///< 1 once seal() committed
  std::uint64_t total_bytes = 0;  ///< segment size (must equal the file)
  std::uint64_t used_bytes = 0;   ///< allocator high-water mark
  std::uint64_t fingerprint = 0;  ///< content identity (caller-defined)
  std::uint64_t generation = 0;   ///< dataset generation id
  std::uint64_t payload_checksum = 0;  ///< XXH64 of [header end, used)
  std::uint64_t header_checksum = 0;   ///< FNV-1a of the fields above
};
static_assert(sizeof(ArenaHeader) == 64, "arena header layout is sealed");

/// One mapped shared-memory segment (writer or read-only reader).
/// Move-only; unmaps on destruction (the segment itself lives until
/// shm_unlink + last detach).
class ShmArena {
 public:
  ShmArena() = default;
  ~ShmArena();

  ShmArena(ShmArena&& other) noexcept;
  ShmArena& operator=(ShmArena&& other) noexcept;
  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  /// Create a fresh segment of exactly `capacity` bytes (O_EXCL: an
  /// existing name is an error — generations never overwrite in place).
  static Status create(const std::string& name, std::size_t capacity,
                       ShmArena& out);

  /// Attach an existing sealed segment read-only, validating the full
  /// header + payload checksum chain. When `expected_fingerprint` is
  /// non-zero the header's fingerprint must match it.
  static Status attach(const std::string& name, ShmArena& out,
                       std::uint64_t expected_fingerprint = 0);

  /// Remove the segment's name (mappings stay valid until detached).
  /// Ok even when the name is already gone.
  static Status unlink(const std::string& name);

  bool mapped() const { return base_ != nullptr; }
  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t used_bytes() const;
  bool sealed() const;
  std::uint64_t fingerprint() const;
  std::uint64_t generation() const;

  /// Bump-allocate `bytes` (64-byte aligned), returning the offset.
  /// Writer-side only; throws bstc::Error on overflow or after seal().
  std::size_t alloc(std::size_t bytes);

  /// Address of `offset` within the mapping (bounds-checked).
  void* at(std::size_t offset);
  const void* at(std::size_t offset) const;

  /// Commit: write the checksummed header and remap read-only. The
  /// arena stays attached (now as a reader of its own segment).
  Status seal(std::uint64_t fingerprint, std::uint64_t generation);

  /// Unmap and close. Idempotent; also run by the destructor.
  void close();

  /// Total bytes of shared-memory segments currently mapped by this
  /// process (feeds the bstc_shm_resident_bytes gauge).
  static std::size_t process_resident_bytes();

 private:
  ArenaHeader* header();
  const ArenaHeader* header() const;

  std::string name_;
  std::uint8_t* base_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t bump_ = 0;       ///< writer-side allocation cursor
  bool writable_ = false;
  int fd_ = -1;
};

}  // namespace bstc::shm
