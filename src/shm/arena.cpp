#include "shm/arena.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/obs.hpp"
#include "service/fingerprint.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace bstc::shm {
namespace {

/// Mapped-bytes accounting for the resident-bytes gauge: one atomic for
/// the process, mirrored into the obs registry on every change.
std::atomic<std::size_t> g_resident_bytes{0};

void resident_add(std::size_t bytes) {
  const std::size_t now = g_resident_bytes.fetch_add(bytes) + bytes;
  obs::Registry::instance().gauge_set("bstc_shm_resident_bytes",
                                      static_cast<std::int64_t>(now));
}

void resident_sub(std::size_t bytes) {
  const std::size_t now = g_resident_bytes.fetch_sub(bytes) - bytes;
  obs::Registry::instance().gauge_set("bstc_shm_resident_bytes",
                                      static_cast<std::int64_t>(now));
}

/// FNV-1a over every header field above header_checksum itself.
std::uint64_t header_checksum_of(const ArenaHeader& h) {
  std::uint64_t state = fnv1a64_u64(h.magic, 0xcbf29ce484222325ull);
  state = fnv1a64_u64(
      (static_cast<std::uint64_t>(h.layout_version) << 32) | h.sealed, state);
  state = fnv1a64_u64(h.total_bytes, state);
  state = fnv1a64_u64(h.used_bytes, state);
  state = fnv1a64_u64(h.fingerprint, state);
  state = fnv1a64_u64(h.generation, state);
  state = fnv1a64_u64(h.payload_checksum, state);
  return state;
}

Status errno_status(const std::string& what, const std::string& name) {
  return Status::Fail("shm: " + what + " failed for '" + name + "': " +
                      std::strerror(errno));
}

}  // namespace

ShmArena::~ShmArena() { close(); }

ShmArena::ShmArena(ShmArena&& other) noexcept
    : name_(std::move(other.name_)),
      base_(other.base_),
      capacity_(other.capacity_),
      bump_(other.bump_),
      writable_(other.writable_),
      fd_(other.fd_) {
  other.base_ = nullptr;
  other.capacity_ = 0;
  other.fd_ = -1;
}

ShmArena& ShmArena::operator=(ShmArena&& other) noexcept {
  if (this != &other) {
    close();
    name_ = std::move(other.name_);
    base_ = other.base_;
    capacity_ = other.capacity_;
    bump_ = other.bump_;
    writable_ = other.writable_;
    fd_ = other.fd_;
    other.base_ = nullptr;
    other.capacity_ = 0;
    other.fd_ = -1;
  }
  return *this;
}

void ShmArena::close() {
  if (base_ != nullptr) {
    ::munmap(base_, capacity_);
    resident_sub(capacity_);
    base_ = nullptr;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  capacity_ = 0;
}

std::size_t ShmArena::process_resident_bytes() {
  return g_resident_bytes.load();
}

Status ShmArena::create(const std::string& name, std::size_t capacity,
                        ShmArena& out) {
  if (name.empty() || name[0] != '/') {
    return Status::Fail("shm: segment name must start with '/'");
  }
  if (capacity < sizeof(ArenaHeader)) {
    return Status::Fail("shm: capacity smaller than the arena header");
  }
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) return errno_status("shm_open(create)", name);
  if (::ftruncate(fd, static_cast<off_t>(capacity)) != 0) {
    const Status st = errno_status("ftruncate", name);
    ::close(fd);
    ::shm_unlink(name.c_str());
    return st;
  }
  void* base = ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE, MAP_SHARED,
                      fd, 0);
  if (base == MAP_FAILED) {
    const Status st = errno_status("mmap", name);
    ::close(fd);
    ::shm_unlink(name.c_str());
    return st;
  }
  out.close();
  out.name_ = name;
  out.base_ = static_cast<std::uint8_t*>(base);
  out.capacity_ = capacity;
  out.bump_ = sizeof(ArenaHeader);
  out.writable_ = true;
  out.fd_ = fd;
  resident_add(capacity);
  std::memset(out.base_, 0, sizeof(ArenaHeader));
  return Status::Ok();
}

Status ShmArena::attach(const std::string& name, ShmArena& out,
                        std::uint64_t expected_fingerprint) {
  if (name.empty() || name[0] != '/') {
    return Status::Fail("shm: segment name must start with '/'");
  }
  const int fd = ::shm_open(name.c_str(), O_RDONLY, 0);
  if (fd < 0) return errno_status("shm_open(attach)", name);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status s = errno_status("fstat", name);
    ::close(fd);
    return s;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < sizeof(ArenaHeader)) {
    ::close(fd);
    return Status::Fail("shm: segment '" + name +
                        "' is truncated below the arena header");
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    const Status s = errno_status("mmap", name);
    ::close(fd);
    return s;
  }
  // Validate before publishing anything into `out` — a failed attach
  // must leave no partial state behind.
  ArenaHeader header;
  std::memcpy(&header, base, sizeof header);
  Status verdict = Status::Ok();
  if (header.magic != kArenaMagic) {
    verdict = Status::Fail("shm: bad magic in segment '" + name + "'");
  } else if (header.layout_version != kArenaLayoutVersion) {
    verdict = Status::Fail(
        "shm: segment '" + name + "' has layout version " +
        std::to_string(header.layout_version) + ", expected " +
        std::to_string(kArenaLayoutVersion));
  } else if (header.sealed != 1) {
    verdict = Status::Fail("shm: segment '" + name + "' is not sealed");
  } else if (header.header_checksum != header_checksum_of(header)) {
    verdict = Status::Fail("shm: header checksum mismatch in segment '" +
                           name + "'");
  } else if (header.total_bytes != size) {
    verdict = Status::Fail(
        "shm: segment '" + name + "' is truncated (header says " +
        std::to_string(header.total_bytes) + " bytes, file has " +
        std::to_string(size) + ")");
  } else if (header.used_bytes < sizeof(ArenaHeader) ||
             header.used_bytes > size) {
    verdict = Status::Fail("shm: used-bytes out of range in segment '" +
                           name + "'");
  } else if (header.payload_checksum !=
             hash64(static_cast<const std::uint8_t*>(base) +
                        sizeof(ArenaHeader),
                    header.used_bytes - sizeof(ArenaHeader))) {
    verdict = Status::Fail("shm: payload checksum mismatch in segment '" +
                           name + "'");
  } else if (expected_fingerprint != 0 &&
             header.fingerprint != expected_fingerprint) {
    verdict = Status::Fail("shm: fingerprint mismatch in segment '" + name +
                           "' (stale generation?)");
  }
  if (!verdict) {
    ::munmap(base, size);
    ::close(fd);
    return verdict;
  }
  out.close();
  out.name_ = name;
  out.base_ = static_cast<std::uint8_t*>(base);
  out.capacity_ = size;
  out.bump_ = header.used_bytes;
  out.writable_ = false;
  out.fd_ = fd;
  resident_add(size);
  obs::Registry::instance().counter_add("bstc_shm_attaches_total");
  return Status::Ok();
}

Status ShmArena::unlink(const std::string& name) {
  if (::shm_unlink(name.c_str()) != 0 && errno != ENOENT) {
    return errno_status("shm_unlink", name);
  }
  return Status::Ok();
}

ArenaHeader* ShmArena::header() {
  return reinterpret_cast<ArenaHeader*>(base_);
}

const ArenaHeader* ShmArena::header() const {
  return reinterpret_cast<const ArenaHeader*>(base_);
}

std::size_t ShmArena::used_bytes() const {
  BSTC_REQUIRE(mapped(), "shm: arena is not mapped");
  return writable_ ? bump_ : static_cast<std::size_t>(header()->used_bytes);
}

bool ShmArena::sealed() const {
  BSTC_REQUIRE(mapped(), "shm: arena is not mapped");
  return header()->sealed == 1;
}

std::uint64_t ShmArena::fingerprint() const {
  BSTC_REQUIRE(mapped(), "shm: arena is not mapped");
  return header()->fingerprint;
}

std::uint64_t ShmArena::generation() const {
  BSTC_REQUIRE(mapped(), "shm: arena is not mapped");
  return header()->generation;
}

std::size_t ShmArena::alloc(std::size_t bytes) {
  BSTC_REQUIRE(mapped() && writable_, "shm: alloc needs a writable arena");
  BSTC_REQUIRE(header()->sealed == 0, "shm: alloc after seal");
  const std::size_t offset =
      (bump_ + kArenaAlign - 1) / kArenaAlign * kArenaAlign;
  BSTC_REQUIRE(offset + bytes <= capacity_,
               "shm: arena capacity exhausted (asked " +
                   std::to_string(bytes) + " at " + std::to_string(offset) +
                   " of " + std::to_string(capacity_) + ")");
  bump_ = offset + bytes;
  return offset;
}

void* ShmArena::at(std::size_t offset) {
  BSTC_REQUIRE(mapped() && offset <= capacity_,
               "shm: offset outside the arena");
  return base_ + offset;
}

const void* ShmArena::at(std::size_t offset) const {
  BSTC_REQUIRE(mapped() && offset <= capacity_,
               "shm: offset outside the arena");
  return base_ + offset;
}

Status ShmArena::seal(std::uint64_t fingerprint, std::uint64_t generation) {
  if (!mapped() || !writable_) {
    return Status::Fail("shm: seal needs a writable arena");
  }
  if (header()->sealed != 0) return Status::Fail("shm: arena already sealed");
  ArenaHeader h;
  h.magic = kArenaMagic;
  h.layout_version = kArenaLayoutVersion;
  h.sealed = 1;
  h.total_bytes = capacity_;
  h.used_bytes = bump_;
  h.fingerprint = fingerprint;
  h.generation = generation;
  h.payload_checksum =
      hash64(base_ + sizeof(ArenaHeader), bump_ - sizeof(ArenaHeader));
  h.header_checksum = header_checksum_of(h);
  std::memcpy(base_, &h, sizeof h);
  if (::msync(base_, capacity_, MS_SYNC) != 0) {
    return errno_status("msync", name_);
  }
  // Readers-only from here, ourselves included: a sealed generation is
  // immutable by construction, enforced by the page protection.
  if (::mprotect(base_, capacity_, PROT_READ) != 0) {
    return errno_status("mprotect", name_);
  }
  writable_ = false;
  return Status::Ok();
}

}  // namespace bstc::shm
