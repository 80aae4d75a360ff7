#pragma once

/// \file fingerprint.hpp
/// Stable fingerprints of a contraction problem's identity.
///
/// The serving layer caches ExecutionPlans keyed by *what problem they
/// solve*: the sparsity shapes of A, B and C, the machine model the plan
/// was built for, and the inspector knobs. Two requests with the same
/// fingerprint are the same planning problem — the inspector's output is
/// a pure function of these inputs — so a cached plan can be replayed
/// (the paper's inspect-once / execute-many workflow, generalized across
/// independent clients).
///
/// Machine and knob identities are layered on the existing serializers
/// (the same field order as plan/serialize's `config` line), hashed with
/// FNV-1a 64. Shapes are hashed straight from their packed bitmap words —
/// fingerprinting is on the cache-hit fast path, so it must cost far less
/// than the inspection it replaces (a text encoding of a large shape
/// would rival build_plan itself). Both encodings are pure functions of
/// the structure, so equal shapes and a config that went through
/// plan/serialize fingerprint identically (tested in
/// tests/test_service.cpp).

#include <cstdint>
#include <string>
#include <string_view>

#include "machine/machine.hpp"
#include "plan/plan.hpp"
#include "shape/shape.hpp"

namespace bstc {

/// FNV-1a 64-bit over `bytes`, continuing from `state` (chainable).
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t state = 0xcbf29ce484222325ull);

/// FNV-1a over the 8 little-endian bytes of `value` (chainable).
std::uint64_t fnv1a64_u64(std::uint64_t value, std::uint64_t state);

/// Fingerprint of a tiling (tile count + every extent), chainable.
std::uint64_t fingerprint_tiling(const Tiling& tiling, std::uint64_t state);

/// Fingerprint of a shape: both tilings plus the packed sparsity bitmap,
/// hashed word-at-a-time (no serialization round-trip), chainable.
std::uint64_t fingerprint_shape(const Shape& shape, std::uint64_t state);

/// Canonical text describing the machine quantities a plan depends on
/// (and the bandwidth/latency figures that identify the platform).
std::string machine_identity(const MachineModel& machine);

/// Canonical text of the inspector knobs (mirrors plan/serialize).
std::string plan_config_identity(const PlanConfig& cfg);

/// Fingerprint of the full problem identity: A/B/C shapes + machine +
/// inspector knobs. Equal fingerprints <=> the inspector would produce
/// the same plan (modulo the astronomically unlikely 64-bit collision).
std::uint64_t fingerprint_problem(const Shape& a, const Shape& b,
                                  const Shape& c, const MachineModel& machine,
                                  const PlanConfig& cfg);

/// 16-hex-digit rendering for logs and tables.
std::string fingerprint_hex(std::uint64_t fp);

}  // namespace bstc
