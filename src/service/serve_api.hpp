#pragma once

/// \file serve_api.hpp
/// The serving request boundary: one Status-returning entry point per
/// request kind, uniform across local and remote execution.
///
/// Modeled on OSRM's EngineInterface/plugin dispatch (SNIPPETS.md): the
/// front-end — `bstc_cli serve-batch`, a test driver, or the distributed
/// front rank — programs against ServeInterface and cannot tell whether a
/// request executes in-process (LocalService over ContractionService) or
/// on a remote worker rank (net::RemoteService over the wire protocol).
/// That uniformity is what lets `serve-batch --ranks N` shard the service
/// across the TCP runtime with no change to the request format.
///
/// Requests carry a ServeProblemSpec rather than materialized matrices:
/// every input is rebuilt deterministically from seeds (the same idiom as
/// net::NetProblemSpec), so the problem itself never travels — only the
/// spec out and, when asked for, the result tiles back. Two requests with
/// the same spec are the same planning problem, which is exactly what the
/// distributed router's cache-affinity routing keys on.

#include <cstdint>
#include <string>

#include "bsm/block_sparse_matrix.hpp"
#include "bsm/on_demand_matrix.hpp"
#include "core/engine.hpp"
#include "machine/machine.hpp"
#include "service/contraction_service.hpp"

namespace bstc {

/// Every kind of request the serving boundary accepts.
enum class ServeRequestKind : std::uint8_t {
  kContract = 1,        ///< one-shot contraction C = A*B
  kSessionIterate = 2,  ///< CCSD-style iteration with persistent B cache
  kSessionClose = 3,    ///< release the spec's session (or program) state
  kPlanExplain = 4,     ///< plan narrative (metadata; no execution)
  kProgramRun = 5,      ///< one iteration of a named contraction program
};

const char* serve_request_kind_name(ServeRequestKind kind);

/// A deterministic, wire-serializable problem identity. All randomness is
/// seeded, so every process derives bit-identical shapes, A values and B
/// tiles from the spec — the request format of serve-batch's script lines.
struct ServeProblemSpec {
  Index m = 96;
  Index k = 480;
  Index n = 480;
  double density = 0.4;
  Index tile_lo = 8;
  Index tile_hi = 24;
  std::uint64_t seed = 42;
  int gpus = 1;            ///< device queues (1 keeps results bitwise
                           ///< reproducible across serving topologies)
  double gpu_mem = 1.0e6;  ///< per-device memory budget (bytes)
  int p = 1;               ///< plan grid rows
};

/// Routing identity of a spec: FNV-1a over its packed fields. Cheap (no
/// shape construction), stable across processes, and equal specs — hence
/// equal problems — always map to the same key. This is what the
/// distributed router's affinity table is keyed by; the full engine
/// fingerprint (shapes + machine + knobs) is computed where the problem
/// is built and echoed back for cross-checking.
std::uint64_t serve_routing_key(const ServeProblemSpec& spec);

/// Routing identity of a program request: the spec key folded with the
/// program name. Empty name = the plain spec key, so non-program requests
/// are unaffected. A program session (its runner, node sessions and
/// persistent B caches) lives on whichever worker owns this key.
std::uint64_t serve_program_routing_key(const ServeProblemSpec& spec,
                                        const std::string& program);

/// Determinism audit of the spec-expansion path (the property the whole
/// serving layer rests on: same spec => same bits in every process).
/// Expands the spec twice from scratch and requires byte-identical
/// shapes, engine fingerprints, sampled B tiles and A matrices, plus
/// stable FNV routing keys across recomputation. Returns a composite
/// audit checksum over everything checked — a regression witness: it
/// changes iff the expansion's bits change. Throws bstc::Error on any
/// instability (which would silently break cache-affinity routing and
/// bitwise result verification).
std::uint64_t audit_serve_spec_determinism(const ServeProblemSpec& spec);

/// Content identity of the spec's generated-B tile set — what a
/// shared-memory tile store is sealed with and what readers verify on
/// attach. Derived from the B-defining spec fields only (the machine
/// knobs don't change B's bits), so one store serves every request whose
/// spec generates the same B.
std::uint64_t serve_store_fingerprint(const ServeProblemSpec& spec);

/// Everything a spec expands to (same spec => same bits, any process).
struct BuiltServeProblem {
  Shape a_shape, b_shape, c_shape;
  TileGenerator b_gen;
  MachineModel machine;
  EngineConfig engine;
  std::uint64_t fingerprint = 0;  ///< engine problem fingerprint
};

/// Deterministically expand the spec (mirrors net::build_problem).
BuiltServeProblem build_serve_problem(const ServeProblemSpec& spec);

/// The A matrix of one request/iteration: values seeded by `a_seed` over
/// the spec's A sparsity (CCSD refreshes A's values, never its shape).
BlockSparseMatrix build_serve_a(const BuiltServeProblem& built,
                                std::uint64_t a_seed);

/// Content digest v2 — a bitwise identity witness for a result matrix.
/// Starts from fnv1a64("bstc-bsm-v2"); for each nonzero tile in row-major
/// tile order it folds (i, j, rows, cols) in with FNV-1a, then chains
/// hash64 (XXH64) over the tile's raw bytes seeded with the running state.
/// It depends on every payload bit, on tile order and on extents.
std::uint64_t bsm_content_checksum(const BlockSparseMatrix& m);

/// One request at the serving boundary.
struct ServeRequest {
  ServeRequestKind kind = ServeRequestKind::kContract;
  ServeProblemSpec spec;
  std::uint64_t a_seed = 0;  ///< 0: derive the default from spec.seed
  /// Ship the result tiles back. Disable for throughput drivers that
  /// only need the checksum witness (the worker always computes it).
  bool want_c = true;
  /// kProgramRun: the named contraction program to iterate ("abcd",
  /// "ccsd-doubles"; see expr/programs.hpp), expanded deterministically
  /// from `spec` on the serving side. kSessionClose with a non-empty
  /// program name closes that program's session state instead.
  std::string program;
};

/// Everything one request produced, local or remote.
struct ServeOutcome {
  BlockSparseMatrix c;        ///< result tiles (has_c && status kOk)
  bool has_c = false;
  std::uint64_t fingerprint = 0;   ///< engine problem fingerprint
  std::uint64_t routing_key = 0;   ///< spec routing identity
  int served_by = -1;              ///< worker rank (0 when local)
  bool plan_cache_hit = false;
  double queue_wait_s = 0.0;
  double inspect_s = 0.0;
  double execute_s = 0.0;
  std::size_t tasks_executed = 0;
  std::size_t b_max_generations = 0;  ///< 1 on a warm session B cache
  std::uint64_t c_checksum = 0;    ///< bitwise witness of the result
  double c_norm = 0.0;
  std::string text;   ///< plan-explain narrative
  std::string error;  ///< failure detail for non-kOk statuses
  // kProgramRun only: DAG accounting of the iteration.
  std::size_t program_nodes = 0;          ///< executed DAG nodes
  std::size_t program_intermediates = 0;  ///< shared intermediates built
  std::size_t program_reuse = 0;          ///< consumer hits beyond builds
};

/// The request boundary (OSRM EngineInterface idiom): one
/// Status-returning entry point per request kind. Implementations must be
/// safe to call from any number of threads.
class ServeInterface {
 public:
  virtual ~ServeInterface() = default;

  virtual ServiceStatus Contract(const ServeRequest& request,
                                 ServeOutcome& outcome) = 0;
  virtual ServiceStatus SessionIterate(const ServeRequest& request,
                                       ServeOutcome& outcome) = 0;
  virtual ServiceStatus SessionClose(const ServeRequest& request,
                                     ServeOutcome& outcome) = 0;
  virtual ServiceStatus PlanExplain(const ServeRequest& request,
                                    ServeOutcome& outcome) = 0;
  virtual ServiceStatus ProgramRun(const ServeRequest& request,
                                   ServeOutcome& outcome) = 0;
};

/// Dispatch a request to the matching entry point by kind.
ServiceStatus serve_dispatch(ServeInterface& service,
                             const ServeRequest& request,
                             ServeOutcome& outcome);

}  // namespace bstc
