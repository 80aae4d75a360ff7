/// Executor-level tests of the expr subsystem: the abcd program's bitwise
/// equivalence with a plain kContract request, agreement with the
/// reference product, bitwise invariance under lowering-order and
/// schedule seeds, the intermediate-reuse ablation, warm per-node
/// sessions, and the bound-instance fingerprint.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "bsm/block_sparse_matrix.hpp"
#include "expr/executor.hpp"
#include "expr/lower.hpp"
#include "expr/programs.hpp"
#include "service/local_service.hpp"
#include "service/serve_api.hpp"

namespace bstc::expr {
namespace {

ServeProblemSpec abcd_spec(std::uint64_t seed) {
  ServeProblemSpec spec;
  spec.m = 64;
  spec.k = 160;
  spec.n = 160;
  spec.density = 0.5;
  spec.tile_lo = 8;
  spec.tile_hi = 24;
  spec.seed = seed;
  spec.gpus = 1;
  return spec;
}

ServeProblemSpec ccsd_spec() {
  ServeProblemSpec spec;
  spec.m = 2;  // smallest alkane chain — sub-second iterations
  spec.seed = 7;
  return spec;
}

TEST(ExprExec, AbcdProgramBitwiseEqualsContract) {
  LocalService local;

  ServeRequest preq;
  preq.kind = ServeRequestKind::kProgramRun;
  preq.spec = abcd_spec(3);
  preq.program = "abcd";
  preq.a_seed = 777;
  preq.want_c = true;
  ServeOutcome pout;
  ASSERT_EQ(local.ProgramRun(preq, pout), ServiceStatus::kOk) << pout.error;
  EXPECT_EQ(pout.program_nodes, 1u);
  EXPECT_EQ(pout.program_intermediates, 0u);
  EXPECT_EQ(pout.program_reuse, 0u);
  EXPECT_EQ(pout.routing_key,
            serve_program_routing_key(preq.spec, "abcd"));

  ServeRequest creq;
  creq.kind = ServeRequestKind::kContract;
  creq.spec = preq.spec;
  creq.a_seed = 777;
  creq.want_c = true;
  ServeOutcome cout_;
  ASSERT_EQ(local.Contract(creq, cout_), ServiceStatus::kOk) << cout_.error;

  // The equivalence claim: "abcd" is exactly the spec's single term, and
  // iterating it with the same a_seed is bitwise the kContract result.
  EXPECT_EQ(pout.c_checksum, cout_.c_checksum);
  ASSERT_TRUE(pout.has_c);
  ASSERT_TRUE(cout_.has_c);
  EXPECT_EQ(pout.c.max_abs_diff(cout_.c), 0.0);

  // The program session closes once, then reports not-found.
  ServeRequest close_req;
  close_req.kind = ServeRequestKind::kSessionClose;
  close_req.spec = preq.spec;
  close_req.program = "abcd";
  ServeOutcome out;
  EXPECT_EQ(local.SessionClose(close_req, out), ServiceStatus::kOk);
  EXPECT_EQ(local.SessionClose(close_req, out),
            ServiceStatus::kSessionNotFound);
}

TEST(ExprExec, AbcdProgramMatchesReferenceProduct) {
  const ServeProblemSpec spec = abcd_spec(5);
  const NamedProgram np = build_named_program("abcd", spec);
  ProgramInstance inst =
      bind_program(lower(np.program), np.machine, np.engine);
  ContractionService svc;
  ProgramRunner runner(svc, std::move(inst));
  ProgramResult res;
  ASSERT_EQ(runner.run(4242, res), ServiceStatus::kOk) << res.error;

  const BuiltServeProblem built = build_serve_problem(spec);
  const BlockSparseMatrix a = build_serve_a(built, 4242);
  const BlockSparseMatrix b = materialize(built.b_shape, built.b_gen);
  BlockSparseMatrix expect(built.c_shape);
  multiply_reference(a, b, expect);
  EXPECT_LT(res.r.max_abs_diff(expect), 1e-10);
  EXPECT_GT(res.r.norm(), 0.0);

  // An oracle that shares nothing with multiply_reference: every element
  // of every computed tile against the plain sum over k of A(r,k)*B(k,c).
  const Index k = a.cols(), n = b.cols();
  std::vector<double> a_el(static_cast<std::size_t>(a.rows() * k));
  std::vector<double> b_el(static_cast<std::size_t>(k * n));
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index x = 0; x < k; ++x) a_el[r * k + x] = a.at(r, x);
  }
  for (Index x = 0; x < k; ++x) {
    for (Index c = 0; c < n; ++c) b_el[x * n + c] = b.at(x, c);
  }
  const Shape& cs = built.c_shape;
  double worst = 0.0;
  for (std::size_t i = 0; i < cs.tile_rows(); ++i) {
    for (std::size_t j = 0; j < cs.tile_cols(); ++j) {
      if (!cs.nonzero(i, j)) continue;
      const Index r0 = cs.row_tiling().tile_offset(i);
      const Index c0 = cs.col_tiling().tile_offset(j);
      for (Index r = r0; r < r0 + cs.row_tiling().tile_extent(i); ++r) {
        for (Index c = c0; c < c0 + cs.col_tiling().tile_extent(j); ++c) {
          double sum = 0.0;
          for (Index x = 0; x < k; ++x) {
            sum += a_el[r * k + x] * b_el[x * n + c];
          }
          worst = std::max(worst, std::abs(res.r.at(r, c) - sum));
        }
      }
    }
  }
  EXPECT_LT(worst, 1e-10);
}

TEST(ExprExec, OrderAndScheduleSeedsAreBitwiseInvariant) {
  const NamedProgram np = build_named_program("ccsd-doubles", ccsd_spec());
  std::vector<std::uint64_t> checksums;
  std::vector<std::uint64_t> fingerprints;
  for (const std::uint64_t order_seed : {0ull, 1ull, 9ull}) {
    for (const std::uint64_t schedule_seed : {0ull, 5ull}) {
      LowerOptions lo;
      lo.order_seed = order_seed;
      ProgramInstance inst =
          bind_program(lower(np.program, lo), np.machine, np.engine);
      fingerprints.push_back(inst.fingerprint);
      ContractionService svc;
      ExecOptions eo;
      eo.schedule_seed = schedule_seed;
      ProgramRunner runner(svc, std::move(inst), eo);
      ProgramResult res;
      ASSERT_EQ(runner.run(9001, res), ServiceStatus::kOk) << res.error;
      checksums.push_back(bsm_content_checksum(res.r));
    }
  }
  for (std::size_t i = 1; i < checksums.size(); ++i) {
    EXPECT_EQ(checksums[i], checksums[0]) << "combo " << i;
    // The program identity is emission-order invariant too.
    EXPECT_EQ(fingerprints[i], fingerprints[0]) << "combo " << i;
  }
}

TEST(ExprExec, ReuseAblationIsBitwiseNeutralAndCounted) {
  const NamedProgram np = build_named_program("ccsd-doubles", ccsd_spec());

  ContractionService svc_on;
  ProgramRunner on(svc_on,
                   bind_program(lower(np.program), np.machine, np.engine));
  ProgramResult res_on;
  ASSERT_EQ(on.run(9001, res_on), ServiceStatus::kOk) << res_on.error;
  EXPECT_EQ(res_on.intermediates_built, 1u);
  EXPECT_EQ(res_on.intermediate_reuse, 1u);
  EXPECT_EQ(res_on.intermediates_released, 1u);
  EXPECT_GT(res_on.peak_intermediate_bytes, 0u);

  LowerOptions lo;
  lo.reuse_intermediates = false;
  ContractionService svc_off;
  ProgramRunner off(
      svc_off, bind_program(lower(np.program, lo), np.machine, np.engine));
  ProgramResult res_off;
  ASSERT_EQ(off.run(9001, res_off), ServiceStatus::kOk) << res_off.error;
  EXPECT_EQ(res_off.intermediates_built, 2u);  // each consumer rebuilds
  EXPECT_EQ(res_off.intermediate_reuse, 0u);
  EXPECT_EQ(res_off.intermediates_released, 2u);

  // Reuse changes work and memory, never bits.
  EXPECT_EQ(bsm_content_checksum(res_on.r), bsm_content_checksum(res_off.r));
}

TEST(ExprExec, NodeSessionsStayWarmAcrossIterations) {
  const NamedProgram np = build_named_program("ccsd-doubles", ccsd_spec());
  ContractionService svc;
  ProgramRunner runner(
      svc, bind_program(lower(np.program), np.machine, np.engine));

  ProgramResult first, second;
  ASSERT_EQ(runner.run(9001, first), ServiceStatus::kOk) << first.error;
  ASSERT_EQ(runner.run(9002, second), ServiceStatus::kOk) << second.error;

  ASSERT_EQ(first.nodes.size(), 5u);
  ASSERT_EQ(second.nodes.size(), 5u);
  for (const NodeReport& n : second.nodes) {
    EXPECT_NE(n.fingerprint, 0u) << n.label;
  }
  // Second iteration: every node's plan comes from the cache, and warm
  // session B caches regenerate nothing.
  EXPECT_EQ(second.plan_cache_hits, second.nodes.size());
  EXPECT_LE(second.b_max_generations, 1u);
  // Different amplitudes, different residual.
  EXPECT_NE(bsm_content_checksum(first.r), bsm_content_checksum(second.r));
}

TEST(ExprExec, BoundFingerprintTracksMachineAndSeeds) {
  const NamedProgram np = build_named_program("ccsd-doubles", ccsd_spec());
  const LoweredProgram lp = lower(np.program);
  const ProgramInstance base = bind_program(lp, np.machine, np.engine);
  EXPECT_NE(base.fingerprint, 0u);
  EXPECT_EQ(base.node_fingerprints.size(), lp.nodes.size());

  // Same lowering, same knobs: identical composed fingerprint.
  EXPECT_EQ(bind_program(lp, np.machine, np.engine).fingerprint,
            base.fingerprint);

  // A different machine is a different planning problem.
  MachineModel other = np.machine;
  other.node.gpu.memory_bytes *= 2;
  EXPECT_NE(bind_program(lp, other, np.engine).fingerprint,
            base.fingerprint);
}

TEST(ExprExec, LocalServiceRejectsUnknownProgram) {
  LocalService local;
  ServeRequest req;
  req.kind = ServeRequestKind::kProgramRun;
  req.spec = abcd_spec(3);
  req.program = "no-such-program";
  ServeOutcome out;
  EXPECT_EQ(local.ProgramRun(req, out), ServiceStatus::kInvalidRequest);
  EXPECT_FALSE(out.error.empty());
}

}  // namespace
}  // namespace bstc::expr
