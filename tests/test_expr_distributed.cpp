/// End-to-end distributed tests of the contraction-program layer: four
/// forked serve workers behind a ServeRouter on TCP loopback, driving
/// named programs through the wire's kProgramRun request kind.
///
/// The battery checks the expr tentpole's serving claims directly:
///  - a served ccsd-doubles iteration stream is *bitwise* equal to the
///    in-process LocalService on the same requests;
///  - the whole program sticks to the rank owning its program routing
///    key, where the shared intermediate is built exactly once per
///    iteration (witnessed via the gathered per-rank expr counters);
///  - a program-run of "abcd" equals a plain kContract over the wire;
///  - program sessions close cleanly exactly once.

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/serve.hpp"
#include "net/socket.hpp"
#include "service/local_service.hpp"
#include "service/serve_api.hpp"
#include "support/error.hpp"

namespace bstc::net {
namespace {

struct Child {
  pid_t pid = -1;
  bool reaped = false;
  int status = 0;
};

void spawn_serve_worker(std::vector<Child>& children, std::uint16_t port,
                        const ServiceConfig& cfg) {
  const pid_t pid = fork();
  if (pid < 0) throw Error("fork failed");
  if (pid == 0) {
    int rc = 3;
    try {
      ServeWorkerOptions opts;
      opts.port = port;
      opts.service = cfg;
      rc = run_serve_worker(opts);
    } catch (...) {
    }
    _exit(rc);
  }
  children.push_back(Child{pid, false, 0});
}

int poll_dead(std::vector<Child>& children) {
  int dead = 0;
  for (Child& c : children) {
    if (!c.reaped && waitpid(c.pid, &c.status, WNOHANG) == c.pid) {
      c.reaped = true;
    }
    if (c.reaped) ++dead;
  }
  return dead;
}

void reap_all(std::vector<Child>& children) {
  for (Child& c : children) {
    if (!c.reaped) {
      waitpid(c.pid, &c.status, 0);
      c.reaped = true;
    }
  }
}

/// A 4-rank serving mesh for one test body (see test_service_distributed).
struct Mesh {
  static constexpr int kRanks = 4;
  std::vector<Child> children;
  std::unique_ptr<ServeRouter> router;

  explicit Mesh(ServiceConfig cfg = {}) {
    Listener listener("127.0.0.1", 0);
    for (int i = 0; i < kRanks; ++i) {
      spawn_serve_worker(children, listener.local_port(), cfg);
    }
    std::vector<PeerLink> links = accept_serve_workers(
        listener, kRanks, 60000, [this] { return poll_dead(children); });
    router =
        std::make_unique<ServeRouter>(std::move(links), ServeRouterConfig{});
  }

  ~Mesh() {
    router->shutdown();
    reap_all(children);
  }
};

ServeProblemSpec ccsd_spec() {
  ServeProblemSpec spec;
  spec.m = 2;  // carbon count of the alkane chain — sub-second iterations
  spec.seed = 7;
  spec.gpus = 1;
  return spec;
}

TEST(ExprServeDistributed, CcsdProgramBitwiseEqualAcrossTopologies) {
  Mesh mesh;
  RemoteService remote(*mesh.router);
  LocalService local;

  const ServeProblemSpec spec = ccsd_spec();
  const std::string program = "ccsd-doubles";
  constexpr int kIters = 3;
  int owner = -1;  // learned from the first routed iteration

  for (int it = 0; it < kIters; ++it) {
    ServeRequest req;
    req.kind = ServeRequestKind::kProgramRun;
    req.spec = spec;
    req.program = program;
    // The driver convention: one amplitude refresh per iteration.
    req.a_seed = spec.seed + 100 + static_cast<std::uint64_t>(it);
    req.want_c = it == kIters - 1;

    ServeOutcome remote_out, local_out;
    ASSERT_EQ(serve_dispatch(remote, req, remote_out), ServiceStatus::kOk)
        << remote_out.error;
    ASSERT_EQ(serve_dispatch(local, req, local_out), ServiceStatus::kOk)
        << local_out.error;

    // Identical program identity and bitwise-identical residual bits.
    EXPECT_EQ(remote_out.fingerprint, local_out.fingerprint);
    EXPECT_EQ(remote_out.routing_key, local_out.routing_key);
    EXPECT_EQ(remote_out.c_checksum, local_out.c_checksum) << "iter " << it;

    // DAG accounting travels the wire: 5 nodes, the one shared X = T*U
    // intermediate, one consumer hit beyond its build.
    EXPECT_EQ(remote_out.program_nodes, 5u);
    EXPECT_EQ(remote_out.program_intermediates, 1u);
    EXPECT_EQ(remote_out.program_reuse, 1u);
    EXPECT_EQ(remote_out.program_nodes, local_out.program_nodes);
    EXPECT_EQ(remote_out.program_intermediates,
              local_out.program_intermediates);
    EXPECT_EQ(remote_out.program_reuse, local_out.program_reuse);

    // The whole iteration stream sticks to the owning rank.
    if (owner < 0) owner = remote_out.served_by;
    EXPECT_EQ(remote_out.served_by, owner);
    EXPECT_EQ(local_out.served_by, 0);

    if (req.want_c) {
      ASSERT_TRUE(remote_out.has_c);
      ASSERT_TRUE(local_out.has_c);
      EXPECT_EQ(remote_out.c.max_abs_diff(local_out.c), 0.0);
    }
  }

  // The gathered per-rank counters witness the reuse claim: the shared
  // intermediate was built exactly once per iteration, every consumer
  // beyond the build was a reuse hit, and only the owner ran anything.
  ASSERT_GE(owner, 1);
  // The affinity table now maps the program key to the stream's rank.
  EXPECT_EQ(mesh.router->owner_of(serve_program_routing_key(spec, program)),
            owner);

  const std::vector<ServeRankMetrics> ranks = mesh.router->gather_metrics();
  ASSERT_EQ(ranks.size(), static_cast<std::size_t>(Mesh::kRanks));
  double programs = 0, nodes = 0, built = 0, reuse = 0, released = 0;
  for (const ServeRankMetrics& r : ranks) {
    programs += r.value("bstc_expr_programs_total");
    nodes += r.value("bstc_expr_nodes_total");
    built += r.value("bstc_expr_intermediates_built_total");
    reuse += r.value("bstc_expr_intermediate_reuse_total");
    released += r.value("bstc_expr_intermediates_released_total");
    if (r.rank != owner) {
      EXPECT_EQ(r.value("bstc_expr_programs_total"), 0u) << "rank " << r.rank;
      EXPECT_EQ(r.value("bstc_expr_intermediates_built_total"), 0u)
          << "rank " << r.rank;
    } else {
      EXPECT_NE(r.prometheus.find("bstc_expr_programs_total"),
                std::string::npos);
    }
  }
  EXPECT_EQ(programs, static_cast<std::uint64_t>(kIters));
  EXPECT_EQ(nodes, static_cast<std::uint64_t>(5 * kIters));
  EXPECT_EQ(built, static_cast<std::uint64_t>(kIters));
  EXPECT_EQ(reuse, static_cast<std::uint64_t>(kIters));
  EXPECT_EQ(released, static_cast<std::uint64_t>(kIters));

  // Program sessions close exactly once on both topologies.
  ServeRequest close_req;
  close_req.kind = ServeRequestKind::kSessionClose;
  close_req.spec = spec;
  close_req.program = program;
  ServeOutcome out;
  EXPECT_EQ(serve_dispatch(remote, close_req, out), ServiceStatus::kOk);
  EXPECT_EQ(serve_dispatch(remote, close_req, out),
            ServiceStatus::kSessionNotFound);
  EXPECT_EQ(serve_dispatch(local, close_req, out), ServiceStatus::kOk);
  EXPECT_EQ(serve_dispatch(local, close_req, out),
            ServiceStatus::kSessionNotFound);
}

TEST(ExprServeDistributed, AbcdProgramRunEqualsContractOverTheWire) {
  Mesh mesh;
  RemoteService remote(*mesh.router);

  ServeProblemSpec spec;
  spec.m = 64;
  spec.k = 320;
  spec.n = 320;
  spec.density = 0.5;
  spec.tile_lo = 8;
  spec.tile_hi = 24;
  spec.seed = 3;
  spec.gpus = 1;

  ServeRequest preq;
  preq.kind = ServeRequestKind::kProgramRun;
  preq.spec = spec;
  preq.program = "abcd";
  preq.a_seed = 4001;
  preq.want_c = true;
  ServeOutcome pout;
  ASSERT_EQ(remote.ProgramRun(preq, pout), ServiceStatus::kOk) << pout.error;
  EXPECT_EQ(pout.program_nodes, 1u);
  EXPECT_EQ(pout.served_by,
            mesh.router->owner_of(serve_program_routing_key(spec, "abcd")));

  ServeRequest creq;
  creq.kind = ServeRequestKind::kContract;
  creq.spec = spec;
  creq.a_seed = 4001;
  creq.want_c = true;
  ServeOutcome cout_;
  ASSERT_EQ(remote.Contract(creq, cout_), ServiceStatus::kOk) << cout_.error;

  // Possibly different owner ranks (the program key folds the name), yet
  // bitwise the same bits: the spec is the problem, wherever it runs.
  EXPECT_EQ(pout.c_checksum, cout_.c_checksum);
  ASSERT_TRUE(pout.has_c);
  ASSERT_TRUE(cout_.has_c);
  EXPECT_EQ(pout.c.max_abs_diff(cout_.c), 0.0);
}

}  // namespace
}  // namespace bstc::net
