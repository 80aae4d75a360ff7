#include "service/contraction_service.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "plan/builder.hpp"
#include "plan/explain.hpp"
#include "service/fingerprint.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace bstc {

const char* service_status_name(ServiceStatus status) {
  switch (status) {
    case ServiceStatus::kOk: return "ok";
    case ServiceStatus::kQueueFull: return "queue-full";
    case ServiceStatus::kShuttingDown: return "shutting-down";
    case ServiceStatus::kInvalidRequest: return "invalid-request";
    case ServiceStatus::kSessionNotFound: return "session-not-found";
    case ServiceStatus::kExecutionError: return "execution-error";
    case ServiceStatus::kWorkerLost: return "worker-lost";
  }
  return "unknown";
}

/// A CCSD-style loop's long-lived state.
struct ContractionService::Session {
  SessionConfig cfg;
  PlanCache::PlanPtr plan;
  /// The plan's lowering for cfg.engine: the cached one, or the session's
  /// own when the cached one was lowered with other engine fields.
  std::shared_ptr<const LoweredPlan> lowered;
  std::uint64_t fingerprint = 0;
  /// Per-node B sources shared across iterations (engine session mode).
  /// Generator caches by default; zero-copy shared-store sources when
  /// the session config carried a b_source_factory.
  std::vector<std::unique_ptr<TileSource>> b_cache;
  /// Iterations of one session are serialized (the loop is sequential by
  /// nature; concurrent iterate() calls on one id would race on b_cache
  /// semantics even though OnDemandMatrix itself is thread-safe).
  std::mutex iterate_mutex;
  std::size_t iterations = 0;
};

/// One request, on its caller's stack: a plain submit or a session
/// iteration.
struct ContractionService::Job {
  // Plain submit payload.
  const ContractionRequest* request = nullptr;
  // Session-iterate payload (request == nullptr).
  Session* session = nullptr;
  const BlockSparseMatrix* a = nullptr;
  const BlockSparseMatrix* c_init = nullptr;

  ContractionResponse* response = nullptr;
  ServiceStatus status = ServiceStatus::kOk;
  Timer since_submit;  ///< queue wait + start latency reference point
};

namespace {

/// Boundary validation shared by submit() and open_session().
ServiceStatus validate_problem(const Shape& a, const Shape* b,
                               const Shape* c, const TileGenerator& gen,
                               std::string& error) {
  if (b == nullptr || c == nullptr) {
    error = "b_shape and c_shape must be non-null";
    return ServiceStatus::kInvalidRequest;
  }
  if (!gen) {
    error = "b_generator must be callable";
    return ServiceStatus::kInvalidRequest;
  }
  if (!(a.col_tiling() == b->row_tiling())) {
    error = "inner tilings of A and B do not agree";
    return ServiceStatus::kInvalidRequest;
  }
  if (!(c->row_tiling() == a.row_tiling()) ||
      !(c->col_tiling() == b->col_tiling())) {
    error = "C tilings do not match the product of A and B";
    return ServiceStatus::kInvalidRequest;
  }
  return ServiceStatus::kOk;
}

/// The cached plan and lowering of a problem, built (inspector, then
/// lowering for `engine`) by one single-flight build on a miss.
PlanCache::PlanPtr resolve_plan(PlanCache& cache, std::uint64_t fingerprint,
                                const Shape& a, const Shape& b,
                                const Shape& c, const MachineModel& machine,
                                const EngineConfig& engine, bool* hit,
                                double* build_s) {
  return cache.get_or_build(
      fingerprint,
      [&] {
        CachedPlan built{build_plan(a, b, c, machine, engine.plan), nullptr};
        built.lowered = lower_plan(built.plan, a, b, c, machine, engine);
        return built;
      },
      hit, build_s);
}

}  // namespace

ContractionService::ContractionService(ServiceConfig cfg)
    : cfg_(cfg), cache_(cfg.plan_cache_capacity) {
  BSTC_REQUIRE(cfg_.workers >= 1, "service needs at least one worker");
  BSTC_REQUIRE(cfg_.queue_capacity >= 1, "queue capacity must be >= 1");
}

ContractionService::~ContractionService() { shutdown(); }

void ContractionService::shutdown() {
  std::unique_lock lock(mutex_);
  stopping_ = true;
  gate_cv_.notify_all();  // waiting requests fail with kShuttingDown
  gate_cv_.wait(lock, [this] { return running_ == 0 && waiting_ == 0; });
}

ServiceStatus ContractionService::run(Job& job) {
  ContractionResponse& resp = *job.response;
  {
    std::unique_lock lock(mutex_);
    if (stopping_) {
      resp.error = "service is shutting down";
      return ServiceStatus::kShuttingDown;
    }
    if (waiting_ >= cfg_.queue_capacity) {
      ++metrics_.rejected;
      resp.error = "request queue is at capacity";
      return ServiceStatus::kQueueFull;
    }
    ++metrics_.submitted;
    const std::uint64_t ticket = next_ticket_++;
    ++waiting_;
    gate_cv_.wait(lock, [&] {
      return stopping_ ||
             (ticket == now_serving_ &&
              running_ < static_cast<std::size_t>(cfg_.workers));
    });
    --waiting_;
    if (stopping_) {
      gate_cv_.notify_all();  // shutdown() waits for the gate to empty
      resp.error = "service shut down before execution";
      return ServiceStatus::kShuttingDown;
    }
    ++now_serving_;
    ++running_;
  }
  gate_cv_.notify_all();  // the next ticket may take another free slot
  process(job);
  {
    std::lock_guard lock(mutex_);
    --running_;
    if (job.status == ServiceStatus::kOk) {
      ++metrics_.completed;
    } else {
      ++metrics_.failed;
    }
    metrics_.total_queue_wait_s += resp.queue_wait_s;
    metrics_.max_queue_wait_s =
        std::max(metrics_.max_queue_wait_s, resp.queue_wait_s);
    metrics_.total_inspect_s += resp.inspect_s;
    metrics_.total_execute_s += resp.execute_s;
    if (job.session != nullptr) ++metrics_.iterations;
  }
  gate_cv_.notify_all();
  return job.status;
}

void ContractionService::process(Job& job) {
  ContractionResponse& resp = *job.response;
  resp.queue_wait_s = job.since_submit.elapsed_s();
  obs::Registry& reg = obs::Registry::instance();
  reg.observe("bstc_service_queue_wait_seconds", resp.queue_wait_s, 0.0, 1.0,
              20);
  obs::ScopedSpan span(obs::Category::kServiceRequest,
                       job.request != nullptr ? "submit" : "iterate");
  try {
    if (job.request != nullptr) {
      const ContractionRequest& req = *job.request;
      resp.fingerprint = fingerprint_problem(
          req.a->shape(), *req.b_shape, *req.c_shape, req.machine,
          req.engine.plan);
      const PlanCache::PlanPtr cached = resolve_plan(
          cache_, resp.fingerprint, req.a->shape(), *req.b_shape,
          *req.c_shape, req.machine, req.engine, &resp.plan_cache_hit,
          &resp.inspect_s);
      resp.start_latency_s = job.since_submit.elapsed_s();
      EngineConfig engine = req.engine;
      // Service-owned B backend: zero-copy store sources when the
      // request carries a factory, else fresh per-request generator
      // caches (engine-filled when b_cache is null).
      std::vector<std::unique_ptr<TileSource>> request_b;
      if (req.b_source_factory) {
        request_b.reserve(cached->plan.nodes.size());
        for (std::size_t n = 0; n < cached->plan.nodes.size(); ++n) {
          request_b.push_back(req.b_source_factory());
        }
        engine.b_cache = &request_b;
      } else {
        engine.b_cache = nullptr;
      }
      Timer exec;
      EngineResult result = contract_lowered(
          cached->plan, *cached->lowered, *req.a, *req.b_shape,
          req.b_generator, *req.c_shape, req.c_init, req.machine, engine);
      resp.execute_s = exec.elapsed_s();
      resp.tasks_executed = result.tasks_executed;
      resp.b_max_generations = result.b_max_generations;
      resp.c = std::move(result.c);
    } else {
      Session& session = *job.session;
      std::lock_guard session_lock(session.iterate_mutex);
      resp.fingerprint = session.fingerprint;
      resp.plan_cache_hit = true;  // resolved at open_session
      resp.start_latency_s = job.since_submit.elapsed_s();
      // B tiles stay cached across iterations: the session's
      // amortization of B generation.
      EngineConfig engine = session.cfg.engine;
      engine.b_cache = &session.b_cache;
      Timer exec;
      EngineResult result = contract_lowered(
          session.plan->plan, *session.lowered, *job.a, session.cfg.b_shape,
          session.cfg.b_generator, session.cfg.c_shape, job.c_init,
          session.cfg.machine, engine);
      resp.execute_s = exec.elapsed_s();
      resp.tasks_executed = result.tasks_executed;
      resp.b_max_generations = result.b_max_generations;
      resp.c = std::move(result.c);
      ++session.iterations;
    }
    reg.observe("bstc_service_execute_seconds", resp.execute_s, 0.0, 5.0, 20);
    job.status = ServiceStatus::kOk;
  } catch (const std::exception& e) {
    job.status = ServiceStatus::kExecutionError;
    resp.error = e.what();
  } catch (...) {
    job.status = ServiceStatus::kExecutionError;
    resp.error = "unknown execution failure";
  }
}

ServiceStatus ContractionService::submit(const ContractionRequest& request,
                                         ContractionResponse& response) {
  response = ContractionResponse{};
  if (request.a == nullptr) {
    response.error = "request.a must be non-null";
    return ServiceStatus::kInvalidRequest;
  }
  const ServiceStatus valid =
      validate_problem(request.a->shape(), request.b_shape, request.c_shape,
                       request.b_generator, response.error);
  if (valid != ServiceStatus::kOk) return valid;

  Job job;
  job.request = &request;
  job.response = &response;
  return run(job);
}

ServiceStatus ContractionService::open_session(const SessionConfig& cfg,
                                               std::uint64_t& session_id) {
  session_id = 0;
  std::string error;
  const ServiceStatus valid = validate_problem(
      cfg.a_shape, &cfg.b_shape, &cfg.c_shape, cfg.b_generator, error);
  if (valid != ServiceStatus::kOk) return valid;
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return ServiceStatus::kShuttingDown;
  }

  auto session = std::make_unique<Session>();
  session->cfg = cfg;
  session->fingerprint =
      fingerprint_problem(cfg.a_shape, cfg.b_shape, cfg.c_shape, cfg.machine,
                          cfg.engine.plan);
  try {
    double inspect_s = 0.0;
    bool hit = false;
    session->plan =
        resolve_plan(cache_, session->fingerprint, cfg.a_shape, cfg.b_shape,
                     cfg.c_shape, cfg.machine, cfg.engine, &hit, &inspect_s);
    session->lowered =
        session->plan->lowered->fits(cfg.engine)
            ? session->plan->lowered
            : lower_plan(session->plan->plan, cfg.a_shape, cfg.b_shape,
                         cfg.c_shape, cfg.machine, cfg.engine);
    std::lock_guard lock(mutex_);
    metrics_.total_inspect_s += inspect_s;
  } catch (const std::exception&) {
    return ServiceStatus::kExecutionError;
  }
  // Attach-by-fingerprint: a session opened against a shared store binds
  // its per-node B slots to zero-copy sources up front, so no iteration
  // ever generates a tile locally.
  if (cfg.b_source_factory) {
    for (std::size_t n = 0; n < session->plan->plan.nodes.size(); ++n) {
      session->b_cache.push_back(cfg.b_source_factory());
    }
  }

  std::lock_guard lock(sessions_mutex_);
  session_id = next_session_id_++;
  {
    std::lock_guard metrics_lock(mutex_);
    ++metrics_.sessions_opened;
  }
  sessions_.emplace(session_id, std::move(session));
  return ServiceStatus::kOk;
}

ServiceStatus ContractionService::iterate(std::uint64_t session_id,
                                          const BlockSparseMatrix& a,
                                          const BlockSparseMatrix* c_init,
                                          ContractionResponse& response) {
  response = ContractionResponse{};
  Session* session = nullptr;
  {
    std::lock_guard lock(sessions_mutex_);
    const auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      response.error = "unknown session id";
      return ServiceStatus::kSessionNotFound;
    }
    session = it->second.get();
  }
  // A session stays alive while its iterations run: close_session() of a
  // session with an in-flight iterate() is the caller's race to avoid
  // (same contract as closing any handle in use).
  if (!(a.shape() == session->cfg.a_shape)) {
    response.error = "A's shape differs from the session's a_shape";
    return ServiceStatus::kInvalidRequest;
  }

  Job job;
  job.session = session;
  job.a = &a;
  job.c_init = c_init;
  job.response = &response;
  return run(job);
}

ServiceStatus ContractionService::trim_session(std::uint64_t session_id,
                                               std::size_t* freed_bytes) {
  if (freed_bytes != nullptr) *freed_bytes = 0;
  std::lock_guard lock(sessions_mutex_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return ServiceStatus::kSessionNotFound;
  std::lock_guard session_lock(it->second->iterate_mutex);
  std::size_t freed = 0;
  for (const auto& node_b : it->second->b_cache) {
    freed += node_b->evict_unpinned();
  }
  if (freed_bytes != nullptr) *freed_bytes = freed;
  return ServiceStatus::kOk;
}

ServiceStatus ContractionService::close_session(std::uint64_t session_id) {
  std::unique_ptr<Session> session;
  {
    std::lock_guard lock(sessions_mutex_);
    const auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return ServiceStatus::kSessionNotFound;
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // Serialize against a concurrent iterate() holding the session mutex.
  std::lock_guard session_lock(session->iterate_mutex);
  {
    std::lock_guard lock(mutex_);
    ++metrics_.sessions_closed;
  }
  return ServiceStatus::kOk;
}

ServiceStatus ContractionService::explain(
    const Shape& a_shape, const Shape& b_shape, const Shape& c_shape,
    const MachineModel& machine, const EngineConfig& engine,
    std::string& text, bool* cache_hit) {
  text.clear();
  if (cache_hit != nullptr) *cache_hit = false;
  std::string error;
  TileGenerator probe = [](std::size_t, std::size_t) { return Tile(); };
  const ServiceStatus valid =
      validate_problem(a_shape, &b_shape, &c_shape, probe, error);
  if (valid != ServiceStatus::kOk) return valid;
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return ServiceStatus::kShuttingDown;
  }
  try {
    double inspect_s = 0.0;
    bool hit = false;
    const std::uint64_t fp =
        fingerprint_problem(a_shape, b_shape, c_shape, machine, engine.plan);
    const PlanCache::PlanPtr cached = resolve_plan(
        cache_, fp, a_shape, b_shape, c_shape, machine, engine, &hit,
        &inspect_s);
    text = explain_plan(cached->plan, a_shape, b_shape, c_shape);
    if (cache_hit != nullptr) *cache_hit = hit;
    std::lock_guard lock(mutex_);
    metrics_.total_inspect_s += inspect_s;
    ++metrics_.explains;
  } catch (const std::exception&) {
    return ServiceStatus::kExecutionError;
  }
  return ServiceStatus::kOk;
}

ServiceMetrics ContractionService::metrics() const {
  ServiceMetrics out;
  {
    std::lock_guard lock(mutex_);
    out = metrics_;
  }
  out.plan_cache = cache_.stats();
  return out;
}

}  // namespace bstc
