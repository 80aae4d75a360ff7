#include "net/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <thread>
#include <utility>

#include "expr/lower.hpp"
#include "expr/programs.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace bstc::net {

// ---------------------------------------------------------------------------
// Conversions.

RequestMsg to_request_msg(const ServeRequest& request,
                          std::uint64_t request_id) {
  RequestMsg msg;
  msg.request_id = request_id;
  msg.kind = static_cast<std::uint8_t>(request.kind);
  msg.m = request.spec.m;
  msg.k = request.spec.k;
  msg.n = request.spec.n;
  msg.density = request.spec.density;
  msg.tile_lo = request.spec.tile_lo;
  msg.tile_hi = request.spec.tile_hi;
  msg.seed = request.spec.seed;
  msg.gpus = static_cast<std::uint32_t>(request.spec.gpus);
  msg.gpu_mem = request.spec.gpu_mem;
  msg.p = static_cast<std::uint32_t>(request.spec.p);
  msg.a_seed = request.a_seed;
  msg.want_c = request.want_c;
  msg.program = request.program;
  return msg;
}

ServeRequest from_request_msg(const RequestMsg& msg) {
  ServeRequest request;
  request.kind = static_cast<ServeRequestKind>(msg.kind);
  request.spec.m = msg.m;
  request.spec.k = msg.k;
  request.spec.n = msg.n;
  request.spec.density = msg.density;
  request.spec.tile_lo = msg.tile_lo;
  request.spec.tile_hi = msg.tile_hi;
  request.spec.seed = msg.seed;
  request.spec.gpus = static_cast<int>(msg.gpus);
  request.spec.gpu_mem = msg.gpu_mem;
  request.spec.p = static_cast<int>(msg.p);
  request.a_seed = msg.a_seed;
  request.want_c = msg.want_c;
  request.program = msg.program;
  return request;
}

ResponseMsg to_response_msg(std::uint64_t request_id, ServiceStatus status,
                            const ServeOutcome& outcome) {
  ResponseMsg msg;
  msg.request_id = request_id;
  msg.status = static_cast<std::uint8_t>(status);
  msg.fingerprint = outcome.fingerprint;
  msg.routing_key = outcome.routing_key;
  msg.served_by = static_cast<std::uint32_t>(outcome.served_by);
  msg.plan_cache_hit = outcome.plan_cache_hit;
  msg.queue_wait_s = outcome.queue_wait_s;
  msg.inspect_s = outcome.inspect_s;
  msg.execute_s = outcome.execute_s;
  msg.tasks_executed = outcome.tasks_executed;
  msg.b_max_generations = outcome.b_max_generations;
  msg.c_checksum = outcome.c_checksum;
  msg.c_norm = outcome.c_norm;
  msg.text = outcome.text;
  msg.error = outcome.error;
  msg.program_nodes = outcome.program_nodes;
  msg.program_intermediates = outcome.program_intermediates;
  msg.program_reuse = outcome.program_reuse;
  msg.has_c = outcome.has_c;
  if (outcome.has_c) {
    const Shape& s = outcome.c.shape();
    for (std::size_t r = 0; r < s.tile_rows(); ++r) {
      for (std::size_t c = 0; c < s.tile_cols(); ++c) {
        if (!s.nonzero(r, c)) continue;
        msg.c_tiles.emplace_back((static_cast<std::uint64_t>(r) << 32) | c,
                                 outcome.c.tile(r, c));
      }
    }
  }
  return msg;
}

ServiceStatus response_to_outcome(const ResponseMsg& msg,
                                  const Shape* c_shape,
                                  ServeOutcome& outcome) {
  BSTC_REQUIRE(
      msg.status <= static_cast<std::uint8_t>(ServiceStatus::kWorkerLost),
      "serve: unknown status code in response");
  outcome = ServeOutcome{};
  outcome.fingerprint = msg.fingerprint;
  outcome.routing_key = msg.routing_key;
  outcome.served_by = static_cast<int>(static_cast<std::int32_t>(msg.served_by));
  outcome.plan_cache_hit = msg.plan_cache_hit;
  outcome.queue_wait_s = msg.queue_wait_s;
  outcome.inspect_s = msg.inspect_s;
  outcome.execute_s = msg.execute_s;
  outcome.tasks_executed = static_cast<std::size_t>(msg.tasks_executed);
  outcome.b_max_generations =
      static_cast<std::size_t>(msg.b_max_generations);
  outcome.c_checksum = msg.c_checksum;
  outcome.c_norm = msg.c_norm;
  outcome.text = msg.text;
  outcome.error = msg.error;
  outcome.program_nodes = static_cast<std::size_t>(msg.program_nodes);
  outcome.program_intermediates =
      static_cast<std::size_t>(msg.program_intermediates);
  outcome.program_reuse = static_cast<std::size_t>(msg.program_reuse);
  if (msg.has_c && c_shape != nullptr) {
    BlockSparseMatrix c(*c_shape);
    for (const auto& [key, tile] : msg.c_tiles) {
      const auto r = static_cast<std::size_t>(key >> 32);
      const auto col = static_cast<std::size_t>(key & 0xffffffffull);
      BSTC_REQUIRE(c.has_tile(r, col),
                   "serve: response tile outside C's sparsity");
      c.tile(r, col) = tile;
    }
    outcome.c = std::move(c);
    outcome.has_c = true;
  }
  return static_cast<ServiceStatus>(msg.status);
}

// ---------------------------------------------------------------------------
// Metrics gather.

double ServeRankMetrics::value(std::string_view series) const {
  return obs::series_value(prometheus, obs::label_rank(series, rank));
}

// ---------------------------------------------------------------------------
// Worker side.

int run_serve_worker(const ServeWorkerOptions& opts) {
  // A forked worker inherits its parent's registry; this rank's metrics
  // start from zero.
  obs::Registry::instance().clear();
  WireCounters& ctr = global_wire_counters();
  Socket sock = connect_with_retry(opts.host, opts.port, opts.retry, &ctr);
  HelloMsg hello;
  hello.rank = kUnassignedRank;
  hello.fingerprint = kServeProtocolId;
  send_frame(sock, encode_hello(hello), &ctr);
  const std::optional<Frame> welcome_frame = recv_frame(sock, &ctr);
  if (!welcome_frame) return 1;
  const WelcomeMsg welcome = decode_welcome(*welcome_frame);
  const int rank = static_cast<int>(welcome.rank);

  // Shared-memory data plane: attach the node's store registry and swap
  // to the currently published generation before serving anything.
  // Attach failure is fatal (the operator asked for --shm-store); a
  // merely-empty control segment just means generator fallback until
  // the first kStoreSwap doorbell.
  std::shared_ptr<shm::StoreRegistry> store;
  if (!opts.shm_ctl.empty()) {
    store = std::make_shared<shm::StoreRegistry>();
    if (shm::Status st = shm::StoreRegistry::attach(opts.shm_ctl, *store);
        !st) {
      return 1;
    }
    if (shm::Status st = store->refresh(); !st) return 1;
  }
  LocalService local(opts.service, rank, store);
  // This rank's section always carries its B-generation count, zero
  // included: over the ranks of a node sharing a store, the zeros witness
  // one materialization per node.
  obs::Registry::instance().counter_add("bstc_b_tiles_generated_total", 0);
  std::mutex tx_mutex;
  const auto send = [&](const Frame& frame) {
    std::lock_guard lock(tx_mutex);
    send_frame(sock, frame, &ctr);
  };

  // Dispatcher pool: the recv loop must stay responsive to control frames
  // (metrics, drain, fault injection) while requests execute, so requests
  // go through a queue drained by as many threads as the service executes
  // requests at once (`workers`). Each dispatcher executes its request on
  // its own thread: the service starts none. The router's per-worker
  // in-flight bound keeps this queue small by construction.
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<RequestMsg> queue;
  bool draining = false;
  const int pool_size = std::max(1, opts.service.workers);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(pool_size));
  for (int i = 0; i < pool_size; ++i) {
    pool.emplace_back([&] {
      for (;;) {
        RequestMsg msg;
        {
          std::unique_lock lock(queue_mutex);
          queue_cv.wait(lock, [&] { return draining || !queue.empty(); });
          if (queue.empty()) return;  // draining and drained
          msg = std::move(queue.front());
          queue.pop_front();
        }
        const ServeRequest request = from_request_msg(msg);
        ServeOutcome outcome;
        ServiceStatus status = ServiceStatus::kExecutionError;
        {
          obs::ScopedSpan span(obs::Category::kServiceNet,
                               serve_request_kind_name(request.kind));
          try {
            status = serve_dispatch(local, request, outcome);
          } catch (const std::exception& e) {
            outcome.error = e.what();
          }
        }
        try {
          send(encode_response(
              to_response_msg(msg.request_id, status, outcome)));
        } catch (const std::exception&) {
          // Front hung up; keep draining the queue so we can exit.
        }
      }
    });
  }

  int rc = 1;  // EOF without an orderly drain
  try {
    for (;;) {
      const std::optional<Frame> frame = recv_frame(sock, &ctr);
      if (!frame) break;
      if (frame->type == FrameType::kRequest) {
        {
          std::lock_guard lock(queue_mutex);
          queue.push_back(decode_request(*frame));
        }
        queue_cv.notify_one();
      } else if (frame->type == FrameType::kServiceCtl) {
        const ServiceCtlMsg ctl = decode_service_ctl(*frame);
        if (ctl.op == ServiceCtlOp::kMetricsQuery) {
          ServiceCtlMsg reply;
          reply.op = ServiceCtlOp::kMetricsReply;
          reply.rank = static_cast<std::uint32_t>(rank);
          reply.text = metrics_prometheus(local.metrics(), rank);
          send(encode_service_ctl(reply));
        } else if (ctl.op == ServiceCtlOp::kStoreSwap) {
          // Generation doorbell: re-read the control segment and swap.
          // The swap happens here, between requests at this rank's recv
          // loop — in-flight dispatches keep their old reader alive via
          // shared_ptr until they finish.
          const shm::Status swapped = local.swap_store();
          ServiceCtlMsg ack;
          ack.op = ServiceCtlOp::kStoreSwapAck;
          ack.rank = static_cast<std::uint32_t>(rank);
          ack.counters = {swapped ? 1ull : 0ull,
                          store != nullptr
                              ? store->current_handle().generation
                              : 0ull};
          if (!swapped) ack.text = swapped.message;
          send(encode_service_ctl(ack));
        } else if (ctl.op == ServiceCtlOp::kDrain) {
          rc = 0;
          break;
        } else if (ctl.op == ServiceCtlOp::kCrash) {
          // Fault injection: die exactly as a crashed process would — no
          // unwinding, no goodbye. Ignored unless the harness opted in.
          if (opts.allow_crash_op) std::_Exit(kServeCrashExitCode);
        }
      }
      // Other frame types on a serve link are ignored.
    }
  } catch (const std::exception&) {
    rc = 1;
  }

  {
    std::lock_guard lock(queue_mutex);
    draining = true;
  }
  queue_cv.notify_all();
  for (std::thread& t : pool) t.join();
  if (rc == 0) {
    ServiceCtlMsg ack;
    ack.op = ServiceCtlOp::kDrainAck;
    ack.rank = static_cast<std::uint32_t>(rank);
    try {
      send(encode_service_ctl(ack));
    } catch (const std::exception&) {
    }
  }
  local.service().shutdown();
  return rc;
}

// ---------------------------------------------------------------------------
// Front side.

std::vector<PeerLink> accept_serve_workers(
    Listener& listener, int n, int timeout_ms,
    const std::function<int()>& dead_poll) {
  WireCounters& ctr = global_wire_counters();
  std::vector<PeerLink> links;
  links.reserve(static_cast<std::size_t>(n));
  Timer timer;
  while (static_cast<int>(links.size()) < n) {
    BSTC_REQUIRE(timer.elapsed_s() * 1000.0 < timeout_ms,
                 "serve: timed out waiting for workers to connect");
    if (dead_poll) {
      BSTC_REQUIRE(dead_poll() == 0,
                   "serve: a worker died before rendezvous completed");
    }
    std::optional<Socket> sock = listener.accept(200);
    if (!sock) continue;
    const std::optional<Frame> hello_frame = recv_frame(*sock, &ctr);
    if (!hello_frame) continue;  // connected then vanished; keep waiting
    const HelloMsg hello = decode_hello(*hello_frame);
    BSTC_REQUIRE(hello.fingerprint == kServeProtocolId,
                 "serve: worker speaks a different protocol");
    const int rank = static_cast<int>(links.size()) + 1;
    WelcomeMsg welcome;
    welcome.rank = static_cast<std::uint32_t>(rank);
    welcome.np = static_cast<std::uint32_t>(n + 1);
    send_frame(*sock, encode_welcome(welcome), &ctr);
    links.push_back(PeerLink{rank, std::move(*sock)});
  }
  return links;
}

struct ServeRouter::Worker {
  int rank = 0;
  Socket sock;
  std::thread rx;
  std::mutex tx_mutex;  ///< serializes frame writes to this worker
  // Everything below is guarded by the router's mutex_.
  bool alive = true;
  std::size_t inflight = 0;
  bool metrics_ready = false;
  ServiceCtlMsg metrics_reply;
  bool swap_ready = false;
  ServiceCtlMsg swap_reply;
  bool drain_acked = false;
};

struct ServeRouter::Pending {
  int rank = -1;
  bool done = false;
  ServiceStatus status = ServiceStatus::kOk;
  ResponseMsg msg;
};

ServeRouter::ServeRouter(std::vector<PeerLink> workers, ServeRouterConfig cfg)
    : cfg_(cfg) {
  BSTC_REQUIRE(!workers.empty(), "serve: router needs at least one worker");
  BSTC_REQUIRE(cfg_.max_inflight_per_worker >= 1,
               "serve: per-worker in-flight bound must be >= 1");
  workers_.reserve(workers.size());
  for (PeerLink& link : workers) {
    auto w = std::make_unique<Worker>();
    w->rank = link.rank;
    w->sock = std::move(link.socket);
    workers_.push_back(std::move(w));
  }
  // Ranks must be 1..N: worker i lives at workers_[rank - 1].
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    BSTC_REQUIRE(workers_[i]->rank == static_cast<int>(i) + 1,
                 "serve: router workers must be ranked 1..N in order");
  }
  for (auto& w : workers_) {
    Worker* wp = w.get();
    w->rx = std::thread([this, wp] { reader_loop(*wp); });
  }
}

ServeRouter::~ServeRouter() { shutdown(); }

void ServeRouter::reader_loop(Worker& w) {
  WireCounters& ctr = global_wire_counters();
  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = recv_frame(w.sock, &ctr);
    } catch (const std::exception&) {
      frame.reset();
    }
    if (!frame) {
      on_worker_dead(w);
      return;
    }
    if (frame->type == FrameType::kResponse) {
      ResponseMsg msg = decode_response(*frame);
      std::lock_guard lock(mutex_);
      const auto it = pending_.find(msg.request_id);
      if (it != pending_.end() && !it->second->done) {
        Pending& p = *it->second;
        p.status = static_cast<ServiceStatus>(msg.status);
        p.msg = std::move(msg);
        p.done = true;
        if (w.inflight > 0) --w.inflight;
        done_cv_.notify_all();
      }
    } else if (frame->type == FrameType::kServiceCtl) {
      ServiceCtlMsg ctl = decode_service_ctl(*frame);
      std::lock_guard lock(mutex_);
      if (ctl.op == ServiceCtlOp::kMetricsReply) {
        w.metrics_reply = std::move(ctl);
        w.metrics_ready = true;
      } else if (ctl.op == ServiceCtlOp::kStoreSwapAck) {
        w.swap_reply = std::move(ctl);
        w.swap_ready = true;
      } else if (ctl.op == ServiceCtlOp::kDrainAck) {
        w.drain_acked = true;
      }
      ctl_cv_.notify_all();
    }
  }
}

void ServeRouter::on_worker_dead(Worker& w) {
  std::lock_guard lock(mutex_);
  if (!w.alive) return;
  w.alive = false;
  std::uint64_t lost = 0;
  for (auto& [id, pending] : pending_) {
    if (pending->rank != w.rank || pending->done) continue;
    pending->status = ServiceStatus::kWorkerLost;
    pending->msg.status =
        static_cast<std::uint8_t>(ServiceStatus::kWorkerLost);
    pending->msg.error =
        "worker rank " + std::to_string(w.rank) + " died mid-request";
    pending->done = true;
    ++lost;
  }
  stats_.worker_lost += lost;
  w.inflight = 0;
  done_cv_.notify_all();
  ctl_cv_.notify_all();
}

int ServeRouter::pick_rank_locked(std::uint64_t routing_key) {
  const auto it = affinity_.find(routing_key);
  if (it != affinity_.end() &&
      workers_[static_cast<std::size_t>(it->second) - 1]->alive) {
    ++stats_.affinity_hits;
    return it->second;
  }
  int best = -1;
  std::size_t best_load = 0;
  for (const auto& w : workers_) {
    if (!w->alive) continue;
    if (best < 0 || w->inflight < best_load) {
      best = w->rank;
      best_load = w->inflight;
    }
  }
  if (best < 0) return -1;
  if (it != affinity_.end()) {
    // The sticky owner died: move the key to a survivor.
    ++stats_.reassigned;
    it->second = best;
  } else {
    affinity_.emplace(routing_key, best);
  }
  return best;
}

ServeRouter::Ticket ServeRouter::begin(const RequestMsg& msg) {
  // Program requests fold the program name into the key so a program's
  // whole iteration stream sticks to one rank (its runner and per-node B
  // caches live there), without colliding with plain sessions on the
  // same spec.
  const ServeRequest req = from_request_msg(msg);
  const std::uint64_t routing_key =
      serve_program_routing_key(req.spec, req.program);
  Ticket ticket;
  Worker* worker = nullptr;
  {
    std::lock_guard lock(mutex_);
    if (shutdown_) {
      ticket.admit = ServiceStatus::kShuttingDown;
      return ticket;
    }
    const int rank = pick_rank_locked(routing_key);
    if (rank < 0) {
      ticket.admit = ServiceStatus::kWorkerLost;
      return ticket;
    }
    Worker& w = *workers_[static_cast<std::size_t>(rank) - 1];
    if (w.inflight >= cfg_.max_inflight_per_worker) {
      ++stats_.rejected;
      ticket.admit = ServiceStatus::kQueueFull;
      return ticket;
    }
    ticket.request_id = next_request_id_++;
    ticket.rank = rank;
    ++w.inflight;
    ++stats_.routed;
    auto pending = std::make_unique<Pending>();
    pending->rank = rank;
    pending_.emplace(ticket.request_id, std::move(pending));
    worker = &w;
  }
  RequestMsg out = msg;
  out.request_id = ticket.request_id;
  try {
    std::lock_guard tx(worker->tx_mutex);
    send_frame(worker->sock, encode_request(out), &global_wire_counters());
  } catch (const std::exception&) {
    on_worker_dead(*worker);  // fails our pending with kWorkerLost
  }
  return ticket;
}

ServiceStatus ServeRouter::finish(const Ticket& ticket, ResponseMsg& out) {
  BSTC_REQUIRE(ticket.admit == ServiceStatus::kOk,
               "serve: finish() on a rejected ticket");
  std::unique_lock lock(mutex_);
  const auto it = pending_.find(ticket.request_id);
  BSTC_REQUIRE(it != pending_.end(), "serve: finish() on an unknown ticket");
  Pending& p = *it->second;
  done_cv_.wait(lock, [&p] { return p.done; });
  out = std::move(p.msg);
  const ServiceStatus status = p.status;
  pending_.erase(it);
  return status;
}

ServiceStatus ServeRouter::call(const RequestMsg& msg, ResponseMsg& out) {
  obs::ScopedSpan span(obs::Category::kServiceNet, "route");
  const Ticket ticket = begin(msg);
  if (ticket.admit != ServiceStatus::kOk) return ticket.admit;
  return finish(ticket, out);
}

std::vector<ServeRankMetrics> ServeRouter::gather_metrics() {
  std::vector<int> targets;
  {
    std::lock_guard lock(mutex_);
    for (auto& w : workers_) {
      if (!w->alive) continue;
      w->metrics_ready = false;
      targets.push_back(w->rank);
    }
  }
  ServiceCtlMsg query;
  query.op = ServiceCtlOp::kMetricsQuery;
  const Frame frame = encode_service_ctl(query);
  for (const int rank : targets) {
    Worker& w = *workers_[static_cast<std::size_t>(rank) - 1];
    try {
      std::lock_guard tx(w.tx_mutex);
      send_frame(w.sock, frame, &global_wire_counters());
    } catch (const std::exception&) {
      on_worker_dead(w);
    }
  }
  std::vector<ServeRankMetrics> out;
  std::unique_lock lock(mutex_);
  ctl_cv_.wait_for(lock, std::chrono::seconds(60), [&] {
    return std::all_of(targets.begin(), targets.end(), [&](int rank) {
      const Worker& w = *workers_[static_cast<std::size_t>(rank) - 1];
      return w.metrics_ready || !w.alive;
    });
  });
  for (const int rank : targets) {
    const Worker& w = *workers_[static_cast<std::size_t>(rank) - 1];
    if (w.metrics_ready) {
      out.push_back({static_cast<int>(w.metrics_reply.rank),
                     w.metrics_reply.text});
    }
  }
  return out;
}

std::size_t ServeRouter::swap_store(std::size_t* failed,
                                    std::string* first_error) {
  if (failed != nullptr) *failed = 0;
  if (first_error != nullptr) first_error->clear();
  std::vector<int> targets;
  {
    std::lock_guard lock(mutex_);
    for (auto& w : workers_) {
      if (!w->alive) continue;
      w->swap_ready = false;
      targets.push_back(w->rank);
    }
  }
  ServiceCtlMsg doorbell;
  doorbell.op = ServiceCtlOp::kStoreSwap;
  const Frame frame = encode_service_ctl(doorbell);
  for (const int rank : targets) {
    Worker& w = *workers_[static_cast<std::size_t>(rank) - 1];
    try {
      std::lock_guard tx(w.tx_mutex);
      send_frame(w.sock, frame, &global_wire_counters());
    } catch (const std::exception&) {
      on_worker_dead(w);
    }
  }
  std::size_t swapped = 0;
  std::unique_lock lock(mutex_);
  ctl_cv_.wait_for(lock, std::chrono::seconds(60), [&] {
    return std::all_of(targets.begin(), targets.end(), [&](int rank) {
      const Worker& w = *workers_[static_cast<std::size_t>(rank) - 1];
      return w.swap_ready || !w.alive;
    });
  });
  for (const int rank : targets) {
    const Worker& w = *workers_[static_cast<std::size_t>(rank) - 1];
    const bool ok = w.swap_ready && !w.swap_reply.counters.empty() &&
                    w.swap_reply.counters[0] == 1;
    if (ok) {
      ++swapped;
    } else {
      if (failed != nullptr) ++*failed;
      if (first_error != nullptr && first_error->empty()) {
        *first_error = w.swap_ready && !w.swap_reply.text.empty()
                           ? w.swap_reply.text
                           : "rank " + std::to_string(rank) +
                                 " never acked the store swap";
      }
    }
  }
  return swapped;
}

void ServeRouter::crash_worker(int rank) {
  BSTC_REQUIRE(rank >= 1 && rank <= static_cast<int>(workers_.size()),
               "serve: crash_worker rank out of range");
  Worker& w = *workers_[static_cast<std::size_t>(rank) - 1];
  ServiceCtlMsg ctl;
  ctl.op = ServiceCtlOp::kCrash;
  try {
    std::lock_guard tx(w.tx_mutex);
    send_frame(w.sock, encode_service_ctl(ctl), &global_wire_counters());
  } catch (const std::exception&) {
    on_worker_dead(w);
  }
}

int ServeRouter::owner_of(std::uint64_t routing_key) const {
  std::lock_guard lock(mutex_);
  const auto it = affinity_.find(routing_key);
  return it == affinity_.end() ? -1 : it->second;
}

ServeRouterStats ServeRouter::stats() const {
  std::lock_guard lock(mutex_);
  ServeRouterStats out = stats_;
  out.live_workers = static_cast<std::size_t>(
      std::count_if(workers_.begin(), workers_.end(),
                    [](const auto& w) { return w->alive; }));
  return out;
}

void ServeRouter::shutdown() {
  {
    std::lock_guard lock(mutex_);
    if (shutdown_) {
      // Already shut down (the readers are joined below exactly once).
      return;
    }
    shutdown_ = true;
  }
  // Ask every live worker to drain; a failed send marks it dead.
  ServiceCtlMsg drain;
  drain.op = ServiceCtlOp::kDrain;
  const Frame frame = encode_service_ctl(drain);
  for (auto& w : workers_) {
    bool alive = false;
    {
      std::lock_guard lock(mutex_);
      alive = w->alive;
    }
    if (!alive) continue;
    try {
      std::lock_guard tx(w->tx_mutex);
      send_frame(w->sock, frame, &global_wire_counters());
    } catch (const std::exception&) {
      on_worker_dead(*w);
    }
  }
  {
    std::unique_lock lock(mutex_);
    ctl_cv_.wait_for(lock, std::chrono::seconds(10), [&] {
      return std::all_of(
          workers_.begin(), workers_.end(),
          [](const auto& w) { return !w->alive || w->drain_acked; });
    });
  }
  for (auto& w : workers_) w->sock.shutdown_both();
  for (auto& w : workers_) {
    if (w->rx.joinable()) w->rx.join();
  }
  // Anything still pending (begun after the drain raced in) fails clean.
  std::lock_guard lock(mutex_);
  for (auto& [id, pending] : pending_) {
    if (pending->done) continue;
    pending->status = ServiceStatus::kShuttingDown;
    pending->msg.error = "router shut down before the response arrived";
    pending->done = true;
  }
  done_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// RemoteService.

const Shape* RemoteService::c_shape_for(const ServeRequest& request) {
  if (!request.program.empty()) {
    // A program's output shape is the lowered program's declared R shape
    // (not the spec's c_shape — e.g. ccsd-doubles contracts into a
    // pair-space residual), derived from the client's own deterministic
    // program expansion and cached under the program routing key.
    const std::uint64_t key =
        serve_program_routing_key(request.spec, request.program);
    std::lock_guard lock(mutex_);
    const auto it = program_r_shapes_.find(key);
    if (it != program_r_shapes_.end()) return it->second.get();
    const expr::NamedProgram np =
        expr::build_named_program(request.program, request.spec);
    auto shape =
        std::make_shared<const Shape>(expr::lower(np.program).r_shape);
    return program_r_shapes_.emplace(key, std::move(shape))
        .first->second.get();
  }
  const std::uint64_t key = serve_routing_key(request.spec);
  std::lock_guard lock(mutex_);
  const auto it = built_.find(key);
  if (it != built_.end()) return &it->second->c_shape;
  const auto built = std::make_shared<const BuiltServeProblem>(
      build_serve_problem(request.spec));
  return &built_.emplace(key, built).first->second->c_shape;
}

ServiceStatus RemoteService::roundtrip(ServeRequestKind kind,
                                       const ServeRequest& request,
                                       ServeOutcome& outcome) {
  ServeRequest req = request;
  req.kind = kind;
  ResponseMsg resp;
  const ServiceStatus status = router_.call(to_request_msg(req, 0), resp);
  if (resp.request_id == 0 && resp.status == 0 && resp.error.empty() &&
      status != ServiceStatus::kOk) {
    // Rejected at admission: nothing came back over the wire.
    outcome = ServeOutcome{};
    outcome.routing_key =
        serve_program_routing_key(request.spec, request.program);
    outcome.error = service_status_name(status);
    return status;
  }
  const Shape* c_shape = nullptr;
  if (resp.has_c) {
    try {
      c_shape = c_shape_for(request);
    } catch (const std::exception& e) {
      outcome = ServeOutcome{};
      outcome.error = e.what();
      return ServiceStatus::kInvalidRequest;
    }
  }
  response_to_outcome(resp, c_shape, outcome);
  if (status != ServiceStatus::kOk && outcome.error.empty()) {
    outcome.error = service_status_name(status);
  }
  return status;
}

ServiceStatus RemoteService::Contract(const ServeRequest& request,
                                      ServeOutcome& outcome) {
  return roundtrip(ServeRequestKind::kContract, request, outcome);
}

ServiceStatus RemoteService::SessionIterate(const ServeRequest& request,
                                            ServeOutcome& outcome) {
  return roundtrip(ServeRequestKind::kSessionIterate, request, outcome);
}

ServiceStatus RemoteService::SessionClose(const ServeRequest& request,
                                          ServeOutcome& outcome) {
  return roundtrip(ServeRequestKind::kSessionClose, request, outcome);
}

ServiceStatus RemoteService::PlanExplain(const ServeRequest& request,
                                         ServeOutcome& outcome) {
  return roundtrip(ServeRequestKind::kPlanExplain, request, outcome);
}

ServiceStatus RemoteService::ProgramRun(const ServeRequest& request,
                                        ServeOutcome& outcome) {
  return roundtrip(ServeRequestKind::kProgramRun, request, outcome);
}

}  // namespace bstc::net
