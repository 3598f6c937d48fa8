#include "server/server.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "base/hot.h"
#include "core/relationship.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qb/observation_set.h"

namespace rdfcube {
namespace server {

namespace {

// Per-op RED instruments, indexed by wire op - 1. Names and help strings
// live in this table (not at the registration call) so the set stays
// greppable in one place; all follow rdfcube_server_<op>_<what>_<unit>.
struct OpTelemetry {
  obs::Counter* requests = nullptr;
  obs::Histogram* latency = nullptr;
};

struct OpMetricSpec {
  const char* requests_name;
  const char* requests_help;
  const char* latency_name;
  const char* latency_help;
};

constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kTraceDump);

constexpr OpMetricSpec kOpMetricSpecs[kNumOps] = {
    {"rdfcube_server_ping_requests_total", "ping requests handled",
     "rdfcube_server_ping_latency_us", "ping handling latency (us)"},
    {"rdfcube_server_containers_requests_total",
     "containers lookups handled", "rdfcube_server_containers_latency_us",
     "containers handling latency (us)"},
    {"rdfcube_server_contained_requests_total", "contained lookups handled",
     "rdfcube_server_contained_latency_us", "contained handling latency (us)"},
    {"rdfcube_server_complements_requests_total",
     "complements lookups handled", "rdfcube_server_complements_latency_us",
     "complements handling latency (us)"},
    {"rdfcube_server_partial_requests_total", "partial lookups handled",
     "rdfcube_server_partial_latency_us", "partial handling latency (us)"},
    {"rdfcube_server_scan_requests_total", "bulk scans handled",
     "rdfcube_server_scan_latency_us", "scan handling latency (us)"},
    {"rdfcube_server_stats_requests_total", "stats requests handled",
     "rdfcube_server_stats_latency_us", "stats handling latency (us)"},
    {"rdfcube_server_metrics_requests_total", "metrics scrapes handled",
     "rdfcube_server_metrics_latency_us", "metrics handling latency (us)"},
    {"rdfcube_server_slowlog_requests_total", "slowlog dumps handled",
     "rdfcube_server_slowlog_latency_us", "slowlog handling latency (us)"},
    {"rdfcube_server_tracedump_requests_total", "trace captures handled",
     "rdfcube_server_tracedump_latency_us", "tracedump handling latency (us)"},
};

const OpTelemetry& OpTelemetryFor(Op op) {
  static const std::array<OpTelemetry, kNumOps> table = [] {
    std::array<OpTelemetry, kNumOps> t{};
    for (std::size_t i = 0; i < kNumOps; ++i) {
      const OpMetricSpec& spec = kOpMetricSpecs[i];
      t[i].requests =
          &obs::DefaultCounter(spec.requests_name, spec.requests_help);
      t[i].latency =
          &obs::DefaultHistogram(spec.latency_name, spec.latency_help,
                                 obs::ExponentialBuckets(1.0, 4.0, 12));
    }
    return t;
  }();
  const std::size_t index = static_cast<std::size_t>(op) - 1;
  return table[index < kNumOps ? index : 0];
}

// Observability payloads must fit one response frame; rather than truncate
// (corrupting Prometheus text / JSON), an oversize payload becomes an error.
void ClampObsText(uint32_t max_frame_bytes, Response* resp) {
  if (resp->text.size() + 512 <= max_frame_bytes) return;
  resp->text.clear();
  resp->code = RespCode::kInternal;
  resp->error = "observability payload exceeds frame limit";
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      queue_(options.max_queue),
      slowlog_(options.slowlog_capacity) {}

Server::~Server() { Stop(); }

Status Server::Start(SnapshotPtr initial) {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("server already started");
  }
  store_.Publish(std::move(initial));

  RDFCUBE_ASSIGN_OR_RETURN(listener_, ListenOn(options_.port));
  RDFCUBE_ASSIGN_OR_RETURN(port_, LocalPort(listener_));

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) < 0) {
    return Status::IOError(std::string("pipe2: ") + std::strerror(errno));
  }
  wake_read_ = Fd(pipe_fds[0]);
  wake_write_ = Fd(pipe_fds[1]);

  reactor_ = std::thread([this] { ReactorLoop(); });
  workers_.reserve(options_.num_workers == 0 ? 1 : options_.num_workers);
  for (std::size_t i = 0; i < std::max<std::size_t>(1, options_.num_workers);
       ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  obs::TraceSpan span("server/drain");
  // Phase 1: stop admitting. New frames get kShuttingDown inline; jobs
  // already admitted drain through the workers.
  draining_.store(true, std::memory_order_release);
  WakeReactor();
  queue_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Phase 2: every response is written; tear the reactor down.
  reactor_exit_.store(true, std::memory_order_release);
  WakeReactor();
  if (reactor_.joinable()) reactor_.join();
}

void Server::WakeReactor() {
  const char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  (void)!::write(wake_write_.get(), &byte, 1);
}

void Server::ReactorLoop() {
  std::vector<struct pollfd> pfds;
  std::vector<int> pfd_conn;  // parallel: conn fd per pollfd (-1 = special)
  for (;;) {
    if (reactor_exit_.load(std::memory_order_acquire)) break;

    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_read_.get(), POLLIN, 0});
    pfd_conn.push_back(-1);
    const bool draining = draining_.load(std::memory_order_acquire);
    if (!draining && listener_.valid()) {
      pfds.push_back({listener_.get(), POLLIN, 0});
      pfd_conn.push_back(-2);
    }
    for (const auto& [fd, conn] : conns_) {
      if (conn.in_flight) continue;
      pfds.push_back({fd, POLLIN, 0});
      pfd_conn.push_back(fd);
    }

    const int rc = ::poll(pfds.data(), pfds.size(), 100);
    if (rc < 0 && errno != EINTR) break;

    // Worker handbacks first: a completed connection may already have the
    // next request buffered.
    std::vector<std::pair<int, bool>> done;
    {
      MutexLock lock(&completions_mu_);
      done.swap(completions_);
    }
    for (const auto& [fd, ok] : done) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      it->second.in_flight = false;
      if (!ok || it->second.closing || !ProcessFrames(fd, &it->second)) {
        conns_.erase(it);
      }
    }

    if (rc <= 0) continue;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      if (pfd_conn[i] == -1) {
        char buf[64];
        while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (pfd_conn[i] == -2) {
        for (;;) {
          const int cfd = ::accept4(listener_.get(), nullptr, nullptr,
                                    SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (cfd < 0) break;
          Connection conn;
          conn.fd = Fd(cfd);
          conns_.emplace(cfd, std::move(conn));
        }
        continue;
      }
      auto it = conns_.find(pfd_conn[i]);
      if (it == conns_.end() || it->second.in_flight) continue;
      if (!DrainReadable(&it->second) ||
          !ProcessFrames(it->first, &it->second)) {
        conns_.erase(it);
      }
    }
  }
  // Shutdown: every worker has joined by now, so no fd is in flight.
  conns_.clear();
  listener_.Close();
}

bool Server::DrainReadable(Connection* conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<std::size_t>(n));
      // Refuse to buffer unboundedly: stop reading and let ProcessFrames
      // triage what is buffered (an oversize prefix earns kBadRequest and a
      // hangup; complete frames are consumed, freeing the buffer).
      if (conn->inbuf.size() > options_.max_frame_bytes + 4u) return true;
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

bool Server::ProcessFrames(int fd, Connection* conn) {
  while (!conn->in_flight) {
    if (conn->inbuf.size() < 4) return true;
    uint32_t size = 0;
    for (int i = 0; i < 4; ++i) {
      size |= static_cast<uint32_t>(
                  static_cast<unsigned char>(conn->inbuf[i]))
              << (8 * i);
    }
    if (size > options_.max_frame_bytes) {
      Response resp;
      resp.code = RespCode::kBadRequest;
      resp.error = "frame exceeds limit";
      RespondInline(conn, resp);
      return false;
    }
    if (conn->inbuf.size() < 4u + size) return true;
    const std::string payload = conn->inbuf.substr(4, size);
    conn->inbuf.erase(0, 4u + size);

    if (draining_.load(std::memory_order_acquire)) {
      Response resp;
      resp.code = RespCode::kShuttingDown;
      resp.error = "server is draining";
      RespondInline(conn, resp);
      return false;
    }
    Result<Request> decoded = DecodeRequest(payload);
    if (!decoded.ok()) {
      // Protocol desync: answer, then drop the stream (resynchronizing a
      // length-prefixed stream after garbage is guesswork).
      Response resp;
      resp.code = RespCode::kBadRequest;
      resp.error = decoded.status().message();
      RespondInline(conn, resp);
      return false;
    }
    const Request req = std::move(decoded).value();
    if (options_.obs_ops_bypass_admission &&
        (req.op == Op::kMetrics || req.op == Op::kSlowlog)) {
      // Admission-exempt scrape path: a saturated server that sheds every
      // point lookup still answers its metrics and slowlog endpoints.
      RespondObsInline(conn, req);
      continue;
    }
    double seconds = req.deadline_ms == 0
                         ? options_.default_deadline_seconds
                         : static_cast<double>(req.deadline_ms) / 1000.0;
    seconds = std::min(seconds, options_.max_deadline_seconds);
    const Deadline deadline(seconds);  // clock starts at admission
    const Stopwatch queued;            // queue-wait metric starts here
    switch (queue_.TryPush([this, fd, req, deadline, queued] {
      HandleJob(fd, req, deadline, queued);
    })) {
      case Admission::kAdmitted:
        conn->in_flight = true;
        break;
      case Admission::kShed: {
        shed_total_.fetch_add(1, std::memory_order_relaxed);
        Response resp;
        resp.code = RespCode::kShed;
        resp.retry_after_ms = options_.retry_after_ms;
        resp.error = "admission queue full";
        resp.request_id = req.request_id;
        RespondInline(conn, resp);
        break;  // connection survives; the client backs off and retries
      }
      case Admission::kClosed: {
        Response resp;
        resp.code = RespCode::kShuttingDown;
        resp.error = "server is draining";
        resp.request_id = req.request_id;
        RespondInline(conn, resp);
        return false;
      }
    }
  }
  return true;
}

void Server::RespondInline(Connection* conn, const Response& resp) {
  const Deadline write_deadline(options_.write_timeout_seconds);
  (void)WriteFrame(conn->fd.get(), EncodeResponse(resp), write_deadline);
}

void Server::WorkerLoop() {
  for (;;) {
    // Unlimited pop deadline: Close() is the wakeup that ends the loop.
    std::optional<std::function<void()>> job = queue_.Pop(Deadline());
    if (!job.has_value()) {
      if (queue_.closed()) return;
      continue;
    }
    (*job)();
  }
}

void Server::HandleJob(int fd, const Request& req, const Deadline& deadline,
                       const Stopwatch& queued) {
  obs::TraceSpan span("server/handle");
  static obs::Counter& requests = obs::DefaultCounter(
      "rdfcube_server_requests_total", "Requests evaluated by workers");
  static obs::Histogram& latency = obs::DefaultHistogram(
      "rdfcube_server_request_latency_us",
      "Worker-side request handling latency (µs)",
      obs::ExponentialBuckets(1.0, 4.0, 12));
  static obs::Histogram& queue_wait = obs::DefaultHistogram(
      "rdfcube_server_queue_wait_us",
      "Admission-to-worker-pickup wait (µs)",
      obs::ExponentialBuckets(1.0, 4.0, 12));
  static obs::Gauge& in_flight = obs::DefaultGauge(
      "rdfcube_server_in_flight_requests",
      "Requests currently held by workers");
  queue_wait.Observe(queued.ElapsedMicros());
  in_flight.Increment();
  requests.Increment();
  requests_total_.fetch_add(1, std::memory_order_relaxed);

  // One store lookup per request: the snapshot pointer is pinned here so the
  // hot Evaluate kernel below never touches the mutex-guarded store.
  const SnapshotPtr snap = store_.Current();
  const Response resp = Evaluate(req, snap, deadline);
  if (resp.code == RespCode::kDeadlineExceeded) {
    static obs::Counter& expired = obs::DefaultCounter(
        "rdfcube_server_deadline_expired_total",
        "Requests that missed their deadline");
    expired.Increment();
    deadline_expired_total_.fetch_add(1, std::memory_order_relaxed);
  }

  const Deadline write_deadline(options_.write_timeout_seconds);
  const Status wrote = WriteFrame(fd, EncodeResponse(resp), write_deadline);
  if (!wrote.ok()) {
    static obs::Counter& io_errors = obs::DefaultCounter(
        "rdfcube_server_io_errors_total", "Response writes that failed");
    io_errors.Increment();
  }
  const double handle_us = span.ElapsedSeconds() * 1e6;
  latency.Observe(handle_us);
  RecordOpTelemetry(req, resp, deadline, handle_us);
  in_flight.Decrement();
  {
    MutexLock lock(&completions_mu_);
    completions_.emplace_back(fd, wrote.ok());
  }
  WakeReactor();
}

// Cold epilogue: per-op RED attribution and the slowlog entry. Runs after
// the response is written so it never adds to client-visible latency.
RDFCUBE_COLD void Server::RecordOpTelemetry(const Request& req,
                                            const Response& resp,
                                            const Deadline& deadline,
                                            double handle_us) {
  const OpTelemetry& telemetry = OpTelemetryFor(req.op);
  telemetry.requests->Increment();
  telemetry.latency->Observe(handle_us);

  SlowlogEntry entry;
  entry.op = static_cast<uint8_t>(req.op);
  entry.request_id = req.request_id;
  entry.latency_us = handle_us;
  const double remaining = deadline.RemainingSeconds();
  entry.deadline_remaining_ms =
      std::isinf(remaining) ? -1.0 : remaining * 1000.0;
  entry.snapshot_version = resp.snapshot_version;
  slowlog_.Add(entry);
}

RDFCUBE_HOT Response Server::Evaluate(const Request& req,
                                      const SnapshotPtr& snap,
                                      const Deadline& deadline) {
  Response resp;
  resp.request_id = req.request_id;
  if (deadline.Expired()) {
    resp.code = RespCode::kDeadlineExceeded;
    resp.error = "deadline expired in queue";
    return resp;
  }
  if (snap == nullptr) {
    resp.code = RespCode::kInternal;
    resp.error = "no snapshot published";
    return resp;
  }
  resp.snapshot_version = snap->version();

  const auto fail = [&resp](const Status& st) {
    if (st.IsTimedOut()) {
      resp.code = RespCode::kDeadlineExceeded;
    } else if (st.IsNotFound()) {
      resp.code = RespCode::kNotFound;
    } else {
      resp.code = RespCode::kInternal;
    }
    resp.error = st.message();
  };

  switch (req.op) {
    case Op::kPing:
      break;
    case Op::kContainers:
    case Op::kContained:
    case Op::kComplements: {
      Result<std::vector<qb::ObsId>> ids =
          req.op == Op::kContainers ? snap->Containers(req.target, deadline)
          : req.op == Op::kContained
              ? snap->Contained(req.target, deadline)
              : snap->Complements(req.target, deadline);
      if (!ids.ok()) {
        fail(ids.status());
        break;
      }
      resp.ids = std::move(ids).value();
      break;
    }
    case Op::kPartial: {
      Result<std::vector<core::PartialMatch>> matches =
          snap->PartiallyContained(req.target, req.min_degree, deadline);
      if (!matches.ok()) {
        fail(matches.status());
        break;
      }
      resp.ids.reserve(matches.value().size());
      resp.degrees.reserve(matches.value().size());
      for (const auto& m : matches.value()) {
        resp.ids.push_back(m.other);
        resp.degrees.push_back(m.degree);
      }
      break;
    }
    case Op::kScan: {
      // A page holds no more records than its response frame can carry.
      uint32_t cap = ScanRecordsPerFrame(options_.max_frame_bytes);
      if (req.limit != 0) cap = std::min(cap, req.limit);
      bool more = false;
      const Status st =
          snap->ScanPage(req.cursor, cap, deadline, &resp.records, &more);
      if (!st.ok()) {
        resp.records.clear();
        fail(st);
        break;
      }
      resp.more = more;
      if (resp.records.empty()) {
        resp.cursor = req.cursor;
      } else {
        const ScanRecord& last = resp.records.back();
        resp.cursor = {last.kind, last.a, last.b};
      }
      break;
    }
    case Op::kStats:
      EvaluateStats(snap, &resp);
      break;
    case Op::kMetrics:
      EvaluateMetrics(&resp);
      break;
    case Op::kSlowlog:
      EvaluateSlowlog(&resp);
      break;
    case Op::kTraceDump:
      EvaluateTraceDump(req, deadline, &resp);
      break;
  }
  return resp;
}

// Introspection path: reads the store's mutex-guarded reload counters, so it
// is RDFCUBE_COLD to keep the lock facts out of Evaluate's hot summary.
RDFCUBE_COLD void Server::EvaluateStats(const SnapshotPtr& snap,
                                        Response* resp) {
  resp->stats.assign(kStatsNumFields, 0);
  resp->stats[kStatsObservations] = snap->num_observations();
  resp->stats[kStatsFull] = snap->num_full();
  resp->stats[kStatsPartial] = snap->num_partial();
  resp->stats[kStatsComplementary] = snap->num_complementary();
  resp->stats[kStatsRequests] =
      requests_total_.load(std::memory_order_relaxed);
  resp->stats[kStatsShed] = shed_total_.load(std::memory_order_relaxed);
  resp->stats[kStatsDeadlineExpired] =
      deadline_expired_total_.load(std::memory_order_relaxed);
  resp->stats[kStatsReloads] = store_.reloads();
  resp->stats[kStatsReloadFailures] = store_.reload_failures();
}

// Scrape path: snapshots the registry under its mutex — cold so the lock
// fact never reaches Evaluate's hot summary.
RDFCUBE_COLD void Server::EvaluateMetrics(Response* resp) {
  resp->text =
      obs::MetricsToPrometheus(obs::MetricsRegistry::Global().Snapshot());
  ClampObsText(options_.max_frame_bytes, resp);
}

RDFCUBE_COLD void Server::EvaluateSlowlog(Response* resp) {
  resp->text = slowlog_.ToJson();
  ClampObsText(options_.max_frame_bytes, resp);
}

// On-demand capture: when no external capture (bench harness, stats
// --report) owns the collector, enable it for a bounded window — sleeping
// on the worker thread, which is why kTraceDump always rides admission —
// then dump Chrome-trace JSON. An externally-enabled collector is dumped
// as-is, never toggled.
RDFCUBE_COLD void Server::EvaluateTraceDump(const Request& req,
                                            const Deadline& deadline,
                                            Response* resp) {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  if (!collector.enabled()) {
    uint32_t window_ms = req.limit == 0 ? 100u : req.limit;
    window_ms = std::min(window_ms, options_.max_trace_window_ms);
    const double budget_ms = deadline.RemainingSeconds() * 1000.0;
    if (budget_ms < static_cast<double>(window_ms)) {
      window_ms = budget_ms > 0.0 ? static_cast<uint32_t>(budget_ms) : 0u;
    }
    collector.Enable(1u << 12);
    std::this_thread::sleep_for(std::chrono::milliseconds(window_ms));
    resp->text = collector.ChromeTraceJson();
    collector.Disable();
  } else {
    resp->text = collector.ChromeTraceJson();
  }
  ClampObsText(options_.max_frame_bytes, resp);
}

// Reactor-side scrape: no admission, no deadline, no requests_total_
// accounting (consistent with the other inline responses) — but the per-op
// counter still ticks so scrape traffic stays attributable.
RDFCUBE_COLD void Server::RespondObsInline(Connection* conn,
                                           const Request& req) {
  Response resp;
  resp.request_id = req.request_id;
  const SnapshotPtr snap = store_.Current();
  if (snap != nullptr) resp.snapshot_version = snap->version();
  if (req.op == Op::kMetrics) {
    EvaluateMetrics(&resp);
  } else {
    EvaluateSlowlog(&resp);
  }
  OpTelemetryFor(req.op).requests->Increment();
  RespondInline(conn, resp);
}

}  // namespace server
}  // namespace rdfcube
