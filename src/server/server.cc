#include "server/server.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>

#include "base/hot.h"
#include "base/thread_annotations.h"
#include "core/relationship.h"
#include "core/snapshot.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qb/observation_set.h"
#include "util/fault.h"

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

// Instruments of the request path, shared by every loop.
struct ServeTelemetry {
  obs::Counter& requests;
  obs::Histogram& latency;
  obs::Histogram& queue_wait;
  obs::Gauge& in_flight;
  obs::Counter& shed;
  obs::Counter& deadline_expired;
  obs::Counter& io_errors;
};

const ServeTelemetry& Telemetry() {
  static const ServeTelemetry telemetry{
      obs::DefaultCounter("rdfcube_server_requests_total",
                          "Requests evaluated by the event loops"),
      obs::DefaultHistogram("rdfcube_server_request_latency_us",
                            "Loop-side request handling latency (µs)",
                            obs::ExponentialBuckets(1.0, 4.0, 12)),
      obs::DefaultHistogram("rdfcube_server_queue_wait_us",
                            "Decode-to-evaluation wait (µs)",
                            obs::ExponentialBuckets(1.0, 4.0, 12)),
      obs::DefaultGauge("rdfcube_server_in_flight_requests",
                        "Requests currently held by the event loops"),
      obs::DefaultCounter("rdfcube_server_shed_total",
                          "Requests shed at admission (loop bound full)"),
      obs::DefaultCounter("rdfcube_server_deadline_expired_total",
                          "Requests that missed their deadline"),
      obs::DefaultCounter("rdfcube_server_io_errors_total",
                          "Response writes that failed"),
  };
  return telemetry;
}

// Observability payloads must fit one response frame; rather than truncate
// (corrupting Prometheus text / JSON), an oversize payload becomes an error.
void ClampObsText(uint32_t max_frame_bytes, Response* resp) {
  if (resp->text.size() + 512 <= max_frame_bytes) return;
  resp->text.clear();
  resp->code = RespCode::kInternal;
  resp->error = "observability payload exceeds frame limit";
}

// The u32 little-endian length prefix at `p`.
uint32_t FrameSize(const char* p) {
  uint32_t size = 0;
  for (int i = 0; i < 4; ++i) {
    size |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return size;
}

// Seconds since the kernel stamped the data of a read (SO_TIMESTAMPNS, the
// only control message enabled; CLOCK_REALTIME); 0 without a stamp.
double SocketWaitSeconds(const struct cmsghdr* stamp_msg) {
  if (stamp_msg == nullptr) return 0.0;
  struct timespec stamp, now;
  std::memcpy(&stamp, CMSG_DATA(stamp_msg), sizeof(stamp));
  ::clock_gettime(CLOCK_REALTIME, &now);
  return static_cast<double>(now.tv_sec - stamp.tv_sec) +
         static_cast<double>(now.tv_nsec - stamp.tv_nsec) * 1e-9;
}

// Milliseconds for poll() to wait `seconds` (infinite => -1), rounded up so
// a timer about to fire is not polled in a busy loop.
int PollTimeoutMs(double seconds) {
  if (std::isinf(seconds)) return -1;
  return static_cast<int>(std::min(std::ceil(seconds * 1000.0), 1e9));
}

}  // namespace

// One client connection, owned by the loop that accepted it.
struct Server::Connection {
  explicit Connection(Fd accepted) : fd(std::move(accepted)) {}

  bool Flushed() const { return out_off == out.size(); }

  // A whole frame, or a length prefix over the limit, is buffered.
  bool HasFrame(uint32_t max_frame_bytes) const {
    if (in.size() - in_off < 4) return false;
    const uint32_t size = FrameSize(in.data() + in_off);
    return size > max_frame_bytes || in.size() - in_off >= size + size_t{4};
  }

  // What the loop polls for: a pending tail waits for POLLOUT; a parked
  // request or a whole buffered frame (decoded next wakeup) for nothing, so
  // nothing more is read; the rest for requests.
  struct pollfd Interest(uint32_t max_frame_bytes) const {
    if (!Flushed()) return {fd.get(), POLLOUT, 0};
    const bool hold = waiting || HasFrame(max_frame_bytes);
    return {hold ? -1 : fd.get(), POLLIN, 0};
  }

  // Seconds the frame at `in_off` has waited to be decoded: how long its
  // last bytes sat in the socket, then the time since they were read. A
  // pipelined frame waits from the flush of the answer before it.
  double HeadWaitSeconds() const {
    return head_wait + head_since.ElapsedSeconds();
  }

  // Appends what the socket holds to `in` (compacting decoded frames away
  // first); false when the peer closed or the read failed. Called only
  // while no whole frame is buffered, so `in` stays within one frame plus
  // one read.
  bool Read(uint32_t max_frame_bytes) {
    in.erase(0, in_off);
    in_off = 0;
    char buf[4096];
    alignas(struct cmsghdr) char control[CMSG_SPACE(sizeof(struct timespec))];
    struct iovec iov = {buf, sizeof(buf)};
    for (;;) {
      struct msghdr msg = {nullptr, 0, &iov, 1, control, sizeof(control), 0};
      const ssize_t n = ::recvmsg(fd.get(), &msg, 0);
      if (n > 0) {
        if (!HasFrame(max_frame_bytes)) StampHead(CMSG_FIRSTHDR(&msg));
        in.append(buf, static_cast<std::size_t>(n));
        // Past one frame, decoding triages what is buffered (an oversize
        // prefix earns kBadRequest and a hangup). A short read took
        // everything there was; poll reports whatever arrives next.
        if (in.size() > max_frame_bytes + size_t{4} ||
            static_cast<std::size_t>(n) < sizeof(buf)) {
          return true;
        }
        continue;
      }
      if (n == 0) return false;  // peer closed
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno != EINTR) return false;
    }
  }

  // These bytes may end the head frame: its wait restarts at their socket
  // wait, clamped to the monotonic time since the head clock last restarted
  // (the connection turned idle, or an earlier read), which bounds what a
  // step of the wall clock can cost.
  void StampHead(const struct cmsghdr* stamp) {
    const double waited = std::clamp(SocketWaitSeconds(stamp), 0.0,
                                     head_since.ElapsedSeconds());
    head_since.Restart();
    head_wait = waited;
  }

  // Sends what the kernel takes without blocking; false when the stream
  // died. An unsent tail waits for POLLOUT. Once all is sent the connection
  // is idle again and the next frame's wait starts.
  bool Flush() {
    const std::size_t before = out_off;
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd.get(), out.data() + out_off,
                               out.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (out_off != before) since_progress.Restart();
        return true;
      } else if (errno != EINTR) {
        return false;
      }
    }
    out.clear();
    out_off = 0;
    head_since.Restart();
    head_wait = 0.0;
    return true;
  }

  // Encodes `resp` as one frame behind whatever is unsent and sends what
  // the kernel takes; a failed send (or injected write fault) drops it.
  void Send(const Response& resp) {
    if (dead) return;
    if (FaultTriggered(kFaultNetWrite)) return Drop();
    if (Flushed()) since_progress.Restart();
    AppendResponseFrame(resp, &out);
    if (!Flush()) Drop();
  }

  void Drop() {
    if (!dead) Telemetry().io_errors.Increment();
    dead = true;
  }

  Fd fd;
  std::string in;            // received bytes; the first `in_off` decoded
  std::size_t in_off = 0;
  Stopwatch head_since;      // see HeadWaitSeconds
  double head_wait = 0.0;    // socket wait of the head frame's last bytes
  std::string out;           // encoded frames; the first `out_off` sent
  std::size_t out_off = 0;
  Stopwatch since_progress;  // restarted when output starts or advances
  bool waiting = false;      // a decoded request is not answered yet
  bool closing = false;      // hang up once `out` is flushed
  bool dead = false;         // hang up now
};

// A request between decode and evaluation.
struct Server::Decoded {
  Connection* conn;
  Request req;
  Deadline deadline;       // net of the frame's wait before decode
  Stopwatch since_decode;  // queue-wait metric
};

// One event loop: its thread, its connections and its poll set.
struct Server::Loop {
  // pfds[0] is the wake fd, pfds[1] the listener, pfds[kFirstConn + i]
  // conns[i]: rebuilt when the connection set changes, a connection's
  // interest updated in place.
  static constexpr std::size_t kFirstConn = 2;

  // A parked kTraceDump, answered when `window` closes.
  struct Capture {
    Decoded request;
    Stopwatch started;
    Deadline window;
    uint64_t snapshot_version;
  };

  void RebuildPollSet(int listener, bool draining, uint32_t max_frame_bytes) {
    pfds.resize(kFirstConn + conns.size());
    pfds[0] = {wake.get(), POLLIN, 0};
    pfds[1] = {draining ? -1 : listener, POLLIN, 0};  // draining: no accepts
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[kFirstConn + i] = conns[i]->Interest(max_frame_bytes);
    }
    pfds_stale = false;
  }

  void Adopt(Fd fd) {
    conns.push_back(std::make_unique<Connection>(std::move(fd)));
    pfds_stale = true;
  }

  // Clears the wake fd (Stop() or a handoff wrote it) and adopts the
  // connections other loops handed over.
  void TakeInbox() {
    uint64_t writes = 0;
    (void)!::read(wake.get(), &writes, sizeof(writes));
    for (Fd& fd : Handoffs()) Adopt(std::move(fd));
  }

  // Empties the inbox; what it held is adopted or closed outside the lock.
  std::vector<Fd> Handoffs() {
    std::vector<Fd> taken;
    MutexLock lock(&inbox_mu);
    taken.swap(inbox);
    return taken;
  }

  Fd wake;  // eventfd, written by Stop() and by each handoff
  std::atomic<std::size_t> owned{0};  // connections, handoffs included
  Mutex inbox_mu;
  std::vector<Fd> inbox RDFCUBE_GUARDED_BY(inbox_mu);  // handed over
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<struct pollfd> pfds;
  bool pfds_stale = true;
  std::vector<Decoded> decoded;  // this wakeup's kept requests
  std::size_t rotation = 0;      // where this wakeup's decode pass starts
  std::string payload;           // scratch copy of the frame being decoded
  std::optional<Capture> capture;
  std::thread thread;  // last: runs over the members above
};

Server::Server(const ServerOptions& options)
    : options_(options), slowlog_(options.slowlog_capacity) {}

Server::~Server() { Stop(); }

Status Server::Start(SnapshotPtr initial) {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("server already started");
  }
  store_.Publish(std::move(initial));

  RDFCUBE_ASSIGN_OR_RETURN(listener_, ListenOn(options_.port));
  RDFCUBE_ASSIGN_OR_RETURN(port_, LocalPort(listener_));
  for (std::size_t i = 0; i < std::max<std::size_t>(1, options_.num_workers);
       ++i) {
    auto loop = std::make_unique<Loop>();
    loop->wake = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    if (!loop->wake.valid()) {
      return Status::IOError(std::string("eventfd: ") + std::strerror(errno));
    }
    loop->decoded.reserve(std::min<std::size_t>(options_.max_queue, 1024));
    loops_.push_back(std::move(loop));
  }
  for (const std::unique_ptr<Loop>& loop : loops_) {
    loop->thread = std::thread([this, raw = loop.get()] { RunLoop(raw); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  obs::TraceSpan span("server/drain");
  // Each loop answers what it decoded, refuses new frames, flushes, exits.
  draining_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  for (const std::unique_ptr<Loop>& loop : loops_) {
    (void)!::write(loop->wake.get(), &one, sizeof(one));
  }
  for (const std::unique_ptr<Loop>& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // A handoff can race its target's exit; what it left is closed here.
  for (const std::unique_ptr<Loop>& loop : loops_) (void)loop->Handoffs();
  listener_.Close();
}

// Takes one pending connection for the loop that owns the fewest (this one
// on a tie), handing it over through that loop's inbox and wake fd. A
// connection's requests all run on its owner, so spreading connections
// spreads the work of clients that each keep one.
void Server::Accept(Loop* loop) {
  Fd fd(::accept4(listener_.get(), nullptr, nullptr,
                  SOCK_NONBLOCK | SOCK_CLOEXEC));
  if (!fd.valid()) return;  // another loop took it
  const int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof(one));
  Loop* target = loop;
  for (const std::unique_ptr<Loop>& other : loops_) {
    if (other->owned.load(std::memory_order_relaxed) <
        target->owned.load(std::memory_order_relaxed)) {
      target = other.get();
    }
  }
  target->owned.fetch_add(1, std::memory_order_relaxed);
  if (target == loop) return loop->Adopt(std::move(fd));
  {
    MutexLock lock(&target->inbox_mu);
    target->inbox.push_back(std::move(fd));
  }
  const uint64_t handoff = 1;
  (void)!::write(target->wake.get(), &handoff, sizeof(handoff));
}

void Server::RunLoop(Loop* loop) {
  constexpr std::size_t kFirstConn = Loop::kFirstConn;
  const double write_timeout = options_.write_timeout_seconds;
  bool draining = false;
  Deadline drain_budget;
  int timeout_ms = -1;
  for (;;) {
    if (loop->pfds_stale) {
      loop->RebuildPollSet(listener_.get(), draining, options_.max_frame_bytes);
    }
    const std::size_t polled = loop->pfds.size() - kFirstConn;
    const int rc = ::poll(loop->pfds.data(), loop->pfds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      obs::LogError("server", "poll failed",
                    {obs::Field("errno", std::strerror(errno))});
      break;
    }
    if (!draining && draining_.load(std::memory_order_acquire)) {
      draining = true;
      drain_budget = Deadline(write_timeout);
      loop->pfds_stale = true;
    }

    // Read requests and flush parked tails. A connection holding a whole
    // frame is not read, so its kernel buffer pushes back on the client.
    for (std::size_t i = 0; rc > 0 && i < polled; ++i) {
      if (loop->pfds[kFirstConn + i].revents == 0) continue;
      Connection* conn = loop->conns[i].get();
      if (!conn->Flushed()) {
        if (!conn->Flush()) conn->Drop();
      } else if (!conn->HasFrame(options_.max_frame_bytes) &&
                 !conn->Read(options_.max_frame_bytes)) {
        conn->dead = true;
      }
    }
    if (rc > 0 && (loop->pfds[0].revents & POLLIN) != 0) loop->TakeInbox();
    if (!draining && rc > 0 && (loop->pfds[1].revents & POLLIN) != 0) {
      Accept(loop);
    }

    // Decode one frame per idle connection, then evaluate in decode order.
    // The start rotates per wakeup, so no connection is always the one
    // shed or the one that waits.
    const std::size_t num_conns = loop->conns.size();
    for (std::size_t k = 0; k < num_conns; ++k) {
      Connection* conn = loop->conns[(loop->rotation + k) % num_conns].get();
      if (!conn->dead && !conn->closing && !conn->waiting &&
          conn->Flushed()) {
        DecodeFrame(loop, conn, draining);
      }
    }
    ++loop->rotation;
    for (Decoded& decoded : loop->decoded) HandleRequest(loop, &decoded);
    loop->decoded.clear();
    if (loop->capture.has_value() &&
        (draining || loop->capture->window.Expired())) {
      FinishCapture(loop);
    }

    // Sweep: hang up what is done, refresh interest, arm the next timer.
    double wait = loop->capture.has_value()
                      ? loop->capture->window.RemainingSeconds()
                      : std::numeric_limits<double>::infinity();
    bool unflushed = false;
    for (std::size_t i = 0; i < loop->conns.size(); ++i) {
      Connection* conn = loop->conns[i].get();
      if (!conn->Flushed() && !conn->dead) {
        const double stalled = conn->since_progress.ElapsedSeconds();
        if (stalled > write_timeout) {
          conn->Drop();
        } else {
          unflushed = true;
          wait = std::min(wait, write_timeout - stalled);
        }
      }
      if (conn->closing && conn->Flushed()) conn->dead = true;
      if (!conn->dead && !conn->closing && !conn->waiting &&
          conn->Flushed() && conn->HasFrame(options_.max_frame_bytes)) {
        wait = 0.0;  // a pipelined frame is already buffered
      }
      if (!loop->pfds_stale) {
        loop->pfds[kFirstConn + i] = conn->Interest(options_.max_frame_bytes);
      }
    }
    const std::size_t closed =
        std::erase_if(loop->conns, [](const auto& c) { return c->dead; });
    if (closed != 0) {
      loop->owned.fetch_sub(closed, std::memory_order_relaxed);
      loop->pfds_stale = true;
    }
    if (draining) {
      if ((!unflushed && !loop->capture.has_value()) ||
          drain_budget.Expired()) {
        break;
      }
      wait = std::min(wait, drain_budget.RemainingSeconds());
    }
    timeout_ms = PollTimeoutMs(wait);
  }
  if (loop->capture.has_value()) FinishCapture(loop);  // poll failed
  loop->conns.clear();
}

void Server::DecodeFrame(Loop* loop, Connection* conn, bool draining) {
  if (!conn->HasFrame(options_.max_frame_bytes)) return;
  const char* at = conn->in.data() + conn->in_off;
  const uint32_t size = FrameSize(at);
  Response resp;
  if (size > options_.max_frame_bytes) {
    resp.code = RespCode::kBadRequest;
    resp.error = "frame exceeds limit";
  } else if (draining) {
    resp.code = RespCode::kShuttingDown;
    resp.error = "server is draining";
  } else {
    loop->payload.assign(at + 4, size);
    conn->in_off += size + size_t{4};
    Result<Request> decoded = DecodeRequest(loop->payload);
    if (!decoded.ok()) {
      // Protocol desync: answer, then drop the stream (resynchronizing a
      // length-prefixed stream after garbage is guesswork).
      resp.code = RespCode::kBadRequest;
      resp.error = decoded.status().message();
    } else if (options_.obs_ops_bypass_admission &&
               (decoded->op == Op::kMetrics || decoded->op == Op::kSlowlog)) {
      // Exempt scrape: a server that sheds every lookup still answers its
      // metrics and slowlog. No deadline and no requests_total_ (like every
      // inline answer), but the per-op counter ticks, after rendering.
      const SnapshotPtr snap = store_.Current();
      if (snap != nullptr) resp.snapshot_version = snap->version();
      resp.request_id = decoded->request_id;
      if (decoded->op == Op::kMetrics) {
        EvaluateMetrics(&resp);
      } else {
        EvaluateSlowlog(&resp);
      }
      OpTelemetryFor(decoded->op).requests->Increment();
      return conn->Send(resp);
    } else if (loop->decoded.size() >=
               std::max<std::size_t>(1, options_.max_queue)) {
      shed_total_.fetch_add(1, std::memory_order_relaxed);
      Telemetry().shed.Increment();
      resp.code = RespCode::kShed;
      resp.retry_after_ms = options_.retry_after_ms;
      resp.error = "server at capacity";
      resp.request_id = decoded->request_id;
      return conn->Send(resp);  // the client backs off and retries
    } else {
      double seconds = decoded->deadline_ms == 0
                           ? options_.default_deadline_seconds
                           : static_cast<double>(decoded->deadline_ms) / 1000.0;
      // The budget counts the frame's wait before decode: time it sat in
      // the socket while this loop served others counts against it.
      seconds = std::min(seconds, options_.max_deadline_seconds) -
                conn->HeadWaitSeconds();
      loop->decoded.push_back({conn, decoded.value(),
                               Deadline(std::max(0.0, seconds)), Stopwatch()});
      conn->waiting = true;
      return;
    }
  }
  conn->Send(resp);
  conn->closing = true;
}

void Server::HandleRequest(Loop* loop, Decoded* decoded) {
  obs::TraceSpan span("server/handle");
  const Stopwatch started;
  const ServeTelemetry& telemetry = Telemetry();
  telemetry.queue_wait.Observe(decoded->since_decode.ElapsedMicros());
  telemetry.in_flight.Increment();
  telemetry.requests.Increment();
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  decoded->conn->waiting = false;

  // One store lookup per request: the snapshot pointer is pinned here so the
  // hot Evaluate kernel below never touches the mutex-guarded store.
  const SnapshotPtr snap = store_.Current();
  if (decoded->req.op == Op::kTraceDump &&
      StartCapture(loop, *decoded, snap, started)) {
    return;  // FinishCapture answers when the window closes
  }
  const Response resp = Evaluate(decoded->req, snap, decoded->deadline);
  if (resp.code == RespCode::kDeadlineExceeded) {
    telemetry.deadline_expired.Increment();
    deadline_expired_total_.fetch_add(1, std::memory_order_relaxed);
  }
  Complete(*decoded, resp, started);
}

void Server::Complete(const Decoded& decoded, const Response& resp,
                      const Stopwatch& started) {
  decoded.conn->Send(resp);
  const double handle_us = started.ElapsedMicros();
  Telemetry().latency.Observe(handle_us);
  RecordOpTelemetry(decoded.req, resp, decoded.deadline, handle_us);
  Telemetry().in_flight.Decrement();
}

// Cold epilogue: per-op RED attribution and the slowlog entry. Runs after
// the response is sent so it never adds to client-visible latency.
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
      EvaluateTraceDump(&resp);
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

// A kTraceDump that StartCapture declined: the collector is dumped as-is,
// never toggled (an external capture such as a bench harness or stats
// --report owns it, or another capture's window is open).
RDFCUBE_COLD void Server::EvaluateTraceDump(Response* resp) {
  resp->text = obs::TraceCollector::Global().ChromeTraceJson();
  ClampObsText(options_.max_frame_bytes, resp);
}

// On-demand capture for a window bounded by the request's limit (default
// 100 ms), `max_trace_window_ms` and its deadline; the window is the loop's
// poll timer. Expired and snapshot-less requests, and a collector already
// capturing (external, another loop's, or this loop's parked window), go to
// Evaluate.
RDFCUBE_COLD bool Server::StartCapture(Loop* loop, const Decoded& decoded,
                                       const SnapshotPtr& snap,
                                       const Stopwatch& started) {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  if (collector.enabled() || loop->capture.has_value() || snap == nullptr ||
      decoded.deadline.Expired()) {
    return false;
  }
  uint32_t window_ms = decoded.req.limit == 0 ? 100u : decoded.req.limit;
  window_ms = std::min(window_ms, options_.max_trace_window_ms);
  const double budget_ms = decoded.deadline.RemainingSeconds() * 1000.0;
  if (budget_ms < static_cast<double>(window_ms)) {
    window_ms = budget_ms > 0.0 ? static_cast<uint32_t>(budget_ms) : 0u;
  }
  collector.Enable(1u << 12);
  loop->capture.emplace(Loop::Capture{
      decoded, started, Deadline(static_cast<double>(window_ms) / 1000.0),
      snap->version()});
  decoded.conn->waiting = true;
  return true;
}

RDFCUBE_COLD void Server::FinishCapture(Loop* loop) {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  const Loop::Capture& capture = *loop->capture;
  Response resp;
  resp.request_id = capture.request.req.request_id;
  resp.snapshot_version = capture.snapshot_version;
  resp.text = collector.ChromeTraceJson();
  collector.Disable();
  ClampObsText(options_.max_frame_bytes, &resp);
  capture.request.conn->waiting = false;
  Complete(capture.request, resp, capture.started);
  loop->capture.reset();
}

}  // namespace server
}  // namespace rdfcube
