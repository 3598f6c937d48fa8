// The relationship server (DESIGN.md §6): reactor + bounded worker pool
// over the published RelationshipSnapshot.
//
// One reactor thread owns every connection: it accepts, accumulates frames,
// and either admits a decoded request to the AdmissionQueue (bounded; full
// queue => inline kShed response with retry-after) or answers protocol-level
// failures inline. Worker threads pop admitted jobs, honor the request
// deadline (expired => kDeadlineExceeded without touching the kernels),
// query the current snapshot, and write the response; the reactor resumes
// polling the connection afterwards (one outstanding request per
// connection). Stop() drains: new requests get kShuttingDown, admitted ones
// finish, then threads join and connections close.

#ifndef RDFCUBE_SERVER_SERVER_H_
#define RDFCUBE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/stopwatch.h"
#include "base/thread_annotations.h"
#include "qb/corpus.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/slowlog.h"
#include "server/snapshot_store.h"
#include "server/socket_io.h"

namespace rdfcube {
namespace server {

/// \brief Server tuning knobs.
struct ServerOptions {
  /// TCP port to listen on (loopback); 0 = kernel-assigned, read back via
  /// Server::port().
  uint16_t port = 0;
  /// Worker threads evaluating admitted requests.
  std::size_t num_workers = 2;
  /// Admission queue capacity; pushes beyond it are shed.
  std::size_t max_queue = 64;
  /// Backoff hint attached to kShed responses.
  uint32_t retry_after_ms = 50;
  /// Deadline applied when a request asks for none (deadline_ms == 0).
  double default_deadline_seconds = 1.0;
  /// Upper clamp on client-requested deadlines.
  double max_deadline_seconds = 10.0;
  /// Frame-size ceiling for reads and the advertised response cap.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Budget for writing one response back to a client.
  double write_timeout_seconds = 5.0;
  /// Entries retained by the keep-the-slowest slowlog ring (0 disables).
  std::size_t slowlog_capacity = 64;
  /// When true (default), kMetrics/kSlowlog answer inline from the reactor,
  /// bypassing admission so a saturated or shedding server stays
  /// scrapeable. kTraceDump always rides admission: its capture window
  /// occupies a worker for up to `max_trace_window_ms`.
  bool obs_ops_bypass_admission = true;
  /// Upper clamp on the kTraceDump capture window (request limit, ms).
  uint32_t max_trace_window_ms = 1000;
};

/// \brief The relationship server. Construct, Start(), eventually Stop().
class Server {
 public:
  explicit Server(const ServerOptions& options);

  /// Stops the server if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener, publishes `initial` (may be null: the server then
  /// answers kInternal until the first successful Reload), and starts the
  /// reactor + workers. FailedPrecondition when already started.
  [[nodiscard]] Status Start(SnapshotPtr initial);

  /// The bound port (valid after Start; resolves port 0).
  uint16_t port() const { return port_; }

  /// Rebuilds the published snapshot from `corpus` (SnapshotStore::Reload:
  /// failure keeps the last-good snapshot serving).
  [[nodiscard]] Status Reload(qb::Corpus corpus, const Deadline& deadline) {
    return store_.Reload(std::move(corpus), deadline);
  }

  /// The publication store (tests inject snapshots / inspect versions).
  SnapshotStore& store() { return store_; }

  /// Orderly drain: stop admitting, finish in-flight requests, join all
  /// threads, close every connection. Idempotent; safe from a signal-driven
  /// shutdown path (but NOT from a signal handler itself — flag and call).
  void Stop();

  /// Total requests evaluated by workers (diagnostics/tests).
  uint64_t requests_total() const {
    return requests_total_.load(std::memory_order_relaxed);
  }

  /// Requests shed at admission (diagnostics/tests).
  uint64_t shed_total() const {
    return shed_total_.load(std::memory_order_relaxed);
  }

  /// Requests whose deadline expired before or during evaluation.
  uint64_t deadline_expired_total() const {
    return deadline_expired_total_.load(std::memory_order_relaxed);
  }

 private:
  // One client connection; owned and touched only by the reactor thread
  // (workers get the raw fd, which stays open while a request is in
  // flight — the reactor neither polls nor closes it until completion).
  struct Connection {
    Fd fd;
    std::string inbuf;
    bool in_flight = false;
    bool closing = false;
  };

  void ReactorLoop();
  void WorkerLoop();
  void WakeReactor();
  // Reads whatever is available; false when the connection should close.
  bool DrainReadable(Connection* conn);
  // Extracts and dispatches complete frames; false => close connection.
  bool ProcessFrames(int fd, Connection* conn);
  // Worker-side evaluation + response write. HandleJob fetches the published
  // snapshot once; Evaluate is the lock-free hot kernel over that pointer
  // (the rare kStats op, which reads the store's guarded counters, lives in
  // the cold EvaluateStats helper — see DESIGN.md §5g). `queued` started
  // ticking at admission: its elapsed time is the queue-wait metric.
  void HandleJob(int fd, const Request& req, const Deadline& deadline,
                 const Stopwatch& queued);
  Response Evaluate(const Request& req, const SnapshotPtr& snap,
                    const Deadline& deadline);
  void EvaluateStats(const SnapshotPtr& snap, Response* resp);
  // Cold observability handlers (DESIGN.md §5d): Prometheus scrape, slowlog
  // dump, and on-demand trace capture. Dispatched from Evaluate when the op
  // rides admission, or inline from the reactor via RespondObsInline.
  void EvaluateMetrics(Response* resp);
  void EvaluateSlowlog(Response* resp);
  void EvaluateTraceDump(const Request& req, const Deadline& deadline,
                         Response* resp);
  // Reactor-side answer for admission-exempt kMetrics/kSlowlog requests.
  void RespondObsInline(Connection* conn, const Request& req);
  // Cold epilogue of HandleJob: per-op RED attribution + slowlog entry.
  void RecordOpTelemetry(const Request& req, const Response& resp,
                         const Deadline& deadline, double handle_us);
  // Inline (reactor-side) response for shed/bad-request/shutting-down.
  void RespondInline(Connection* conn, const Response& resp);

  const ServerOptions options_;
  SnapshotStore store_;
  AdmissionQueue queue_;
  SlowlogRing slowlog_;

  Fd listener_;
  Fd wake_read_, wake_write_;
  uint16_t port_ = 0;

  std::thread reactor_;
  std::vector<std::thread> workers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> reactor_exit_{false};

  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> shed_total_{0};
  std::atomic<uint64_t> deadline_expired_total_{0};

  // Worker -> reactor handback: fds whose response was written (ok) or
  // whose stream died (not ok).
  Mutex completions_mu_;
  std::vector<std::pair<int, bool>> completions_
      RDFCUBE_GUARDED_BY(completions_mu_);

  std::unordered_map<int, Connection> conns_;  // reactor-only
};

}  // namespace server
}  // namespace rdfcube

#endif  // RDFCUBE_SERVER_SERVER_H_
