// The relationship server (DESIGN.md §6): N event loops over the published
// RelationshipSnapshot. An accepted connection goes to the loop owning the
// fewest, which runs each of its requests on that loop's thread: read, decode,
// evaluate (an expired deadline answers kDeadlineExceeded without touching
// the kernels), encode into the connection's out buffer, send without
// blocking. A deadline counts the time the request waited in the socket.
// Past `max_queue` decoded requests per wakeup a loop sheds (kShed +
// retry-after); a connection whose unsent tail makes no progress for
// `write_timeout_seconds` is closed. Stop() drains: new frames get
// kShuttingDown, decoded ones are answered and flushed, the loops join.

#ifndef RDFCUBE_SERVER_SERVER_H_
#define RDFCUBE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/stopwatch.h"
#include "qb/corpus.h"
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
  /// Event loops (threads); each new connection goes to the loop owning
  /// the fewest, which runs its requests to completion. 0 is clamped to 1.
  std::size_t num_workers = 2;
  /// Decoded requests (at least 1) one loop keeps per wakeup between decode
  /// and evaluation; frames decoded beyond it are shed (kShed + retry-after).
  std::size_t max_queue = 64;
  /// Backoff hint attached to kShed responses.
  uint32_t retry_after_ms = 50;
  /// Deadline applied when a request asks for none (deadline_ms == 0).
  double default_deadline_seconds = 1.0;
  /// Upper clamp on client-requested deadlines.
  double max_deadline_seconds = 10.0;
  /// Frame-size ceiling for reads and the advertised response cap.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// A connection whose pending response makes no progress for this long
  /// is closed; also the drain's budget for flushing responses at Stop().
  double write_timeout_seconds = 5.0;
  /// Entries retained by the keep-the-slowest slowlog ring (0 disables).
  std::size_t slowlog_capacity = 64;
  /// When true (default), kMetrics/kSlowlog are answered at decode, outside
  /// the `max_queue` bound and `requests_total`, so a shedding server stays
  /// scrapeable. kTraceDump is always evaluated; its connection waits out
  /// the capture window while the loop serves the others.
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
  /// event loops. FailedPrecondition when already started.
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

  /// Orderly drain: refuse new frames, answer and flush decoded requests,
  /// close every connection, join the loops. Idempotent; safe from a
  /// signal-driven shutdown path (but NOT from a signal handler itself —
  /// flag and call).
  void Stop();

  /// Total requests evaluated (diagnostics/tests).
  uint64_t requests_total() const {
    return requests_total_.load(std::memory_order_relaxed);
  }

  /// Requests shed past a loop's `max_queue` bound (diagnostics/tests).
  uint64_t shed_total() const {
    return shed_total_.load(std::memory_order_relaxed);
  }

  /// Requests whose deadline expired before or during evaluation.
  uint64_t deadline_expired_total() const {
    return deadline_expired_total_.load(std::memory_order_relaxed);
  }

 private:
  // A connection, a decoded request and an event loop (server.cc). A loop
  // and all it holds are touched only by its thread, except its wake fd,
  // connection count and inbox, through which other loops hand it accepted
  // connections; Stop() writes its wake fd and joins it.
  struct Connection;
  struct Decoded;
  struct Loop;

  void RunLoop(Loop* loop);
  void Accept(Loop* loop);
  // Decodes at most one frame of `conn`: queues it on `loop`, or answers it
  // inline (shed, bad frame, draining, exempt obs ops).
  void DecodeFrame(Loop* loop, Connection* conn, bool draining);
  // Evaluates a decoded request and sends the answer. HandleRequest fetches
  // the published snapshot once; Evaluate is the lock-free hot kernel over
  // that pointer (kStats, which reads the store's guarded counters, lives in
  // the cold EvaluateStats — see DESIGN.md §5g).
  void HandleRequest(Loop* loop, Decoded* decoded);
  Response Evaluate(const Request& req, const SnapshotPtr& snap,
                    const Deadline& deadline);
  void EvaluateStats(const SnapshotPtr& snap, Response* resp);
  // Cold text of kMetrics/kSlowlog/kTraceDump (DESIGN.md §5d).
  void EvaluateMetrics(Response* resp);
  void EvaluateSlowlog(Response* resp);
  void EvaluateTraceDump(Response* resp);
  // kTraceDump with the collector off and no capture parked on `loop`:
  // enables it and parks the request (false => evaluate it normally);
  // FinishCapture answers it.
  bool StartCapture(Loop* loop, const Decoded& decoded,
                    const SnapshotPtr& snap, const Stopwatch& started);
  void FinishCapture(Loop* loop);
  // Sends the answer, then records latency, per-op counters and slowlog.
  void Complete(const Decoded& decoded, const Response& resp,
                const Stopwatch& started);
  void RecordOpTelemetry(const Request& req, const Response& resp,
                         const Deadline& deadline, double handle_us);

  const ServerOptions options_;
  SnapshotStore store_;
  SlowlogRing slowlog_;

  Fd listener_;
  uint16_t port_ = 0;

  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> draining_{false};

  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> shed_total_{0};
  std::atomic<uint64_t> deadline_expired_total_{0};
};

}  // namespace server
}  // namespace rdfcube

#endif  // RDFCUBE_SERVER_SERVER_H_
