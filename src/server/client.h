// Client library for the relationship server: one connection, blocking
// request/response calls, and retry with exponential backoff + jitter.
//
// Call() reconnects lazily, honors the server's kShed retry-after hint
// (backing off at least that long), and retries transport errors up to
// max_retries with exponentially growing, jittered sleeps. Server-side
// failure codes that retrying cannot fix (kNotFound, kBadRequest,
// kDeadlineExceeded, kInternal) are returned to the caller immediately.

#ifndef RDFCUBE_SERVER_CLIENT_H_
#define RDFCUBE_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "qb/observation_set.h"
#include "server/protocol.h"
#include "server/socket_io.h"
#include "util/random.h"

namespace rdfcube {
namespace server {

/// \brief Client tuning knobs.
struct ClientOptions {
  /// Server address (IPv4 literal; the server listens on loopback).
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Budget for one TCP connect.
  double connect_timeout_seconds = 2.0;
  /// Budget for one request/response round trip (also sent to the server
  /// as the request deadline when the request asks for none).
  double request_timeout_seconds = 2.0;
  /// Transport-level retries (shed / IO error / reconnect) before giving up.
  int max_retries = 5;
  /// First backoff sleep; doubles per retry up to `max_backoff_ms`.
  uint32_t initial_backoff_ms = 10;
  uint32_t max_backoff_ms = 1000;
  /// Seed for backoff jitter (deterministic tests).
  uint64_t jitter_seed = 1;
  /// Frame-size ceiling accepted from the server.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// \brief Blocking client; NOT thread-safe (one instance per thread).
class Client {
 public:
  explicit Client(const ClientOptions& options);

  /// Sends `req` and awaits the response, retrying shed/transport failures
  /// with backoff. The returned Response can still carry a non-retryable
  /// error code; use the typed wrappers to map codes to Status. Fails with
  /// ResourceExhausted when retries are exhausted on shed, or the
  /// underlying transport error otherwise.
  [[nodiscard]] Result<Response> Call(const Request& req);

  /// Observations fully containing `id`.
  [[nodiscard]] Result<std::vector<qb::ObsId>> Containers(qb::ObsId id);

  /// Observations fully contained by `id`.
  [[nodiscard]] Result<std::vector<qb::ObsId>> Contained(qb::ObsId id);

  /// Observations complementary to `id`.
  [[nodiscard]] Result<std::vector<qb::ObsId>> Complements(qb::ObsId id);

  /// Partial containments of `id` as (other, degree) pairs.
  [[nodiscard]] Result<std::vector<std::pair<qb::ObsId, double>>> Partial(
      qb::ObsId id, double min_degree);

  /// First page of the bulk scan (up to `limit` records, 0 = as many as
  /// the server's frame holds).
  [[nodiscard]] Result<std::vector<ScanRecord>> Scan(uint32_t limit);

  /// One page of the bulk scan: up to `limit` records (0 = as many as the
  /// server's frame holds) after `after`. The response carries the records,
  /// the cursor to resume from, whether more follow, and the snapshot
  /// version (a change between pages means a reload happened; the cursor
  /// stays valid across it).
  [[nodiscard]] Result<Response> ScanPage(const ScanCursor& after,
                                          uint32_t limit);

  /// Server stats vector (StatsField order).
  [[nodiscard]] Result<std::vector<uint64_t>> Stats();

  /// Liveness probe; returns the server's snapshot version.
  [[nodiscard]] Result<uint64_t> Ping();

  /// Full Prometheus text exposition of the server's metrics registry.
  [[nodiscard]] Result<std::string> Metrics();

  /// JSON dump of the server's slowlog ring (slowest recent requests).
  [[nodiscard]] Result<std::string> Slowlog();

  /// Chrome-trace JSON for an on-demand capture of `window_ms` milliseconds
  /// (0 = server default). The call blocks for the capture window.
  [[nodiscard]] Result<std::string> TraceDump(uint32_t window_ms);

  /// Times a shed response was honored with backoff (diagnostics/tests).
  uint64_t sheds_seen() const { return sheds_seen_; }

  /// Drops the connection (next Call reconnects).
  void Disconnect();

 private:
  Status EnsureConnected();
  // One send/receive over the current connection (no retry logic).
  Result<Response> RoundTrip(const Request& req);
  // Maps a non-OK response code to a Status (OK for kOk).
  static Status CodeToStatus(const Response& resp);

  ClientOptions options_;
  Fd conn_;
  Rng rng_;
  uint64_t sheds_seen_ = 0;
  // Correlation ids stamped on requests that arrive with request_id == 0;
  // seeded from jitter_seed so concurrent clients emit distinct streams.
  uint64_t next_request_id_ = 0;
};

}  // namespace server
}  // namespace rdfcube

#endif  // RDFCUBE_SERVER_CLIENT_H_
