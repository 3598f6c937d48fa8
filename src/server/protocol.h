// Wire protocol of the relationship server (DESIGN.md §6).
//
// Dependency-free length-prefixed binary framing: every message is a u32
// little-endian payload length followed by the payload, whose first byte is
// the protocol version. Requests and responses share the framing; the
// payload encodings below reuse the core/snapshot_io wire idiom (fixed-width
// little-endian integers, length-prefixed vectors, bounds-checked reads).
// Decoders must survive arbitrary bytes: every failure is a ParseError, never
// a crash (fuzzed in tests/server_test.cc). Version 2 added the kScan resume
// cursor; frames of any other version are rejected.

#ifndef RDFCUBE_SERVER_PROTOCOL_H_
#define RDFCUBE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "core/snapshot.h"
#include "qb/observation_set.h"

namespace rdfcube {
namespace server {

/// Protocol version stamped as the first payload byte of every message.
inline constexpr uint8_t kProtocolVersion = 2;

/// Hard ceiling on a frame payload; a length prefix above the configured
/// limit (default this) is a protocol error, not an allocation.
inline constexpr uint32_t kDefaultMaxFrameBytes = 1u << 20;

/// \brief Request operations.
enum class Op : uint8_t {
  /// Liveness probe; echoes the server's current snapshot version.
  kPing = 1,
  /// Observations fully containing `target`.
  kContainers = 2,
  /// Observations fully contained by `target`.
  kContained = 3,
  /// Observations complementary to `target`.
  kComplements = 4,
  /// Observations partially contained by `target` (degree >= min_degree).
  kPartial = 5,
  /// One page of the bulk scan over every materialized relationship, in
  /// (kind, a, b) order, resuming after `Request::cursor`. A page holds
  /// at most `Request::limit` records and never more than fit in one
  /// response frame (ScanRecordsPerFrame).
  kScan = 6,
  /// Server statistics (snapshot sizes, admission counters).
  kStats = 7,
  /// Full Prometheus text exposition of the metrics registry
  /// (Response::text). Cold; may bypass admission (DESIGN.md §6).
  kMetrics = 8,
  /// JSON dump of the bounded ring of slowest recent requests
  /// (Response::text). Cold; may bypass admission.
  kSlowlog = 9,
  /// Chrome-trace JSON for an on-demand capture window of
  /// `Request::limit` milliseconds (Response::text). Always admitted:
  /// the capture occupies a worker for the window.
  kTraceDump = 10,
};

/// Lower-case wire-op name ("ping", "containers", ..., "tracedump") used in
/// per-op metric names and the slowlog dump; "unknown" for invalid values.
[[nodiscard]] const char* OpName(Op op);

/// \brief Response status codes (the wire-level triage of a request).
enum class RespCode : uint8_t {
  kOk = 0,
  /// Admission queue full: retry after `retry_after_ms` (load shedding).
  kShed = 1,
  /// The request's deadline expired before or during evaluation.
  kDeadlineExceeded = 2,
  /// The target observation is not in the snapshot.
  kNotFound = 3,
  /// Malformed or out-of-policy request (bad op, oversize frame...).
  kBadRequest = 4,
  /// Server is draining; the connection will close after this response.
  kShuttingDown = 5,
  /// Unexpected server-side failure.
  kInternal = 6,
};

/// Scan records travel as the snapshot returns them.
using ScanRecord = core::ScanRecord;

/// A kScan resume position (the key of the last record a client holds).
using ScanCursor = core::ScanCursor;

/// \brief One client request.
struct Request {
  Op op = Op::kPing;
  /// Observation id for the point-lookup ops (ignored by ping/scan/stats).
  qb::ObsId target = 0;
  /// Client deadline in milliseconds from admission; 0 means "server
  /// default". The server clamps it to its configured maximum.
  uint32_t deadline_ms = 0;
  /// Minimum partial-containment degree (kPartial only).
  double min_degree = 0.0;
  /// Cap on returned records for kScan (0 = as many as fit in a response
  /// frame); capture window in milliseconds for kTraceDump (0 = server
  /// default).
  uint32_t limit = 0;
  /// kScan only: return records strictly after this key. The default (kind
  /// 0) starts from the first record.
  ScanCursor cursor;
  /// Client-chosen correlation id, echoed back in Response::request_id and
  /// recorded in the slowlog. 0 means "unassigned" (the client fills it in).
  uint64_t request_id = 0;
};

/// \brief One server response.
struct Response {
  RespCode code = RespCode::kOk;
  /// Backoff hint for kShed, milliseconds.
  uint32_t retry_after_ms = 0;
  /// Version of the snapshot that answered (staleness/consistency checks;
  /// 0 when no snapshot was consulted).
  uint64_t snapshot_version = 0;
  /// Human-readable detail for non-OK codes.
  std::string error;
  /// Point-lookup results (Containers/Contained/Complements/Partial).
  std::vector<qb::ObsId> ids;
  /// Parallel to `ids` for kPartial: the containment degrees.
  std::vector<double> degrees;
  /// kScan results.
  std::vector<ScanRecord> records;
  /// kScan: where the next page resumes (the last record's key, or the
  /// request's cursor when the page is empty).
  ScanCursor cursor;
  /// kScan: true when records follow `cursor`; false on the final page.
  bool more = false;
  /// kStats / kPing payload: counter values keyed by StatsFields order.
  std::vector<uint64_t> stats;
  /// Text payload of the observability ops: Prometheus exposition for
  /// kMetrics, JSON for kSlowlog/kTraceDump. Empty for the other ops.
  std::string text;
  /// Echo of Request::request_id; 0 on paths that answer before decoding a
  /// request (oversize frame, drain-before-read, undecodable payload).
  uint64_t request_id = 0;
};

/// Order of Response::stats entries in a kStats response.
enum StatsField : std::size_t {
  kStatsObservations = 0,
  kStatsFull = 1,
  kStatsPartial = 2,
  kStatsComplementary = 3,
  kStatsRequests = 4,
  kStatsShed = 5,
  kStatsDeadlineExpired = 6,
  kStatsReloads = 7,
  kStatsReloadFailures = 8,
  kStatsNumFields = 9,
};

/// Encoded size of one ScanRecord: kind u8, a u32, b u32, degree f64.
inline constexpr uint32_t kScanRecordBytes = 17;

/// Encoded size of a Response whose variable-length fields are all empty:
/// what a kScan page costs besides its records.
inline constexpr uint32_t kResponseHeaderBytes =
    1 + 1 + 4 + 8 + 4 + 4 + 4 + 4 + 9 + 1 + 4 + 4 + 8;

/// Records of one kScan page whose response fits a `max_frame_bytes`
/// payload (at least 1, so a scan always makes progress).
uint32_t ScanRecordsPerFrame(uint32_t max_frame_bytes);

/// Serializes `req` into a frame payload (version byte included, length
/// prefix excluded — WriteFrame adds it).
std::string EncodeRequest(const Request& req);

/// Parses a frame payload into a Request. ParseError on any malformation.
[[nodiscard]] Result<Request> DecodeRequest(const std::string& payload);

/// Serializes `resp` into a frame payload.
std::string EncodeResponse(const Response& resp);

/// Parses a frame payload into a Response. ParseError on any malformation.
[[nodiscard]] Result<Response> DecodeResponse(const std::string& payload);

}  // namespace server
}  // namespace rdfcube

#endif  // RDFCUBE_SERVER_PROTOCOL_H_
