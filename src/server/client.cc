#include "server/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "qb/observation_set.h"

namespace rdfcube {
namespace server {

Client::Client(const ClientOptions& options)
    : options_(options),
      rng_(options.jitter_seed),
      next_request_id_((options.jitter_seed << 32) | 1u) {}

void Client::Disconnect() { conn_.Close(); }

Status Client::EnsureConnected() {
  if (conn_.valid()) return Status::OK();
  RDFCUBE_ASSIGN_OR_RETURN(
      conn_, ConnectTo(options_.host, options_.port,
                       Deadline(options_.connect_timeout_seconds)));
  return Status::OK();
}

Result<Response> Client::RoundTrip(const Request& req) {
  RDFCUBE_RETURN_IF_ERROR(EnsureConnected());
  const Deadline deadline(options_.request_timeout_seconds);
  Status st = WriteFrame(conn_.get(), EncodeRequest(req), deadline);
  if (!st.ok()) {
    Disconnect();
    return st;
  }
  std::string payload;
  st = ReadFrame(conn_.get(), &payload, options_.max_frame_bytes, deadline);
  if (!st.ok()) {
    Disconnect();
    return st;
  }
  Result<Response> resp = DecodeResponse(payload);
  if (!resp.ok()) Disconnect();
  return resp;
}

Result<Response> Client::Call(const Request& req) {
  static obs::Counter& retries_counter = obs::DefaultCounter(
      "rdfcube_server_client_retries_total",
      "Client-side retries (shed or transport failure)");
  Request to_send = req;
  if (to_send.deadline_ms == 0) {
    to_send.deadline_ms =
        static_cast<uint32_t>(options_.request_timeout_seconds * 1000.0);
  }
  if (to_send.request_id == 0) to_send.request_id = next_request_id_++;
  uint32_t backoff_ms = options_.initial_backoff_ms;
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      // Full jitter on the exponential window, floored at the server's
      // retry-after hint when one was given.
      const uint32_t window = std::max(backoff_ms, 1u);
      const uint32_t sleep_ms =
          1 + static_cast<uint32_t>(rng_.Uniform(window));
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      backoff_ms = std::min(backoff_ms * 2, options_.max_backoff_ms);
      retries_counter.Increment();
    }
    Result<Response> resp = RoundTrip(to_send);
    if (!resp.ok()) {
      last = resp.status();
      if (last.IsParseError()) return last;  // garbage stream: do not retry
      continue;  // reconnect + retry transport failures
    }
    if (resp.value().code == RespCode::kShed) {
      ++sheds_seen_;
      backoff_ms = std::max(backoff_ms, resp.value().retry_after_ms);
      last = Status::ResourceExhausted("server shed the request");
      continue;
    }
    // A response carrying a different id belongs to another request: the
    // stream is desynced. (0 = "not echoed": the server answered before it
    // could decode the request, e.g. an oversize frame or drain race.)
    if (resp.value().request_id != 0 &&
        resp.value().request_id != to_send.request_id) {
      Disconnect();
      return Status::ParseError("response id mismatch");
    }
    return resp;
  }
  if (last.ok()) last = Status::ResourceExhausted("retries exhausted");
  return last;
}

Status Client::CodeToStatus(const Response& resp) {
  switch (resp.code) {
    case RespCode::kOk:
      return Status::OK();
    case RespCode::kShed:
      return Status::ResourceExhausted(resp.error);
    case RespCode::kDeadlineExceeded:
      return Status::TimedOut(resp.error);
    case RespCode::kNotFound:
      return Status::NotFound(resp.error);
    case RespCode::kBadRequest:
      return Status::InvalidArgument(resp.error);
    case RespCode::kShuttingDown:
      return Status::FailedPrecondition(resp.error);
    case RespCode::kInternal:
      break;
  }
  return Status::Internal(resp.error);
}

Result<std::vector<qb::ObsId>> Client::Containers(qb::ObsId id) {
  Request req;
  req.op = Op::kContainers;
  req.target = id;
  RDFCUBE_ASSIGN_OR_RETURN(Response resp, Call(req));
  RDFCUBE_RETURN_IF_ERROR(CodeToStatus(resp));
  return std::move(resp.ids);
}

Result<std::vector<qb::ObsId>> Client::Contained(qb::ObsId id) {
  Request req;
  req.op = Op::kContained;
  req.target = id;
  RDFCUBE_ASSIGN_OR_RETURN(Response resp, Call(req));
  RDFCUBE_RETURN_IF_ERROR(CodeToStatus(resp));
  return std::move(resp.ids);
}

Result<std::vector<qb::ObsId>> Client::Complements(qb::ObsId id) {
  Request req;
  req.op = Op::kComplements;
  req.target = id;
  RDFCUBE_ASSIGN_OR_RETURN(Response resp, Call(req));
  RDFCUBE_RETURN_IF_ERROR(CodeToStatus(resp));
  return std::move(resp.ids);
}

Result<std::vector<std::pair<qb::ObsId, double>>> Client::Partial(
    qb::ObsId id, double min_degree) {
  Request req;
  req.op = Op::kPartial;
  req.target = id;
  req.min_degree = min_degree;
  RDFCUBE_ASSIGN_OR_RETURN(Response resp, Call(req));
  RDFCUBE_RETURN_IF_ERROR(CodeToStatus(resp));
  if (resp.ids.size() != resp.degrees.size()) {
    return Status::ParseError("mismatched partial response arrays");
  }
  std::vector<std::pair<qb::ObsId, double>> out;
  out.reserve(resp.ids.size());
  for (std::size_t i = 0; i < resp.ids.size(); ++i) {
    out.emplace_back(resp.ids[i], resp.degrees[i]);
  }
  return out;
}

Result<std::vector<ScanRecord>> Client::Scan(uint32_t limit) {
  RDFCUBE_ASSIGN_OR_RETURN(Response resp, ScanPage(ScanCursor{}, limit));
  return std::move(resp.records);
}

Result<Response> Client::ScanPage(const ScanCursor& after, uint32_t limit) {
  Request req;
  req.op = Op::kScan;
  req.limit = limit;
  req.cursor = after;
  RDFCUBE_ASSIGN_OR_RETURN(Response resp, Call(req));
  RDFCUBE_RETURN_IF_ERROR(CodeToStatus(resp));
  return resp;
}

Result<std::vector<uint64_t>> Client::Stats() {
  Request req;
  req.op = Op::kStats;
  RDFCUBE_ASSIGN_OR_RETURN(Response resp, Call(req));
  RDFCUBE_RETURN_IF_ERROR(CodeToStatus(resp));
  if (resp.stats.size() < kStatsNumFields) {
    return Status::ParseError("short stats response");
  }
  return std::move(resp.stats);
}

Result<uint64_t> Client::Ping() {
  Request req;
  req.op = Op::kPing;
  RDFCUBE_ASSIGN_OR_RETURN(Response resp, Call(req));
  RDFCUBE_RETURN_IF_ERROR(CodeToStatus(resp));
  return resp.snapshot_version;
}

Result<std::string> Client::Metrics() {
  Request req;
  req.op = Op::kMetrics;
  RDFCUBE_ASSIGN_OR_RETURN(Response resp, Call(req));
  RDFCUBE_RETURN_IF_ERROR(CodeToStatus(resp));
  return std::move(resp.text);
}

Result<std::string> Client::Slowlog() {
  Request req;
  req.op = Op::kSlowlog;
  RDFCUBE_ASSIGN_OR_RETURN(Response resp, Call(req));
  RDFCUBE_RETURN_IF_ERROR(CodeToStatus(resp));
  return std::move(resp.text);
}

Result<std::string> Client::TraceDump(uint32_t window_ms) {
  Request req;
  req.op = Op::kTraceDump;
  req.limit = window_ms;
  // The server answers when the capture window closes: give the
  // round trip (and the server-side deadline) room beyond the window.
  req.deadline_ms = window_ms + static_cast<uint32_t>(
                                    options_.request_timeout_seconds * 1000.0);
  RDFCUBE_ASSIGN_OR_RETURN(Response resp, Call(req));
  RDFCUBE_RETURN_IF_ERROR(CodeToStatus(resp));
  return std::move(resp.text);
}

}  // namespace server
}  // namespace rdfcube
