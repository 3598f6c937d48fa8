#include "server/protocol.h"

#include <cmath>

#include "base/untrusted.h"
#include "core/snapshot_io.h"
#include "qb/observation_set.h"

namespace rdfcube {
namespace server {

namespace {

using core::snapshot::ByteReader;
using core::snapshot::PutDouble;
using core::snapshot::PutU32;
using core::snapshot::PutU64;
using core::snapshot::PutU8;

Status Malformed(const char* what) {
  return Status::ParseError(std::string("malformed frame: ") + what);
}

void PutCursor(std::string* out, const ScanCursor& cursor) {
  PutU8(out, cursor.kind);
  PutU32(out, cursor.a);
  PutU32(out, cursor.b);
}

// A cursor is a record key ('C', 'F' or 'P') or the all-zero start.
bool GetCursor(ByteReader* r, ScanCursor* cursor) {
  if (!r->GetU8(&cursor->kind) || !r->GetU32(&cursor->a) ||
      !r->GetU32(&cursor->b)) {
    return false;
  }
  if (cursor->kind == 0) return cursor->a == 0 && cursor->b == 0;
  return cursor->kind == 'C' || cursor->kind == 'F' || cursor->kind == 'P';
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kContainers: return "containers";
    case Op::kContained: return "contained";
    case Op::kComplements: return "complements";
    case Op::kPartial: return "partial";
    case Op::kScan: return "scan";
    case Op::kStats: return "stats";
    case Op::kMetrics: return "metrics";
    case Op::kSlowlog: return "slowlog";
    case Op::kTraceDump: return "tracedump";
  }
  return "unknown";
}

uint32_t ScanRecordsPerFrame(uint32_t max_frame_bytes) {
  if (max_frame_bytes <= kResponseHeaderBytes + kScanRecordBytes) return 1;
  return (max_frame_bytes - kResponseHeaderBytes) / kScanRecordBytes;
}

std::string EncodeRequest(const Request& req) {
  std::string out;
  PutU8(&out, kProtocolVersion);
  PutU8(&out, static_cast<uint8_t>(req.op));
  PutU32(&out, req.target);
  PutU32(&out, req.deadline_ms);
  PutDouble(&out, req.min_degree);
  PutU32(&out, req.limit);
  PutCursor(&out, req.cursor);
  PutU64(&out, req.request_id);
  return out;
}

RDFCUBE_TAINT_SOURCE Result<Request> DecodeRequest(const std::string& payload) {
  ByteReader r(payload);
  uint8_t version, op;
  if (!r.GetU8(&version)) return Malformed("empty request");
  if (version != kProtocolVersion) return Malformed("unknown version");
  Request req;
  if (!r.GetU8(&op)) return Malformed("missing op");
  if (op < static_cast<uint8_t>(Op::kPing) ||
      op > static_cast<uint8_t>(Op::kTraceDump)) {
    return Malformed("unknown op");
  }
  req.op = static_cast<Op>(op);
  if (!r.GetU32(&req.target)) return Malformed("missing target");
  if (!r.GetU32(&req.deadline_ms)) return Malformed("missing deadline");
  if (!r.GetDouble(&req.min_degree)) return Malformed("missing min degree");
  if (!(req.min_degree >= 0.0 && req.min_degree <= 1.0)) {
    // The negated form also rejects NaN.
    return Malformed("min degree out of range");
  }
  if (!r.GetU32(&req.limit)) return Malformed("missing limit");
  if (!GetCursor(&r, &req.cursor)) return Malformed("bad scan cursor");
  if (!r.GetU64(&req.request_id)) return Malformed("missing request id");
  if (!r.AtEnd()) return Malformed("trailing bytes");
  return req;
}

std::string EncodeResponse(const Response& resp) {
  std::string out;
  PutU8(&out, kProtocolVersion);
  PutU8(&out, static_cast<uint8_t>(resp.code));
  PutU32(&out, resp.retry_after_ms);
  PutU64(&out, resp.snapshot_version);
  PutU32(&out, static_cast<uint32_t>(resp.error.size()));
  out += resp.error;
  PutU32(&out, static_cast<uint32_t>(resp.ids.size()));
  for (qb::ObsId id : resp.ids) PutU32(&out, id);
  PutU32(&out, static_cast<uint32_t>(resp.degrees.size()));
  for (double d : resp.degrees) PutDouble(&out, d);
  PutU32(&out, static_cast<uint32_t>(resp.records.size()));
  for (const ScanRecord& rec : resp.records) {
    PutU8(&out, rec.kind);
    PutU32(&out, rec.a);
    PutU32(&out, rec.b);
    PutDouble(&out, rec.degree);
  }
  PutCursor(&out, resp.cursor);
  PutU8(&out, resp.more ? 1 : 0);
  PutU32(&out, static_cast<uint32_t>(resp.stats.size()));
  for (uint64_t s : resp.stats) PutU64(&out, s);
  PutU32(&out, static_cast<uint32_t>(resp.text.size()));
  out += resp.text;
  PutU64(&out, resp.request_id);
  return out;
}

RDFCUBE_TAINT_SOURCE Result<Response> DecodeResponse(
    const std::string& payload) {
  ByteReader r(payload);
  uint8_t version, code;
  if (!r.GetU8(&version)) return Malformed("empty response");
  if (version != kProtocolVersion) return Malformed("unknown version");
  Response resp;
  if (!r.GetU8(&code)) return Malformed("missing code");
  if (code > static_cast<uint8_t>(RespCode::kInternal)) {
    return Malformed("unknown code");
  }
  resp.code = static_cast<RespCode>(code);
  if (!r.GetU32(&resp.retry_after_ms)) return Malformed("missing retry-after");
  if (!r.GetU64(&resp.snapshot_version)) {
    return Malformed("missing snapshot version");
  }
  uint32_t count;
  if (!r.GetU32(&count)) return Malformed("missing error length");
  if (!r.GetBytes(count, &resp.error)) return Malformed("truncated error");
  if (!r.GetU32(&count)) return Malformed("missing id count");
  if (count > r.Remaining() / 4) return Malformed("id count out of range");
  resp.ids.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id;
    if (!r.GetU32(&id)) return Malformed("truncated ids");
    resp.ids.push_back(id);
  }
  if (!r.GetU32(&count)) return Malformed("missing degree count");
  if (count > r.Remaining() / 8) return Malformed("degree count out of range");
  resp.degrees.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    double d;
    if (!r.GetDouble(&d)) return Malformed("truncated degrees");
    if (std::isnan(d)) return Malformed("degree is NaN");
    resp.degrees.push_back(d);
  }
  if (!r.GetU32(&count)) return Malformed("missing record count");
  if (count > r.Remaining() / kScanRecordBytes) {
    return Malformed("record count out of range");
  }
  resp.records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ScanRecord rec;
    if (!r.GetU8(&rec.kind) || !r.GetU32(&rec.a) || !r.GetU32(&rec.b) ||
        !r.GetDouble(&rec.degree)) {
      return Malformed("truncated record");
    }
    if (rec.kind != 'F' && rec.kind != 'P' && rec.kind != 'C') {
      return Malformed("unknown record kind");
    }
    if (std::isnan(rec.degree)) return Malformed("record degree is NaN");
    resp.records.push_back(rec);
  }
  if (!GetCursor(&r, &resp.cursor)) return Malformed("bad scan cursor");
  uint8_t more;
  if (!r.GetU8(&more) || more > 1) return Malformed("bad more flag");
  resp.more = more == 1;
  if (!r.GetU32(&count)) return Malformed("missing stats count");
  if (count > r.Remaining() / 8) return Malformed("stats count out of range");
  resp.stats.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t s;
    if (!r.GetU64(&s)) return Malformed("truncated stats");
    resp.stats.push_back(s);
  }
  if (!r.GetU32(&count)) return Malformed("missing text length");
  if (!r.GetBytes(count, &resp.text)) return Malformed("truncated text");
  if (!r.GetU64(&resp.request_id)) return Malformed("missing request id");
  if (!r.AtEnd()) return Malformed("trailing bytes");
  return resp;
}

}  // namespace server
}  // namespace rdfcube
