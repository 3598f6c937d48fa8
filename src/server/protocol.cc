#include "server/protocol.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "base/untrusted.h"
#include "core/snapshot_io.h"
#include "qb/observation_set.h"

namespace rdfcube {
namespace server {

namespace {

using core::snapshot::ByteReader;

Status Malformed(const char* what) {
  return Status::ParseError(std::string("malformed frame: ") + what);
}

// Fixed-width little-endian fields, each copied as one host integer (a
// byte-shift loop compiles to ~60 instructions per 17-byte scan record).
// Store writes through a cursor into a buffer the encoder sized up front
// and returns the cursor past it; Load reads a run ByteReader::Take bounded.
static_assert(std::endian::native == std::endian::little,
              "the wire format is little-endian");

template <typename T>
char* Store(char* p, T v) {
  std::memcpy(p, &v, sizeof(v));
  return p + sizeof(v);
}

template <typename T>
T Load(const char* p) {
  T v{};
  std::memcpy(&v, p, sizeof(v));
  return v;
}

char* StoreText(char* p, const std::string& text) {
  p = Store(p, static_cast<uint32_t>(text.size()));
  if (!text.empty()) std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

char* StoreCursor(char* p, const ScanCursor& cursor) {
  return Store(Store(Store(p, cursor.kind), cursor.a), cursor.b);
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

// Request bytes: version, op, target, deadline, min degree, limit, cursor, id.
constexpr std::size_t kRequestBytes = 1 + 1 + 4 + 4 + 8 + 4 + 9 + 8;

// Payload size of `resp`, from its field counts.
std::size_t ResponseBytes(const Response& resp) {
  return kResponseHeaderBytes + resp.error.size() + 4 * resp.ids.size() +
         8 * resp.degrees.size() + kScanRecordBytes * resp.records.size() +
         8 * resp.stats.size() + resp.text.size();
}

// Writes the payload of `resp` at `p`, which has ResponseBytes(resp) bytes.
void StoreResponse(const Response& resp, char* p) {
  p = Store(Store(p, kProtocolVersion), static_cast<uint8_t>(resp.code));
  p = Store(Store(p, resp.retry_after_ms), resp.snapshot_version);
  p = StoreText(p, resp.error);
  p = Store(p, static_cast<uint32_t>(resp.ids.size()));
  for (qb::ObsId id : resp.ids) p = Store(p, id);
  p = Store(p, static_cast<uint32_t>(resp.degrees.size()));
  for (double d : resp.degrees) p = Store(p, d);
  p = Store(p, static_cast<uint32_t>(resp.records.size()));
  for (const ScanRecord& rec : resp.records) {
    p = Store(Store(Store(Store(p, rec.kind), rec.a), rec.b), rec.degree);
  }
  p = Store(StoreCursor(p, resp.cursor), static_cast<uint8_t>(resp.more));
  p = Store(p, static_cast<uint32_t>(resp.stats.size()));
  for (uint64_t s : resp.stats) p = Store(p, s);
  Store(StoreText(p, resp.text), resp.request_id);
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
  std::string out(kRequestBytes, '\0');
  char* p = Store(Store(out.data(), kProtocolVersion),
                  static_cast<uint8_t>(req.op));
  p = Store(Store(p, req.target), req.deadline_ms);
  p = Store(Store(p, req.min_degree), req.limit);
  Store(StoreCursor(p, req.cursor), req.request_id);
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
  std::string out(ResponseBytes(resp), '\0');
  StoreResponse(resp, out.data());
  return out;
}

void AppendResponseFrame(const Response& resp, std::string* out) {
  const std::size_t size = ResponseBytes(resp);
  const std::size_t at = out->size();
  out->resize(at + 4 + size);
  StoreResponse(resp, Store(out->data() + at, static_cast<uint32_t>(size)));
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
  const char* at = r.Take(std::size_t{count} * 4);
  resp.ids.resize(count);
  for (qb::ObsId& id : resp.ids) {
    id = Load<uint32_t>(at);
    at += 4;
  }
  if (!r.GetU32(&count)) return Malformed("missing degree count");
  if (count > r.Remaining() / 8) return Malformed("degree count out of range");
  at = r.Take(std::size_t{count} * 8);
  resp.degrees.resize(count);
  for (double& d : resp.degrees) {
    d = Load<double>(at);
    at += 8;
    if (std::isnan(d)) return Malformed("degree is NaN");
  }
  if (!r.GetU32(&count)) return Malformed("missing record count");
  if (count > r.Remaining() / kScanRecordBytes) {
    return Malformed("record count out of range");
  }
  at = r.Take(std::size_t{count} * kScanRecordBytes);
  resp.records.resize(count);
  for (ScanRecord& rec : resp.records) {
    rec.kind = static_cast<uint8_t>(*at);
    rec.a = Load<uint32_t>(at + 1);
    rec.b = Load<uint32_t>(at + 5);
    rec.degree = Load<double>(at + 9);
    at += kScanRecordBytes;
    if (rec.kind != 'F' && rec.kind != 'P' && rec.kind != 'C') {
      return Malformed("unknown record kind");
    }
    if (std::isnan(rec.degree)) return Malformed("record degree is NaN");
  }
  if (!GetCursor(&r, &resp.cursor)) return Malformed("bad scan cursor");
  uint8_t more;
  if (!r.GetU8(&more) || more > 1) return Malformed("bad more flag");
  resp.more = more == 1;
  if (!r.GetU32(&count)) return Malformed("missing stats count");
  if (count > r.Remaining() / 8) return Malformed("stats count out of range");
  at = r.Take(std::size_t{count} * 8);
  resp.stats.resize(count);
  for (uint64_t& s : resp.stats) {
    s = Load<uint64_t>(at);
    at += 8;
  }
  if (!r.GetU32(&count)) return Malformed("missing text length");
  if (!r.GetBytes(count, &resp.text)) return Malformed("truncated text");
  if (!r.GetU64(&resp.request_id)) return Malformed("missing request id");
  if (!r.AtEnd()) return Malformed("trailing bytes");
  return resp;
}

}  // namespace server
}  // namespace rdfcube
