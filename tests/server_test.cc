// Relationship-server suite (DESIGN.md §6): wire-protocol round trips,
// golden wire bytes and malformed-frame fuzzing, the immutable
// RelationshipSnapshot (oracle equivalence against CubeExplorer, incremental
// refresh, crash-safe persistence, deadline/fault handling), the
// copy-on-write SnapshotStore, and end-to-end server/client behavior:
// point lookups, bulk scans, load shedding with retry-after, deadline
// expiry between decode and evaluation, protocol-error hangups, a slow
// reader and a trace capture that never hold their event loop, and
// orderly drain.

#include <gtest/gtest.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "base/stopwatch.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/explorer.h"
#include "core/relationship.h"
#include "core/snapshot.h"
#include "datagen/realworld.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qb/binary_io.h"
#include "qb/corpus.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/slowlog.h"
#include "server/snapshot_store.h"
#include "server/socket_io.h"
#include "tests/test_corpus.h"
#include "util/fault.h"
#include "util/random.h"

namespace rdfcube {
namespace server {
namespace {

using core::RelationshipSnapshot;
using qb::ObsId;
using testutil::MakeRandomCorpus;
using testutil::MakeRunningExample;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

RelationshipSnapshot::Ptr MustBuild(qb::Corpus corpus, uint64_t version = 1) {
  RelationshipSnapshot::BuildOptions options;
  options.version = version;
  auto snap = RelationshipSnapshot::Build(std::move(corpus), options);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  return snap.value();
}

// Canonicalized relationship sets for cross-representation equality.
struct RelSets {
  std::set<std::pair<ObsId, ObsId>> full;
  std::set<std::pair<ObsId, ObsId>> compl_pairs;
  std::set<std::tuple<ObsId, ObsId, int>> partial;

  static RelSets From(const core::CollectingSink& sink) {
    RelSets s;
    for (const auto& p : sink.full()) s.full.insert(p);
    for (const auto& p : sink.complementary()) s.compl_pairs.insert(p);
    for (const auto& p : sink.partial()) {
      s.partial.insert({p.a, p.b, static_cast<int>(p.degree * 1000 + 0.5)});
    }
    return s;
  }
  bool operator==(const RelSets& o) const {
    return full == o.full && compl_pairs == o.compl_pairs &&
           partial == o.partial;
  }
};

RelSets ScanSets(const RelationshipSnapshot& snap) {
  core::CollectingSink sink;
  EXPECT_TRUE(snap.ScanAll(&sink, Deadline()).ok());
  return RelSets::From(sink);
}

// Live value of a counter in the global registry (0 when unregistered).
uint64_t GlobalCounterValue(const std::string& name) {
  for (const obs::CounterSample& c :
       obs::MetricsRegistry::Global().Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// The first `n` observations of `corpus`, over a copy of its space: a base
// that `corpus` extends.
qb::Corpus PrefixOf(const qb::Corpus& corpus, std::size_t n) {
  Result<std::string> bytes = qb::SerializeCorpus(corpus);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  Result<qb::Corpus> copy = qb::DeserializeCorpus(bytes.value());
  EXPECT_TRUE(copy.ok()) << copy.status().ToString();
  qb::Corpus out = std::move(copy).value();
  const qb::ObservationSet& from = *out.observations;
  auto to = std::make_unique<qb::ObservationSet>(out.space.get());
  for (qb::DatasetId d = 0; d < from.num_datasets(); ++d) {
    const qb::DatasetMeta& meta = from.dataset(d);
    std::vector<qb::DimId> dims;
    std::vector<qb::MeasureId> measures;
    for (uint32_t bit = 0; bit < 64; ++bit) {
      if (meta.dim_mask >> bit & 1) dims.push_back(bit);
      if (meta.measure_mask >> bit & 1) measures.push_back(bit);
    }
    EXPECT_TRUE(to->AddDataset(meta.iri, dims, measures).ok());
  }
  for (qb::ObsId i = 0; i < n; ++i) {
    const qb::Observation& o = from.obs(i);
    std::vector<std::pair<qb::DimId, hierarchy::CodeId>> coords;
    for (qb::DimId d = 0; d < o.dims.size(); ++d) {
      if (o.dims[d] != hierarchy::kNoCode) coords.emplace_back(d, o.dims[d]);
    }
    EXPECT_TRUE(to->AddObservation(o.dataset, o.iri, coords, o.values).ok());
  }
  out.observations = std::move(to);
  return out;
}

// --- Protocol: round trips ---------------------------------------------------

TEST(ProtocolTest, RequestRoundTripsEveryOp) {
  for (Op op : {Op::kPing, Op::kContainers, Op::kContained, Op::kComplements,
                Op::kPartial, Op::kScan, Op::kStats, Op::kMetrics,
                Op::kSlowlog, Op::kTraceDump}) {
    Request req;
    req.op = op;
    req.target = 0xabcdef01u;
    req.deadline_ms = 1500;
    req.min_degree = 0.625;
    req.limit = 77;
    req.cursor = {'P', 0xfffffffeu, 12};
    req.request_id = 0x0123456789abcdefull;
    auto back = DecodeRequest(EncodeRequest(req));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->op, req.op);
    EXPECT_EQ(back->target, req.target);
    EXPECT_EQ(back->deadline_ms, req.deadline_ms);
    EXPECT_EQ(back->min_degree, req.min_degree);
    EXPECT_EQ(back->limit, req.limit);
    EXPECT_EQ(back->cursor.kind, req.cursor.kind);
    EXPECT_EQ(back->cursor.a, req.cursor.a);
    EXPECT_EQ(back->cursor.b, req.cursor.b);
    EXPECT_EQ(back->request_id, req.request_id);
  }
}

TEST(ProtocolTest, ResponseRoundTripsEveryField) {
  Response resp;
  resp.code = RespCode::kShed;
  resp.retry_after_ms = 250;
  resp.snapshot_version = 0x1122334455667788ull;
  resp.error = "try later \x01\xff";
  resp.ids = {3, 1, 0xffffffffu};
  resp.degrees = {0.0, 0.5, 1.0};
  resp.records = {{'F', 1, 2, 0.0}, {'P', 3, 4, 0.75}, {'C', 5, 6, 0.0}};
  resp.cursor = {'C', 5, 6};
  resp.more = true;
  resp.stats = std::vector<uint64_t>(kStatsNumFields, 42);
  resp.text = "# HELP x\nnot ascii: \x02\xfe";
  resp.request_id = 0xfeedface01020304ull;
  auto back = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->code, resp.code);
  EXPECT_EQ(back->retry_after_ms, resp.retry_after_ms);
  EXPECT_EQ(back->snapshot_version, resp.snapshot_version);
  EXPECT_EQ(back->error, resp.error);
  EXPECT_EQ(back->text, resp.text);
  EXPECT_EQ(back->request_id, resp.request_id);
  EXPECT_EQ(back->ids, resp.ids);
  EXPECT_EQ(back->degrees, resp.degrees);
  ASSERT_EQ(back->records.size(), resp.records.size());
  for (std::size_t i = 0; i < resp.records.size(); ++i) {
    EXPECT_EQ(back->records[i].kind, resp.records[i].kind);
    EXPECT_EQ(back->records[i].a, resp.records[i].a);
    EXPECT_EQ(back->records[i].b, resp.records[i].b);
    EXPECT_EQ(back->records[i].degree, resp.records[i].degree);
  }
  EXPECT_EQ(back->cursor.kind, resp.cursor.kind);
  EXPECT_EQ(back->cursor.a, resp.cursor.a);
  EXPECT_EQ(back->cursor.b, resp.cursor.b);
  EXPECT_TRUE(back->more);
  EXPECT_EQ(back->stats, resp.stats);
}

// Lower-case hex of `bytes`, two digits per byte.
std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

std::string Unhex(const std::string& hex) {
  const auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out += static_cast<char>(nibble(hex[i]) * 16 + nibble(hex[i + 1]));
  }
  return out;
}

TEST(ProtocolTest, GoldenWireBytesPinProtocolV2) {
  // Every field set, pinned to the bytes of the original byte-at-a-time v2
  // encoder: the bulk codec must not move a single byte.
  Response resp;
  resp.code = RespCode::kDeadlineExceeded;
  resp.retry_after_ms = 0x01020304u;
  resp.snapshot_version = 0x1122334455667788ull;
  resp.error = "late";
  resp.ids = {7, 0xdeadbeefu};
  resp.degrees = {0.5, 0.25};
  resp.records = {{'F', 1, 2, 0.0}, {'P', 3, 4, 0.75}, {'C', 5, 6, 0.0}};
  resp.cursor = {'C', 5, 6};
  resp.more = true;
  resp.stats = {1, 0x0102030405060708ull};
  resp.text = "ok";
  resp.request_id = 0xfeedface01020304ull;
  const std::string resp_hex =
      "0202040302018877665544332211040000006c6174650200000007000000efbe"
      "adde02000000000000000000e03f000000000000d03f03000000460100000002"
      "0000000000000000000000500300000004000000000000000000e83f43050000"
      "0006000000000000000000000043050000000600000001020000000100000000"
      "0000000807060504030201020000006f6b04030201cefaedfe";
  EXPECT_EQ(Hex(EncodeResponse(resp)), resp_hex);
  // A frame is the u32 length prefix, then the same payload, appended.
  std::string frame = "x";
  AppendResponseFrame(resp, &frame);
  EXPECT_EQ(Hex(frame), "78" "99000000" + resp_hex);

  auto back = DecodeResponse(Unhex(resp_hex));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->code, resp.code);
  EXPECT_EQ(back->retry_after_ms, resp.retry_after_ms);
  EXPECT_EQ(back->snapshot_version, resp.snapshot_version);
  EXPECT_EQ(back->error, resp.error);
  EXPECT_EQ(back->ids, resp.ids);
  EXPECT_EQ(back->degrees, resp.degrees);
  ASSERT_EQ(back->records.size(), resp.records.size());
  for (std::size_t i = 0; i < resp.records.size(); ++i) {
    EXPECT_EQ(back->records[i].kind, resp.records[i].kind);
    EXPECT_EQ(back->records[i].a, resp.records[i].a);
    EXPECT_EQ(back->records[i].b, resp.records[i].b);
    EXPECT_EQ(back->records[i].degree, resp.records[i].degree);
  }
  EXPECT_EQ(back->cursor.kind, resp.cursor.kind);
  EXPECT_EQ(back->cursor.a, resp.cursor.a);
  EXPECT_EQ(back->cursor.b, resp.cursor.b);
  EXPECT_TRUE(back->more);
  EXPECT_EQ(back->stats, resp.stats);
  EXPECT_EQ(back->text, resp.text);
  EXPECT_EQ(back->request_id, resp.request_id);

  Request req;
  req.op = Op::kScan;
  req.target = 0x0a0b0c0du;
  req.deadline_ms = 1500;
  req.min_degree = 0.625;
  req.limit = 77;
  req.cursor = {'P', 0xfffffffeu, 12};
  req.request_id = 0x0123456789abcdefull;
  const std::string req_hex =
      "02060d0c0b0adc050000000000000000e43f4d00000050feffffff0c000000ef"
      "cdab8967452301";
  EXPECT_EQ(Hex(EncodeRequest(req)), req_hex);
  auto req_back = DecodeRequest(Unhex(req_hex));
  ASSERT_TRUE(req_back.ok()) << req_back.status().ToString();
  EXPECT_EQ(req_back->op, req.op);
  EXPECT_EQ(req_back->target, req.target);
  EXPECT_EQ(req_back->deadline_ms, req.deadline_ms);
  EXPECT_EQ(req_back->min_degree, req.min_degree);
  EXPECT_EQ(req_back->limit, req.limit);
  EXPECT_EQ(req_back->cursor.kind, req.cursor.kind);
  EXPECT_EQ(req_back->cursor.a, req.cursor.a);
  EXPECT_EQ(req_back->cursor.b, req.cursor.b);
  EXPECT_EQ(req_back->request_id, req.request_id);
}

TEST(ProtocolTest, EmptyResponseRoundTrips) {
  const std::string bytes = EncodeResponse(Response{});
  // The fixed header a scan page pays besides its records (the frame-fit
  // page cap is derived from it).
  EXPECT_EQ(bytes.size(), kResponseHeaderBytes);
  auto back = DecodeResponse(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->code, RespCode::kOk);
  EXPECT_TRUE(back->ids.empty());
  EXPECT_TRUE(back->records.empty());
  EXPECT_EQ(back->cursor.kind, 0);
  EXPECT_FALSE(back->more);
}

TEST(ProtocolTest, ScanRecordsPerFrameFitsTheFrame) {
  for (uint32_t frame : {64u, 200u, 4096u, kDefaultMaxFrameBytes}) {
    const uint32_t fit = ScanRecordsPerFrame(frame);
    Response page;
    page.records.assign(fit, ScanRecord{'P', 1, 2, 0.5});
    page.cursor = {'P', 1, 2};
    if (frame > kResponseHeaderBytes + kScanRecordBytes) {
      EXPECT_LE(EncodeResponse(page).size(), frame) << frame;
      page.records.push_back(page.records.back());
      EXPECT_GT(EncodeResponse(page).size(), frame) << frame;
    } else {
      EXPECT_EQ(fit, 1u) << "a page always makes progress";
    }
  }
}

TEST(ProtocolTest, VersionOneFramesAreRejected) {
  EXPECT_EQ(kProtocolVersion, 2);
  Request req;
  req.op = Op::kScan;
  std::string bytes = EncodeRequest(req);
  bytes[0] = 1;
  EXPECT_TRUE(DecodeRequest(bytes).status().IsParseError());
  std::string rbytes = EncodeResponse(Response{});
  rbytes[0] = 1;
  EXPECT_TRUE(DecodeResponse(rbytes).status().IsParseError());
}

TEST(ProtocolTest, RejectsMalformedCursors) {
  Request req;
  req.op = Op::kScan;
  for (uint8_t kind : {uint8_t{1}, uint8_t{'A'}, uint8_t{'D'}, uint8_t{'f'},
                       uint8_t{'Z'}, uint8_t{0xff}}) {
    req.cursor = {kind, 0, 0};
    EXPECT_TRUE(DecodeRequest(EncodeRequest(req)).status().IsParseError())
        << "kind " << int{kind};
  }
  // The start cursor has no position.
  req.cursor = {0, 3, 0};
  EXPECT_TRUE(DecodeRequest(EncodeRequest(req)).status().IsParseError());
  // Any id is a valid key, including ids past every snapshot.
  req.cursor = {'C', 0xffffffffu, 0xffffffffu};
  EXPECT_TRUE(DecodeRequest(EncodeRequest(req)).ok());

  Response resp;
  resp.cursor = {'X', 1, 2};
  EXPECT_TRUE(DecodeResponse(EncodeResponse(resp)).status().IsParseError());
  resp.cursor = {'F', 1, 2};
  std::string bytes = EncodeResponse(resp);
  // The more flag precedes the stats count, text length and request id.
  bytes[kResponseHeaderBytes - 1 - 4 - 4 - 8] = 2;
  EXPECT_TRUE(DecodeResponse(bytes).status().IsParseError());
}

// --- Protocol: malformed frames ----------------------------------------------

TEST(ProtocolTest, EveryRequestTruncationIsParseError) {
  Request req;
  req.op = Op::kPartial;
  req.target = 9;
  req.min_degree = 0.5;
  const std::string bytes = EncodeRequest(req);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    auto r = DecodeRequest(bytes.substr(0, cut));
    ASSERT_FALSE(r.ok()) << "prefix " << cut << " accepted";
    EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
  }
  EXPECT_TRUE(DecodeRequest(bytes + "x").status().IsParseError());
}

TEST(ProtocolTest, EveryResponseTruncationIsParseError) {
  Response resp;
  resp.ids = {1, 2};
  resp.degrees = {0.5};
  resp.records = {{'P', 1, 2, 0.5}};
  resp.stats = {1, 2, 3};
  resp.error = "e";
  const std::string bytes = EncodeResponse(resp);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    auto r = DecodeResponse(bytes.substr(0, cut));
    ASSERT_FALSE(r.ok()) << "prefix " << cut << " accepted";
    EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
  }
  EXPECT_TRUE(DecodeResponse(bytes + "x").status().IsParseError());
}

TEST(ProtocolTest, RejectsBadVersionOpCodeAndDegrees) {
  Request req;
  std::string bytes = EncodeRequest(req);
  bytes[0] = static_cast<char>(kProtocolVersion + 1);
  EXPECT_TRUE(DecodeRequest(bytes).status().IsParseError());

  bytes = EncodeRequest(req);
  bytes[1] = 0;  // Op 0 is not assigned.
  EXPECT_TRUE(DecodeRequest(bytes).status().IsParseError());
  bytes[1] = 11;  // First value past kTraceDump.
  EXPECT_TRUE(DecodeRequest(bytes).status().IsParseError());
  bytes[1] = 99;
  EXPECT_TRUE(DecodeRequest(bytes).status().IsParseError());
  // The observability ops decode (they were added at the top of the range).
  for (uint8_t valid : {8, 9, 10}) {
    bytes[1] = static_cast<char>(valid);
    EXPECT_TRUE(DecodeRequest(bytes).ok()) << "op " << int{valid};
  }

  // min_degree outside [0, 1] and NaN are both rejected.
  req.op = Op::kPartial;
  req.min_degree = 1.5;
  EXPECT_TRUE(DecodeRequest(EncodeRequest(req)).status().IsParseError());
  req.min_degree = -0.1;
  EXPECT_TRUE(DecodeRequest(EncodeRequest(req)).status().IsParseError());
  req.min_degree = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(DecodeRequest(EncodeRequest(req)).status().IsParseError());

  Response resp;
  std::string rbytes = EncodeResponse(resp);
  rbytes[1] = 99;  // response code
  EXPECT_TRUE(DecodeResponse(rbytes).status().IsParseError());

  resp.records = {{'X', 1, 2, 0.0}};  // unknown record kind
  EXPECT_TRUE(DecodeResponse(EncodeResponse(resp)).status().IsParseError());
  resp.records = {{'P', 1, 2, std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_TRUE(DecodeResponse(EncodeResponse(resp)).status().IsParseError());
}

TEST(ProtocolTest, RandomBytesNeverCrashDecoders) {
  Rng rng(0xf00d);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes(rng.Uniform(64), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.Uniform(256));
    // Must return (ok or ParseError), never crash or allocate absurdly.
    auto req = DecodeRequest(bytes);
    if (!req.ok()) {
      EXPECT_TRUE(req.status().IsParseError());
    }
    auto resp = DecodeResponse(bytes);
    if (!resp.ok()) {
      EXPECT_TRUE(resp.status().IsParseError());
    }
  }
}

bool KeyAfter(const ScanRecord& rec, const ScanCursor& cursor) {
  return std::tie(rec.kind, rec.a, rec.b) >
         std::tie(cursor.kind, cursor.a, cursor.b);
}

TEST(ProtocolTest, MutatedValidFramesNeverCrashDecoders) {
  Response resp;
  resp.ids = {1, 2, 3};
  resp.degrees = {0.25, 0.5};
  resp.records = {{'F', 1, 2, 0.0}, {'C', 2, 3, 0.0}};
  resp.cursor = {'C', 2, 3};
  resp.more = true;
  resp.stats = {7, 8, 9};
  resp.error = "detail";
  const std::string valid = EncodeResponse(resp);
  Rng rng(0xbeef);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = valid;
    const std::size_t flips = 1 + rng.Uniform(4);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.Uniform(bytes.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
    }
    auto r = DecodeResponse(bytes);
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
    }
  }
}

Request CursorRequest() {
  Request req;
  req.op = Op::kScan;
  req.limit = 7;
  req.cursor = {'P', 3, 4};
  return req;
}

TEST(ProtocolTest, MutatedValidRequestsNeverCrashDecoders) {
  const std::string valid = EncodeRequest(CursorRequest());
  Rng rng(0xcafe);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = valid;
    const std::size_t flips = 1 + rng.Uniform(4);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.Uniform(bytes.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
    }
    auto q = DecodeRequest(bytes);
    if (!q.ok()) {
      EXPECT_TRUE(q.status().IsParseError()) << q.status().ToString();
    }
  }
}

TEST(ProtocolTest, MutatedCursorsNeverCrashDecoders) {
  Response resp;
  resp.records = {{'F', 1, 2, 0.0}};
  resp.cursor = {'F', 1, 2};
  resp.more = true;
  resp.stats = {7, 8, 9};
  resp.error = "detail";
  const std::string valid = EncodeResponse(resp);
  const std::string valid_req = EncodeRequest(CursorRequest());
  // Where the cursors sit: a request's follows its limit; a response's is
  // followed by the more flag, the stats, the text and the request id.
  constexpr std::size_t kReqCursorAt = 1 + 1 + 4 + 4 + 8 + 4;
  const std::size_t resp_cursor_at =
      valid.size() - (9 + 1 + 4 + 8 * resp.stats.size() + 4 + 8);
  ASSERT_EQ(valid[resp_cursor_at], 'F');
  ASSERT_EQ(valid_req[kReqCursorAt], 'P');
  auto snap = MustBuild(MakeRunningExample());
  const auto n = static_cast<uint32_t>(snap->num_observations());
  Rng rng(0xc0de);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = valid;
    std::string req_bytes = valid_req;
    switch (iter % 3) {
      case 0: {  // a cursor kind outside F/P/C
        uint8_t kind = 0;
        while (kind == 0 || kind == 'C' || kind == 'F' || kind == 'P') {
          kind = static_cast<uint8_t>(rng.Uniform(256));
        }
        bytes[resp_cursor_at] = static_cast<char>(kind);
        req_bytes[kReqCursorAt] = static_cast<char>(kind);
        EXPECT_TRUE(DecodeResponse(bytes).status().IsParseError());
        EXPECT_TRUE(DecodeRequest(req_bytes).status().IsParseError());
        break;
      }
      case 1: {  // cursor ids past n: valid keys that resume past them
        req_bytes[kReqCursorAt] = "CFP"[rng.Uniform(3)];
        for (std::size_t at : {kReqCursorAt + 1, kReqCursorAt + 5}) {
          const uint32_t id = n + static_cast<uint32_t>(rng.Uniform(1u << 20));
          for (int i = 0; i < 4; ++i) {
            req_bytes[at + i] = static_cast<char>(id >> (8 * i));
          }
        }
        auto decoded = DecodeRequest(req_bytes);
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        std::vector<ScanRecord> page;
        bool more = false;
        ASSERT_TRUE(
            snap->ScanPage(decoded->cursor, 100, Deadline(), &page, &more)
                .ok());
        for (const ScanRecord& rec : page) {
          EXPECT_TRUE(KeyAfter(rec, decoded->cursor));
        }
        break;
      }
      default: {  // a cursor cut short
        const std::size_t keep = 1 + rng.Uniform(8);
        bytes.resize(resp_cursor_at + keep);
        req_bytes.resize(kReqCursorAt + keep);
        EXPECT_TRUE(DecodeResponse(bytes).status().IsParseError());
        EXPECT_TRUE(DecodeRequest(req_bytes).status().IsParseError());
        break;
      }
    }
  }
}

// --- SlowlogRing -------------------------------------------------------------

SlowlogEntry Entry(double latency_us, uint64_t request_id = 0,
                   Op op = Op::kScan) {
  SlowlogEntry e;
  e.op = static_cast<uint8_t>(op);
  e.request_id = request_id;
  e.latency_us = latency_us;
  e.snapshot_version = 1;
  return e;
}

std::vector<double> Latencies(const SlowlogRing& ring) {
  std::vector<double> out;
  for (const SlowlogEntry& e : ring.Dump()) out.push_back(e.latency_us);
  return out;
}

TEST(SlowlogRingTest, KeepsTheSlowestAndDumpsByLatencyDescending) {
  SlowlogRing ring(2);
  ring.Add(Entry(10.0));
  ring.Add(Entry(20.0));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(Latencies(ring), (std::vector<double>{20.0, 10.0}));
  // A faster request than the current minimum is dropped...
  ring.Add(Entry(5.0));
  EXPECT_EQ(Latencies(ring), (std::vector<double>{20.0, 10.0}));
  // ...and a strictly slower one evicts exactly the minimum.
  ring.Add(Entry(15.0));
  EXPECT_EQ(Latencies(ring), (std::vector<double>{20.0, 15.0}));
}

TEST(SlowlogRingTest, EqualLatencyNewcomerIsDroppedNotSwapped) {
  SlowlogRing ring(1);
  ring.Add(Entry(10.0, /*request_id=*/111));
  ring.Add(Entry(10.0, /*request_id=*/222));  // not strictly slower
  const std::vector<SlowlogEntry> dump = ring.Dump();
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].request_id, 111u);
}

TEST(SlowlogRingTest, EvictionPrefersTheOldestAmongEqualMinima) {
  SlowlogRing ring(2);
  ring.Add(Entry(10.0, 1));  // sequence 0
  ring.Add(Entry(10.0, 2));  // sequence 1
  ring.Add(Entry(12.0, 3));  // evicts the sequence-0 entry
  const std::vector<SlowlogEntry> dump = ring.Dump();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[0].request_id, 3u);
  EXPECT_EQ(dump[1].request_id, 2u);
}

TEST(SlowlogRingTest, EqualLatenciesDumpOldestFirst) {
  SlowlogRing ring(3);
  ring.Add(Entry(10.0, 1));
  ring.Add(Entry(10.0, 2));
  ring.Add(Entry(99.0, 3));
  const std::vector<SlowlogEntry> dump = ring.Dump();
  ASSERT_EQ(dump.size(), 3u);
  EXPECT_EQ(dump[0].request_id, 3u);  // slowest first
  EXPECT_EQ(dump[1].request_id, 1u);  // then ties by admission order
  EXPECT_EQ(dump[2].request_id, 2u);
}

TEST(SlowlogRingTest, ZeroCapacityDisablesRecording) {
  SlowlogRing ring(0);
  ring.Add(Entry(10.0));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.ToJson(), "[]");
}

TEST(SlowlogRingTest, ToJsonNamesOpsAndCarriesEveryField) {
  SlowlogRing ring(4);
  SlowlogEntry e = Entry(2.5, /*request_id=*/7, Op::kContainers);
  e.deadline_remaining_ms = 1.5;
  e.snapshot_version = 3;
  ring.Add(e);
  EXPECT_EQ(ring.ToJson(),
            "[{\"op\":\"containers\",\"request_id\":7,\"latency_us\":2.5,"
            "\"deadline_remaining_ms\":1.5,\"snapshot_version\":3,"
            "\"sequence\":0}]");
}

TEST(ProtocolTest, OpNamesAreStableWireIdentifiers) {
  EXPECT_STREQ(OpName(Op::kPing), "ping");
  EXPECT_STREQ(OpName(Op::kScan), "scan");
  EXPECT_STREQ(OpName(Op::kMetrics), "metrics");
  EXPECT_STREQ(OpName(Op::kSlowlog), "slowlog");
  EXPECT_STREQ(OpName(Op::kTraceDump), "tracedump");
  EXPECT_STREQ(OpName(static_cast<Op>(0)), "unknown");
}

// --- RelationshipSnapshot: queries vs the explorer oracle --------------------

TEST(SnapshotTest, PointLookupsMatchCubeExplorerOracle) {
  qb::Corpus corpus = MakeRandomCorpus(17, 70);
  const core::CubeExplorer oracle(corpus.observations.get());
  const std::size_t n = corpus.observations->size();
  auto snap = MustBuild(std::move(corpus));

  for (ObsId id = 0; id < n; ++id) {
    auto containers = snap->Containers(id, Deadline());
    ASSERT_TRUE(containers.ok());
    std::vector<ObsId> want = oracle.Containers(id);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(containers.value(), want) << "Containers(" << id << ")";

    auto contained = snap->Contained(id, Deadline());
    ASSERT_TRUE(contained.ok());
    want = oracle.ContainedBy(id);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(contained.value(), want) << "Contained(" << id << ")";

    auto complements = snap->Complements(id, Deadline());
    ASSERT_TRUE(complements.ok());
    want = oracle.Complements(id);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(complements.value(), want) << "Complements(" << id << ")";

    auto partial = snap->PartiallyContained(id, 0.0, Deadline());
    ASSERT_TRUE(partial.ok());
    auto want_partial = oracle.PartiallyContained(id, 0.0);
    std::sort(want_partial.begin(), want_partial.end(),
              [](const auto& x, const auto& y) { return x.other < y.other; });
    ASSERT_EQ(partial->size(), want_partial.size()) << "Partial(" << id << ")";
    for (std::size_t i = 0; i < want_partial.size(); ++i) {
      EXPECT_EQ((*partial)[i].other, want_partial[i].other);
      EXPECT_NEAR((*partial)[i].degree, want_partial[i].degree, 1e-12);
    }
  }
}

TEST(SnapshotTest, MinDegreeFiltersPartialMatches) {
  auto snap = MustBuild(MakeRandomCorpus(4, 60));
  for (ObsId id = 0; id < snap->num_observations(); ++id) {
    auto all = snap->PartiallyContained(id, 0.0, Deadline());
    auto strict = snap->PartiallyContained(id, 0.7, Deadline());
    ASSERT_TRUE(all.ok());
    ASSERT_TRUE(strict.ok());
    std::size_t expect = 0;
    for (const auto& m : all.value()) {
      if (m.degree >= 0.7) ++expect;
    }
    EXPECT_EQ(strict->size(), expect);
    for (const auto& m : strict.value()) EXPECT_GE(m.degree, 0.7);
  }
}

TEST(SnapshotTest, UnknownIdIsNotFoundExpiredDeadlineIsTimedOut) {
  auto snap = MustBuild(MakeRunningExample());
  const ObsId bad = static_cast<ObsId>(snap->num_observations());
  EXPECT_TRUE(snap->Containers(bad, Deadline()).status().IsNotFound());
  EXPECT_TRUE(snap->Contained(bad, Deadline()).status().IsNotFound());
  EXPECT_TRUE(snap->Complements(bad, Deadline()).status().IsNotFound());
  EXPECT_TRUE(
      snap->PartiallyContained(bad, 0.0, Deadline()).status().IsNotFound());

  EXPECT_TRUE(snap->Containers(0, Deadline(0.0)).status().IsTimedOut());
  core::CollectingSink sink;
  EXPECT_TRUE(snap->ScanAll(&sink, Deadline(0.0)).IsTimedOut());
}

TEST(SnapshotTest, ScanAllMatchesCounts) {
  auto snap = MustBuild(MakeRandomCorpus(23, 60));
  core::CollectingSink sink;
  ASSERT_TRUE(snap->ScanAll(&sink, Deadline()).ok());
  EXPECT_EQ(sink.full().size(), snap->num_full());
  EXPECT_EQ(sink.partial().size(), snap->num_partial());
  EXPECT_EQ(sink.complementary().size(), snap->num_complementary());
}

// --- RelationshipSnapshot: frozen rows and paged scans ----------------------

// A relationship as the scan orders it, with its degree quantized.
using RelKey = std::tuple<uint8_t, ObsId, ObsId, int>;

int Quantize(double degree) { return static_cast<int>(degree * 1000 + 0.5); }

std::vector<RelKey> KeysOf(const std::vector<ScanRecord>& records) {
  std::vector<RelKey> keys;
  for (const ScanRecord& r : records) {
    keys.emplace_back(r.kind, r.a, r.b, Quantize(r.degree));
  }
  return keys;
}

// Method::kBaseline's relationships (the brute-force oracle), in scan order.
std::vector<RelKey> BaselineKeys(
    const qb::ObservationSet& obs,
    const core::RelationshipSelector& sel = core::RelationshipSelector::All()) {
  core::CollectingSink sink;
  core::EngineOptions options;
  options.method = core::Method::kBaseline;
  options.selector = sel;
  EXPECT_TRUE(core::ComputeRelationships(obs, options, &sink).ok());
  std::vector<RelKey> keys;
  for (const auto& [a, b] : sink.full()) keys.emplace_back('F', a, b, 0);
  for (const auto& p : sink.partial()) {
    keys.emplace_back('P', p.a, p.b, Quantize(p.degree));
  }
  for (const auto& [a, b] : sink.complementary()) {
    keys.emplace_back('C', a, b, 0);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Follows the cursor through `snap`, `page` records at a time. Every page
// but the last is full and says more follow.
std::vector<ScanRecord> PageThrough(const RelationshipSnapshot& snap,
                                    std::size_t page) {
  std::vector<ScanRecord> all;
  ScanCursor cursor;
  for (;;) {
    std::vector<ScanRecord> records;
    bool more = false;
    EXPECT_TRUE(snap.ScanPage(cursor, page, Deadline(), &records, &more).ok());
    EXPECT_LE(records.size(), page);
    if (more) {
      EXPECT_EQ(records.size(), page);
    }
    all.insert(all.end(), records.begin(), records.end());
    if (!more) return all;
    cursor = {records.back().kind, records.back().a, records.back().b};
  }
}

// Streams ScanAll into records, in the order the walk hands them out.
class RecordSink : public core::RelationshipSink {
 public:
  void OnFullContainment(ObsId a, ObsId b) override {
    records.push_back({'F', a, b, 0.0});
  }
  void OnPartialContainment(ObsId a, ObsId b, double degree,
                            uint64_t) override {
    records.push_back({'P', a, b, degree});
  }
  void OnComplementarity(ObsId a, ObsId b) override {
    records.push_back({'C', a, b, 0.0});
  }
  std::vector<ScanRecord> records;
};

// Corpus shapes MakeRandomCorpus never produces: two dimensions
// (World > Europe > Greece, Total > Male), one measure, one dataset.
enum class Shape { kEmpty, kSingle, kAllRoot, kDuplicates };

qb::Corpus MakeShapeCorpus(Shape shape) {
  qb::CorpusBuilder b;
  EXPECT_TRUE(b.AddDimension("ex:area", "World").ok());
  EXPECT_TRUE(b.AddCode("ex:area", "Europe", "World").ok());
  EXPECT_TRUE(b.AddCode("ex:area", "Greece", "Europe").ok());
  EXPECT_TRUE(b.AddDimension("ex:sex", "Total").ok());
  EXPECT_TRUE(b.AddCode("ex:sex", "Male", "Total").ok());
  EXPECT_TRUE(b.AddMeasure("ex:m").ok());
  EXPECT_TRUE(b.AddDataset("D", {"ex:area", "ex:sex"}, {"ex:m"}).ok());
  std::vector<std::pair<std::string, std::string>> coords;
  switch (shape) {
    case Shape::kEmpty:
      break;
    case Shape::kSingle:
      coords = {{"Greece", "Male"}};
      break;
    case Shape::kAllRoot:
      coords.assign(5, {"World", "Total"});
      break;
    case Shape::kDuplicates:
      coords = {{"Greece", "Male"},  {"Europe", "Total"}, {"Greece", "Male"},
                {"World", "Male"},   {"Europe", "Total"}, {"Greece", "Male"},
                {"Greece", "Total"}};
      break;
  }
  for (std::size_t i = 0; i < coords.size(); ++i) {
    EXPECT_TRUE(b.AddObservation("D", "o" + std::to_string(i),
                                 {{"ex:area", coords[i].first},
                                  {"ex:sex", coords[i].second}},
                                 {{"ex:m", 1.0}})
                    .ok());
  }
  auto corpus = std::move(b).Build();
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(corpus).value();
}

TEST(SnapshotPagingTest, PagesConcatenateToTheBaselineSetInScanOrder) {
  std::vector<qb::Corpus> corpora;
  for (uint64_t seed : {3, 17, 29}) corpora.push_back(MakeRandomCorpus(seed));
  corpora.push_back(MakeRandomCorpus(5, 40, /*num_dims=*/1));
  for (Shape shape : {Shape::kEmpty, Shape::kSingle, Shape::kAllRoot,
                      Shape::kDuplicates}) {
    corpora.push_back(MakeShapeCorpus(shape));
  }
  for (std::size_t c = 0; c < corpora.size(); ++c) {
    const std::vector<RelKey> want = BaselineKeys(*corpora[c].observations);
    auto snap = MustBuild(std::move(corpora[c]));
    for (std::size_t page : {std::size_t{1}, std::size_t{7}, std::size_t{2000},
                             std::size_t{ScanRecordsPerFrame(
                                 kDefaultMaxFrameBytes)}}) {
      const std::vector<ScanRecord> records = PageThrough(*snap, page);
      const std::vector<RelKey> keys = KeysOf(records);
      for (std::size_t i = 1; i < records.size(); ++i) {
        ASSERT_TRUE(KeyAfter(records[i], {records[i - 1].kind,
                                          records[i - 1].a, records[i - 1].b}))
            << "corpus " << c << " page " << page << " record " << i;
      }
      EXPECT_EQ(keys, want) << "corpus " << c << " page " << page;
    }
    // ScanAll is the same walk without a limit.
    RecordSink sink;
    ASSERT_TRUE(snap->ScanAll(&sink, Deadline()).ok());
    EXPECT_EQ(KeysOf(sink.records), want) << "corpus " << c;
  }
}

TEST(SnapshotPagingTest, CursorResumesStrictlyAfterAnyKey) {
  auto snap = MustBuild(MakeRandomCorpus(19));
  const std::vector<ScanRecord> all = PageThrough(*snap, 1u << 20);
  ASSERT_GT(all.size(), 10u);
  // Resuming after the i-th record yields exactly the suffix; a key that
  // is not in the snapshot resumes at the next one that is.
  for (std::size_t i = 0; i < all.size(); i += all.size() / 10) {
    std::vector<ScanRecord> rest;
    bool more = true;
    ASSERT_TRUE(snap->ScanPage({all[i].kind, all[i].a, all[i].b}, 1u << 20,
                               Deadline(), &rest, &more)
                    .ok());
    EXPECT_FALSE(more);
    EXPECT_EQ(KeysOf(rest), KeysOf({all.begin() + static_cast<long>(i) + 1,
                                    all.end()}));
  }
  std::vector<ScanRecord> page;
  bool more = true;
  ASSERT_TRUE(
      snap->ScanPage({'D', 0, 0}, 1u << 20, Deadline(), &page, &more).ok());
  ASSERT_FALSE(page.empty());
  EXPECT_EQ(page.front().kind, 'F');
  // Past the end: an empty final page.
  for (ScanCursor end : {ScanCursor{'P', static_cast<ObsId>(
                                              snap->num_observations()),
                                    0},
                         ScanCursor{'P', 0xffffffffu, 0xffffffffu}}) {
    page.clear();
    more = true;
    ASSERT_TRUE(snap->ScanPage(end, 10, Deadline(), &page, &more).ok());
    EXPECT_TRUE(page.empty());
    EXPECT_FALSE(more);
  }
}

// Build on the benchmark's shape: a realworld prefix whose partial rows
// span several 64-bit bitmap words and whose counts reach dimensions - 1.
// Under every single-type selector and all of them, the scan equals the
// baseline's relationships and the rows equal a refresh's from an empty
// base, which writes them by another route (the pair kernel's row forms).
TEST(SnapshotTest, BuildMatchesBaselineAndRefreshOnARealWorldCorpus) {
  Result<qb::Corpus> made = datagen::GenerateRealWorldPrefix(1200, 5);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const qb::Corpus& whole = made.value();
  const std::size_t n = whole.observations->size();
  const std::size_t dims = whole.space->num_dimensions();
  ASSERT_GE(n, 1000u);
  for (const core::RelationshipSelector& sel :
       {core::RelationshipSelector::All(),
        core::RelationshipSelector::FullOnly(),
        core::RelationshipSelector::PartialOnly(),
        core::RelationshipSelector::ComplOnly()}) {
    const std::string what =
        "selector " + std::to_string(core::SelectorBits(sel));
    RelationshipSnapshot::BuildOptions options;
    options.selector = sel;
    const uint64_t emitted =
        GlobalCounterValue("rdfcube_masking_relationships_emitted_total");
    auto built = RelationshipSnapshot::Build(PrefixOf(whole, n), options);
    ASSERT_TRUE(built.ok()) << what << ": " << built.status().ToString();
    // The row writer's chunk counts add up to what the rows hold.
    EXPECT_EQ(
        GlobalCounterValue("rdfcube_masking_relationships_emitted_total") -
            emitted,
        (*built)->num_full() + (*built)->num_partial() +
            (*built)->num_complementary())
        << what;
    RecordSink sink;
    ASSERT_TRUE((*built)->ScanAll(&sink, Deadline()).ok());
    EXPECT_EQ(KeysOf(sink.records), BaselineKeys(*whole.observations, sel))
        << what;
    auto empty = RelationshipSnapshot::Build(PrefixOf(whole, 0), options);
    ASSERT_TRUE(empty.ok()) << what << ": " << empty.status().ToString();
    auto refreshed =
        RelationshipSnapshot::BuildIncremental(**empty, PrefixOf(whole, n), {});
    ASSERT_TRUE(refreshed.ok()) << what << ": "
                                << refreshed.status().ToString();
    EXPECT_TRUE((*refreshed)->SameRelationships(**built)) << what;
    if (!sel.partial_containment) continue;
    // The shape the row writer must handle.
    std::size_t widest = 0;
    bool top_count = false;
    for (ObsId id = 0; id < n; ++id) {
      auto partial = (*built)->PartiallyContained(id, 0.0, Deadline());
      ASSERT_TRUE(partial.ok());
      if (partial->empty()) continue;
      widest = std::max<std::size_t>(
          widest, partial->back().other / 64 - partial->front().other / 64);
      for (const core::PartialMatch& m : partial.value()) {
        top_count = top_count || m.degree == static_cast<double>(dims - 1) /
                                                 static_cast<double>(dims);
      }
    }
    EXPECT_GE(widest, 4u) << what;
    EXPECT_TRUE(top_count) << what;
  }
}

// --- RelationshipSnapshot: build failure modes -------------------------------

TEST(SnapshotTest, BuildHonorsDeadline) {
  RelationshipSnapshot::BuildOptions options;
  options.deadline = Deadline(0.0);
  auto snap = RelationshipSnapshot::Build(MakeRandomCorpus(1, 40), options);
  EXPECT_TRUE(snap.status().IsTimedOut()) << snap.status().ToString();
}

TEST(SnapshotTest, BuildFaultAborts) {
  FaultInjector injector(1);
  injector.ArmNthCall(core::kFaultSnapshotBuild, 5);
  ScopedFaultInjection scope(&injector);
  auto snap = RelationshipSnapshot::Build(MakeRandomCorpus(1, 40), {});
  EXPECT_TRUE(snap.status().IsInternal()) << snap.status().ToString();
}

TEST(SnapshotTest, BuildRejectsEmptyCorpusHandle) {
  qb::Corpus corpus;  // null space/observations
  auto snap = RelationshipSnapshot::Build(std::move(corpus), {});
  EXPECT_TRUE(snap.status().IsInvalidArgument());
}

// --- RelationshipSnapshot: incremental refresh -------------------------------

// Refreshing prefixes of `make()`'s corpus to the whole corpus gives Build's
// rows row for row, under every single-type selector and all of them: from
// bases at splits 0 (empty), 1 (one observation), n/2, n - 1 and n, and
// through a chain of three refreshes (each refreshing the last). Rows are
// compared whole, so a delta scattered out of order fails here even where
// the relationship sets agree.
void ExpectRefreshEqualsBuild(const std::function<qb::Corpus()>& make,
                              const std::string& label) {
  const core::RelationshipSelector selectors[] = {
      core::RelationshipSelector::All(),
      core::RelationshipSelector::FullOnly(),
      core::RelationshipSelector::PartialOnly(),
      core::RelationshipSelector::ComplOnly()};
  const qb::Corpus whole = make();
  const std::size_t n = whole.observations->size();
  ASSERT_GE(n, 4u) << label;
  for (const core::RelationshipSelector& sel : selectors) {
    const std::string what =
        label + " selector " + std::to_string(core::SelectorBits(sel));
    RelationshipSnapshot::BuildOptions options;
    options.selector = sel;
    auto build = [&](std::size_t size) {
      auto snap = RelationshipSnapshot::Build(PrefixOf(whole, size), options);
      EXPECT_TRUE(snap.ok()) << what << ": " << snap.status().ToString();
      return snap.value();
    };
    const RelationshipSnapshot::Ptr full = build(n);
    for (std::size_t split :
         {std::size_t{0}, std::size_t{1}, n / 2, n - 1, n}) {
      auto refreshed =
          RelationshipSnapshot::BuildIncremental(*build(split), make(), {});
      ASSERT_TRUE(refreshed.ok()) << what << " split " << split << ": "
                                  << refreshed.status().ToString();
      EXPECT_TRUE((*refreshed)->SameRelationships(*full))
          << what << " split " << split;
      EXPECT_EQ((*refreshed)->fingerprint(), full->fingerprint());
      // The base's selector carries through the refresh.
      EXPECT_EQ(core::SelectorBits((*refreshed)->selector()),
                core::SelectorBits(sel));
    }
    RelationshipSnapshot::Ptr chained = build(n / 4);
    for (std::size_t size : {n / 2, 3 * n / 4, n}) {
      auto next = RelationshipSnapshot::BuildIncremental(
          *chained, PrefixOf(whole, size), {});
      ASSERT_TRUE(next.ok()) << what << " chain to " << size << ": "
                             << next.status().ToString();
      chained = next.value();
      EXPECT_TRUE(chained->SameRelationships(*build(size)))
          << what << " chain to " << size;
    }
  }
}

TEST(SnapshotTest, IncrementalRefreshEqualsFullRebuild) {
  // MakeRandomCorpus(seed, n) and (seed, n + k) share the first n
  // observations: the smaller corpus is a prefix of the larger.
  auto base = MustBuild(MakeRandomCorpus(7, 40), 1);
  RelationshipSnapshot::BuildOptions options;
  options.version = 2;
  auto refreshed = RelationshipSnapshot::BuildIncremental(
      *base, MakeRandomCorpus(7, 60), options);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ((*refreshed)->version(), 2u);
  EXPECT_EQ((*refreshed)->num_observations(), 60u);
  // The base snapshot is untouched (readers keep their view).
  EXPECT_EQ(base->num_observations(), 40u);
  EXPECT_EQ(base->version(), 1u);

  auto full = MustBuild(MakeRandomCorpus(7, 60), 2);
  EXPECT_EQ((*refreshed)->num_full(), full->num_full());
  EXPECT_EQ((*refreshed)->num_partial(), full->num_partial());
  EXPECT_EQ((*refreshed)->num_complementary(), full->num_complementary());
  EXPECT_TRUE(ScanSets(**refreshed) == ScanSets(*full));
  EXPECT_EQ((*refreshed)->fingerprint(), full->fingerprint());
  EXPECT_TRUE((*refreshed)->SameRelationships(*full));
  // A single-type selector materializes only its type.
  RelationshipSnapshot::BuildOptions compl_only;
  compl_only.selector = core::RelationshipSelector::ComplOnly();
  auto compl_full =
      RelationshipSnapshot::Build(MakeRandomCorpus(7, 60), compl_only);
  ASSERT_TRUE(compl_full.ok());
  EXPECT_EQ((*compl_full)->num_complementary(), full->num_complementary());
  EXPECT_EQ((*compl_full)->num_full() + (*compl_full)->num_partial(), 0u);

  // Row for row, at every kind of split point, on every adversarial shape.
  ExpectRefreshEqualsBuild([] { return MakeRandomCorpus(7, 60); }, "random");
  ExpectRefreshEqualsBuild(testutil::MakeDeepChainCorpus, "deep chain");
  ExpectRefreshEqualsBuild([] { return testutil::MakeWideCorpus(3); },
                           "wide");
  ExpectRefreshEqualsBuild([] { return testutil::MakeAllRootCorpus(30); },
                           "all root");
  ExpectRefreshEqualsBuild(
      [] { return testutil::MakeDuplicateCoordinateCorpus(5); },
      "duplicate coordinates");
}

TEST(SnapshotTest, BuildOrRefreshRefreshesExactlyTheExtensions) {
  const uint64_t builds =
      GlobalCounterValue("rdfcube_core_snapshot_builds_total");
  const uint64_t refreshes =
      GlobalCounterValue("rdfcube_core_snapshot_refreshes_total");
  auto built = RelationshipSnapshot::BuildOrRefresh(
      nullptr, MakeRandomCorpus(7, 40), {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto extended = RelationshipSnapshot::BuildOrRefresh(
      built->get(), MakeRandomCorpus(7, 60), {});
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();
  auto unrelated = RelationshipSnapshot::BuildOrRefresh(
      built->get(), MakeRandomCorpus(8, 60), {});
  ASSERT_TRUE(unrelated.ok()) << unrelated.status().ToString();
  EXPECT_EQ(GlobalCounterValue("rdfcube_core_snapshot_builds_total"),
            builds + 2);
  EXPECT_EQ(GlobalCounterValue("rdfcube_core_snapshot_refreshes_total"),
            refreshes + 1);
  EXPECT_TRUE(
      (*extended)->SameRelationships(*MustBuild(MakeRandomCorpus(7, 60))));
  EXPECT_TRUE(
      (*unrelated)->SameRelationships(*MustBuild(MakeRandomCorpus(8, 60))));
}

TEST(SnapshotTest, IncrementalRefreshRejectsNonExtension) {
  auto base = MustBuild(MakeRandomCorpus(7, 40));
  auto wrong = RelationshipSnapshot::BuildIncremental(
      *base, MakeRandomCorpus(8, 60), {});
  EXPECT_TRUE(wrong.status().IsFailedPrecondition())
      << wrong.status().ToString();
  // A corpus *shorter* than the base cannot extend it either.
  auto shorter = RelationshipSnapshot::BuildIncremental(
      *base, MakeRandomCorpus(7, 20), {});
  EXPECT_TRUE(shorter.status().IsFailedPrecondition());
}

// Two dimensions, one measure, one dataset: area (World > Europe, Asia;
// Greece under `greece_parent`; then each of `more` under its parent) and
// sex (Total > Male). Codes get ids in that order, so a code list that only
// appends codes keeps every earlier id. The observations are `coords`.
qb::Corpus MakeAreaCorpus(
    const std::string& greece_parent,
    const std::vector<std::pair<std::string, std::string>>& more,
    const std::vector<std::pair<std::string, std::string>>& coords) {
  qb::CorpusBuilder b;
  EXPECT_TRUE(b.AddDimension("ex:area", "World").ok());
  EXPECT_TRUE(b.AddCode("ex:area", "Europe", "World").ok());
  EXPECT_TRUE(b.AddCode("ex:area", "Asia", "World").ok());
  EXPECT_TRUE(b.AddCode("ex:area", "Greece", greece_parent).ok());
  for (const auto& [code, parent] : more) {
    EXPECT_TRUE(b.AddCode("ex:area", code, parent).ok());
  }
  EXPECT_TRUE(b.AddDimension("ex:sex", "Total").ok());
  EXPECT_TRUE(b.AddCode("ex:sex", "Male", "Total").ok());
  EXPECT_TRUE(b.AddMeasure("ex:m").ok());
  EXPECT_TRUE(b.AddDataset("D", {"ex:area", "ex:sex"}, {"ex:m"}).ok());
  for (std::size_t i = 0; i < coords.size(); ++i) {
    EXPECT_TRUE(b.AddObservation("D", "o" + std::to_string(i),
                                 {{"ex:area", coords[i].first},
                                  {"ex:sex", coords[i].second}},
                                 {{"ex:m", 1.0}})
                    .ok());
  }
  auto corpus = std::move(b).Build();
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(corpus).value();
}

const std::vector<std::pair<std::string, std::string>> kAreaCoords = {
    {"Greece", "Male"},
    {"Europe", "Total"},
    {"Asia", "Total"},
    {"World", "Male"}};

// kAreaCoords plus one appended observation.
std::vector<std::pair<std::string, std::string>> AreaCoordsPlus(
    const std::string& area, const std::string& sex) {
  auto coords = kAreaCoords;
  coords.emplace_back(area, sex);
  return coords;
}

TEST(SnapshotTest, MovedCodeIsNotAnExtensionAndRebuilds) {
  // Every observation and code id stays; Greece moves from Europe to Asia.
  auto base = MustBuild(MakeAreaCorpus("Europe", {}, kAreaCoords));
  auto europe = base->Contained(1, Deadline());
  ASSERT_TRUE(europe.ok());
  EXPECT_EQ(europe.value(), std::vector<ObsId>{0});  // Europe contains Greece
  auto moved = [] {
    return MakeAreaCorpus("Asia", {}, AreaCoordsPlus("Greece", "Total"));
  };
  auto refreshed = RelationshipSnapshot::BuildIncremental(*base, moved(), {});
  EXPECT_TRUE(refreshed.status().IsFailedPrecondition())
      << refreshed.status().ToString();

  const uint64_t builds =
      GlobalCounterValue("rdfcube_core_snapshot_builds_total");
  const uint64_t refreshes =
      GlobalCounterValue("rdfcube_core_snapshot_refreshes_total");
  auto reloaded = RelationshipSnapshot::BuildOrRefresh(base.get(), moved(), {});
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(GlobalCounterValue("rdfcube_core_snapshot_builds_total"),
            builds + 1);
  EXPECT_EQ(GlobalCounterValue("rdfcube_core_snapshot_refreshes_total"),
            refreshes);
  EXPECT_TRUE((*reloaded)->SameRelationships(*MustBuild(moved())));
  europe = (*reloaded)->Contained(1, Deadline());
  ASSERT_TRUE(europe.ok());
  EXPECT_TRUE(europe->empty());
  auto asia = (*reloaded)->Contained(2, Deadline());
  ASSERT_TRUE(asia.ok());
  EXPECT_EQ(asia.value(), (std::vector<ObsId>{0, 4}));
}

TEST(SnapshotTest, CodesAppendedUnderExistingParentsStillRefresh) {
  auto base = MustBuild(MakeAreaCorpus("Europe", {}, kAreaCoords));
  // Italy under Europe and Crete under Greece: new ids after every old one.
  auto appended = [] {
    return MakeAreaCorpus("Europe", {{"Italy", "Europe"}, {"Crete", "Greece"}},
                          AreaCoordsPlus("Crete", "Male"));
  };
  const uint64_t builds =
      GlobalCounterValue("rdfcube_core_snapshot_builds_total");
  const uint64_t refreshes =
      GlobalCounterValue("rdfcube_core_snapshot_refreshes_total");
  auto reloaded =
      RelationshipSnapshot::BuildOrRefresh(base.get(), appended(), {});
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(GlobalCounterValue("rdfcube_core_snapshot_builds_total"), builds);
  EXPECT_EQ(GlobalCounterValue("rdfcube_core_snapshot_refreshes_total"),
            refreshes + 1);
  const auto built = MustBuild(appended());
  EXPECT_TRUE((*reloaded)->SameRelationships(*built));
  auto refreshed =
      RelationshipSnapshot::BuildIncremental(*base, appended(), {});
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_TRUE((*refreshed)->SameRelationships(*built));
}

// Every read of `got` equals the same read of `want`: rows, scan and every
// point lookup.
void ExpectSameReads(const RelationshipSnapshot& got,
                     const RelationshipSnapshot& want,
                     const std::string& what) {
  EXPECT_TRUE(got.SameRelationships(want)) << what;
  RecordSink got_scan, want_scan;
  ASSERT_TRUE(got.ScanAll(&got_scan, Deadline()).ok()) << what;
  ASSERT_TRUE(want.ScanAll(&want_scan, Deadline()).ok()) << what;
  EXPECT_EQ(KeysOf(got_scan.records), KeysOf(want_scan.records)) << what;
  ASSERT_EQ(got.num_observations(), want.num_observations()) << what;
  EXPECT_EQ(got.num_full(), want.num_full()) << what;
  EXPECT_EQ(got.num_partial(), want.num_partial()) << what;
  EXPECT_EQ(got.num_complementary(), want.num_complementary()) << what;
  for (ObsId id = 0; id < want.num_observations(); ++id) {
    EXPECT_EQ(got.Containers(id, Deadline()).value(),
              want.Containers(id, Deadline()).value())
        << what << " Containers(" << id << ")";
    EXPECT_EQ(got.Contained(id, Deadline()).value(),
              want.Contained(id, Deadline()).value())
        << what << " Contained(" << id << ")";
    EXPECT_EQ(got.Complements(id, Deadline()).value(),
              want.Complements(id, Deadline()).value())
        << what << " Complements(" << id << ")";
    const auto got_partial = got.PartiallyContained(id, 0.0, Deadline());
    const auto want_partial = want.PartiallyContained(id, 0.0, Deadline());
    ASSERT_EQ(got_partial->size(), want_partial->size())
        << what << " PartiallyContained(" << id << ")";
    for (std::size_t i = 0; i < want_partial->size(); ++i) {
      EXPECT_EQ((*got_partial)[i].other, (*want_partial)[i].other);
      EXPECT_EQ((*got_partial)[i].degree, (*want_partial)[i].degree);
    }
  }
}

// A refresh keeps its base's frozen rows and writes a tail, until the tail
// would outgrow them: then the rows are folded into one flat frozen set. A
// chain from one base through small appends (tails under the frozen rows),
// one large append (which must fold) and a small append over the folded
// rows reads like a Build at every step, and folds exactly the row sets
// the rule names (the fold changes no read, only what a refresh copies).
TEST(SnapshotTest, ChainedTailsAndAFoldReadLikeBuild) {
  const qb::Corpus whole = MakeRandomCorpus(31, 130);
  const std::size_t base_n = 60;
  const std::size_t steps[] = {63, 66, 69, 120, 124};
  const std::size_t fold = 120;
  std::vector<RelationshipSnapshot::Ptr> built;
  for (std::size_t n : steps) built.push_back(MustBuild(PrefixOf(whole, n)));
  const auto base = MustBuild(PrefixOf(whole, base_n));
  // The chain crosses the fold rule as intended: on both containment row
  // sets, each small append's tail (the relationships added since the base)
  // stays within the base's frozen rows, and the large append's exceeds
  // them.
  for (std::size_t i = 0; i < built.size() && steps[i] <= fold; ++i) {
    const auto& snap = *built[i];
    const bool folds = steps[i] == fold;
    EXPECT_EQ(snap.num_full() - base->num_full() > base->num_full(), folds)
        << "step " << steps[i];
    EXPECT_EQ(snap.num_partial() - base->num_partial() > base->num_partial(),
              folds)
        << "step " << steps[i];
  }
  // Each row set (full, containers, partial, complements) folds exactly
  // when its tail, every entry since its last flat write, would hold more
  // entries than its frozen rows.
  auto entries = [](const RelationshipSnapshot& s) {
    return std::array<std::size_t, 4>{s.num_full(), s.num_full(),
                                      s.num_partial(),
                                      2 * s.num_complementary()};
  };
  std::array<std::size_t, 4> frozen = entries(*base);
  RelationshipSnapshot::Ptr chained = base;
  for (std::size_t i = 0; i < built.size(); ++i) {
    const uint64_t folds_before =
        GlobalCounterValue("rdfcube_core_snapshot_folds_total");
    auto next = RelationshipSnapshot::BuildIncremental(
        *chained, PrefixOf(whole, steps[i]), {});
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    chained = next.value();
    ExpectSameReads(*chained, *built[i], "step " + std::to_string(steps[i]));
    uint64_t want_folds = 0;
    const std::array<std::size_t, 4> now = entries(*built[i]);
    for (std::size_t set = 0; set < now.size(); ++set) {
      if (now[set] - frozen[set] > frozen[set]) {
        ++want_folds;
        frozen[set] = now[set];
      }
    }
    EXPECT_EQ(GlobalCounterValue("rdfcube_core_snapshot_folds_total") -
                  folds_before,
              want_folds)
        << "step " << steps[i];
    if (steps[i] == fold) {
      EXPECT_GE(want_folds, 3u);
    }
  }
}

// Pages of a refreshed snapshot, resumed from cursors on a row's last
// frozen partner (the next record is the row's first tail partner) and
// inside a row's tail, concatenate to the scan's suffix.
TEST(SnapshotPagingTest, CursorsAtAndInsideTheTailResumeExactly) {
  const qb::Corpus whole = MakeRandomCorpus(37, 70);
  const ObsId base_n = 60;
  auto base = MustBuild(PrefixOf(whole, base_n));
  auto refreshed =
      RelationshipSnapshot::BuildIncremental(*base, PrefixOf(whole, 70), {});
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  RecordSink scan;
  ASSERT_TRUE((*refreshed)->ScanAll(&scan, Deadline()).ok());
  const std::vector<ScanRecord>& all = scan.records;
  // The records after `cursor`, `page` at a time. Every page resumes
  // strictly after its cursor; one that does not would repeat forever, so
  // it ends the walk with a failure.
  auto pages_after = [&](ScanCursor cursor, std::size_t page) {
    std::vector<ScanRecord> pages;
    for (bool more = true; more;) {
      std::vector<ScanRecord> records;
      EXPECT_TRUE(
          (*refreshed)->ScanPage(cursor, page, Deadline(), &records, &more)
              .ok());
      if (records.empty() ? more : !KeyAfter(records.front(), cursor)) {
        ADD_FAILURE() << "a page did not resume after cursor " << cursor.kind
                      << " " << cursor.a << " " << cursor.b;
        break;
      }
      pages.insert(pages.end(), records.begin(), records.end());
      if (more) {
        cursor = {records.back().kind, records.back().a, records.back().b};
      }
    }
    return pages;
  };
  for (std::size_t page : {std::size_t{1}, std::size_t{7}, std::size_t{2000}}) {
    EXPECT_EQ(KeysOf(pages_after({}, page)), KeysOf(all)) << "page " << page;
  }
  // In a base row, partners below base_n are frozen and the rest are tail.
  std::map<uint8_t, int> at_split, inside_tail;
  for (std::size_t i = 0; i + 1 < all.size(); ++i) {
    const ScanRecord& r = all[i];
    const ScanRecord& next = all[i + 1];
    if (r.a >= base_n || next.kind != r.kind || next.a != r.a ||
        next.b < base_n) {
      continue;
    }
    int& seen = (r.b < base_n ? at_split : inside_tail)[r.kind];
    if (seen == 3) continue;
    ++seen;
    const std::vector<ScanRecord> suffix(all.begin() + static_cast<long>(i) + 1,
                                         all.end());
    for (std::size_t page : {std::size_t{1}, std::size_t{5}}) {
      EXPECT_EQ(KeysOf(pages_after({r.kind, r.a, r.b}, page)), KeysOf(suffix))
          << "cursor " << r.kind << " " << r.a << " " << r.b << " page "
          << page;
    }
  }
  for (uint8_t kind : {'F', 'P'}) {
    EXPECT_GT(at_split[kind], 0) << kind;
    EXPECT_GT(inside_tail[kind], 0) << kind;
  }
}

// --- RelationshipSnapshot: persistence ---------------------------------------

TEST(SnapshotTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("snapshot_roundtrip.snap");
  auto snap = MustBuild(MakeRandomCorpus(11, 50), 3);
  ASSERT_TRUE(snap->SaveTo(path).ok());
  auto loaded = RelationshipSnapshot::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->version(), 3u);
  EXPECT_EQ((*loaded)->fingerprint(), snap->fingerprint());
  EXPECT_EQ((*loaded)->num_observations(), snap->num_observations());
  EXPECT_EQ((*loaded)->num_full(), snap->num_full());
  EXPECT_EQ((*loaded)->num_partial(), snap->num_partial());
  EXPECT_EQ((*loaded)->num_complementary(), snap->num_complementary());
  EXPECT_TRUE(ScanSets(**loaded) == ScanSets(*snap));
  EXPECT_TRUE((*loaded)->SameRelationships(*snap));
  std::remove(path.c_str());
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(SnapshotTest, RefreshedSnapshotSavesBuildsBytesAndLoadsBack) {
  const qb::Corpus whole = MakeRandomCorpus(41, 60);
  auto base = MustBuild(PrefixOf(whole, 45), 1);
  RelationshipSnapshot::BuildOptions options;
  options.version = 7;
  auto refreshed = RelationshipSnapshot::BuildIncremental(
      *base, PrefixOf(whole, 60), options);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  const std::string refreshed_path = TempPath("snapshot_refreshed.snap");
  const std::string built_path = TempPath("snapshot_built.snap");
  ASSERT_TRUE((*refreshed)->SaveTo(refreshed_path).ok());
  ASSERT_TRUE(MustBuild(PrefixOf(whole, 60), 7)->SaveTo(built_path).ok());
  const std::string bytes = FileBytes(refreshed_path);
  ASSERT_FALSE(bytes.empty());
  EXPECT_TRUE(bytes == FileBytes(built_path));
  auto loaded = RelationshipSnapshot::LoadFrom(refreshed_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->version(), 7u);
  EXPECT_EQ((*loaded)->fingerprint(), (*refreshed)->fingerprint());
  ExpectSameReads(**loaded, **refreshed, "loaded");
  std::remove(refreshed_path.c_str());
  std::remove(built_path.c_str());
}

TEST(SnapshotTest, LoadRejectsTruncationAndCorruption) {
  const std::string path = TempPath("snapshot_corrupt.snap");
  auto snap = MustBuild(MakeRunningExample());
  ASSERT_TRUE(snap->SaveTo(path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes.empty());

  auto write = [&](const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
  };
  // A sweep of strict truncations: every one is ParseError, never a crash.
  for (std::size_t cut = 0; cut < bytes.size();
       cut += std::max<std::size_t>(1, bytes.size() / 97)) {
    write(bytes.substr(0, cut));
    auto r = RelationshipSnapshot::LoadFrom(path);
    ASSERT_FALSE(r.ok()) << "prefix " << cut << " accepted";
    EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
  }
  // Trailing garbage.
  write(bytes + "x");
  EXPECT_TRUE(RelationshipSnapshot::LoadFrom(path).status().IsParseError());
  // Bad magic.
  std::string flipped = bytes;
  flipped[0] ^= 0x5a;
  write(flipped);
  EXPECT_TRUE(RelationshipSnapshot::LoadFrom(path).status().IsParseError());
  // Missing file is IOError, not ParseError.
  EXPECT_TRUE(
      RelationshipSnapshot::LoadFrom("/no/such/dir/f").status().IsIOError());
  std::remove(path.c_str());
}

TEST(SnapshotTest, StagedSaveFaultLeavesPublishedFileIntact) {
  const std::string path = TempPath("snapshot_staged.snap");
  auto v1 = MustBuild(MakeRandomCorpus(2, 30), 1);
  ASSERT_TRUE(v1->SaveTo(path).ok());

  auto v2 = MustBuild(MakeRandomCorpus(2, 50), 2);
  {
    FaultInjector injector(1);
    injector.ArmNthCall(core::kFaultSnapshotSaveStage, 1);
    ScopedFaultInjection scope(&injector);
    EXPECT_TRUE(v2->SaveTo(path).IsIOError());
  }
  // The interrupted save never touched the published path: the old snapshot
  // still loads, at its old version.
  auto loaded = RelationshipSnapshot::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->version(), 1u);
  EXPECT_EQ((*loaded)->num_observations(), 30u);
  // A retry without the fault succeeds and swaps atomically.
  ASSERT_TRUE(v2->SaveTo(path).ok());
  loaded = RelationshipSnapshot::LoadFrom(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->version(), 2u);
  std::remove(path.c_str());
}

// --- SnapshotStore -----------------------------------------------------------

TEST(SnapshotStoreTest, ReloadPublishesBumpedVersionAndKeepsLastGood) {
  SnapshotStore store;
  EXPECT_EQ(store.Current(), nullptr);
  store.Publish(MustBuild(MakeRandomCorpus(5, 40), 1));
  ASSERT_NE(store.Current(), nullptr);
  EXPECT_EQ(store.Current()->version(), 1u);

  // Extending reload: incremental path, version bump.
  ASSERT_TRUE(store.Reload(MakeRandomCorpus(5, 60), Deadline()).ok());
  EXPECT_EQ(store.Current()->version(), 2u);
  EXPECT_EQ(store.Current()->num_observations(), 60u);
  EXPECT_EQ(store.reloads(), 1u);

  // Non-extending reload: full rebuild, version still bumps.
  ASSERT_TRUE(store.Reload(MakeRandomCorpus(6, 30), Deadline()).ok());
  EXPECT_EQ(store.Current()->version(), 3u);
  EXPECT_EQ(store.Current()->num_observations(), 30u);
  EXPECT_EQ(store.reloads(), 2u);

  // A failing reload (injected build crash) keeps the last-good snapshot.
  const SnapshotPtr before = store.Current();
  {
    FaultInjector injector(1);
    injector.ArmNthCall(core::kFaultSnapshotBuild, 1);
    ScopedFaultInjection scope(&injector);
    EXPECT_TRUE(
        store.Reload(MakeRandomCorpus(9, 40), Deadline()).IsInternal());
  }
  EXPECT_EQ(store.Current(), before);
  EXPECT_EQ(store.reload_failures(), 1u);

  // A swap-fault (crash between build and publication) also degrades.
  {
    FaultInjector injector(1);
    injector.ArmNthCall(kFaultReloadSwap, 1);
    ScopedFaultInjection scope(&injector);
    EXPECT_FALSE(store.Reload(MakeRandomCorpus(9, 40), Deadline()).ok());
  }
  EXPECT_EQ(store.Current(), before);
  EXPECT_EQ(store.reload_failures(), 2u);

  // An expired deadline degrades the same way.
  EXPECT_TRUE(
      store.Reload(MakeRandomCorpus(9, 40), Deadline(0.0)).IsTimedOut());
  EXPECT_EQ(store.Current(), before);
  EXPECT_EQ(store.reload_failures(), 3u);
}

// The refreshed snapshot shares its base's frozen rows: it stays whole after
// the base and the store that held both are gone (run under ASan too).
TEST(SnapshotStoreTest, RefreshedSnapshotOutlivesItsBaseAndTheStore) {
  const qb::Corpus whole = MakeRandomCorpus(43, 60);
  const uint64_t refreshes =
      GlobalCounterValue("rdfcube_core_snapshot_refreshes_total");
  SnapshotPtr refreshed;
  {
    SnapshotStore store;
    // The store holds the only reference to the base.
    store.Publish(MustBuild(PrefixOf(whole, 40), 1));
    ASSERT_TRUE(store.Reload(PrefixOf(whole, 60), Deadline()).ok());
    refreshed = store.Current();
  }
  EXPECT_EQ(GlobalCounterValue("rdfcube_core_snapshot_refreshes_total"),
            refreshes + 1);
  ASSERT_EQ(refreshed.use_count(), 1);
  ExpectSameReads(*refreshed, *MustBuild(PrefixOf(whole, 60)), "outlived");
}

// --- End-to-end server/client ------------------------------------------------

class ServerClientTest : public ::testing::Test {
 protected:
  void StartServer(qb::Corpus corpus, const ServerOptions& options) {
    snapshot_ = MustBuild(std::move(corpus), 1);
    server_ = std::make_unique<Server>(options);
    ASSERT_TRUE(server_->Start(snapshot_).ok());
    ASSERT_NE(server_->port(), 0);
  }

  Client MakeClient(int max_retries = 5) {
    ClientOptions copts;
    copts.port = server_->port();
    copts.max_retries = max_retries;
    copts.initial_backoff_ms = 1;
    copts.max_backoff_ms = 20;
    return Client(copts);
  }

  RelationshipSnapshot::Ptr snapshot_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerClientTest, PointLookupsAndScanMatchSnapshot) {
  StartServer(MakeRandomCorpus(31, 60), ServerOptions{});
  Client client = MakeClient();

  auto version = client.Ping();
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(version.value(), 1u);

  for (ObsId id = 0; id < snapshot_->num_observations(); id += 7) {
    auto got = client.Containers(id);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), snapshot_->Containers(id, Deadline()).value());

    got = client.Contained(id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), snapshot_->Contained(id, Deadline()).value());

    got = client.Complements(id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), snapshot_->Complements(id, Deadline()).value());

    auto partial = client.Partial(id, 0.3);
    ASSERT_TRUE(partial.ok());
    auto want = snapshot_->PartiallyContained(id, 0.3, Deadline()).value();
    ASSERT_EQ(partial->size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*partial)[i].first, want[i].other);
      EXPECT_NEAR((*partial)[i].second, want[i].degree, 1e-12);
    }
  }

  auto scan = client.Scan(0);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  std::size_t full = 0, partial = 0, compl_count = 0;
  for (const auto& rec : scan.value()) {
    if (rec.kind == 'F') ++full;
    if (rec.kind == 'P') ++partial;
    if (rec.kind == 'C') ++compl_count;
  }
  EXPECT_EQ(full, snapshot_->num_full());
  EXPECT_EQ(partial, snapshot_->num_partial());
  EXPECT_EQ(compl_count, snapshot_->num_complementary());

  // A limited scan truncates.
  auto limited = client.Scan(3);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 3u);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*stats)[kStatsObservations], snapshot_->num_observations());
  EXPECT_EQ((*stats)[kStatsFull], snapshot_->num_full());
  EXPECT_GT((*stats)[kStatsRequests], 0u);

  auto missing = client.Containers(
      static_cast<ObsId>(snapshot_->num_observations()));
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();
}

TEST_F(ServerClientTest, ServerCapScanFitsTheFrameAndPagesToTheFullSet) {
  ServerOptions options;
  options.max_frame_bytes = 4096;
  StartServer(MakeRandomCorpus(31, 60), options);
  Client client = MakeClient();
  const std::vector<ScanRecord> want = PageThrough(*snapshot_, 1u << 20);
  ASSERT_GT(want.size(), ScanRecordsPerFrame(options.max_frame_bytes));

  // limit 0 asks for the server cap: clamped to what one frame holds.
  Request req;
  req.op = Op::kScan;
  auto first = client.Call(req);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->code, RespCode::kOk) << first->error;
  EXPECT_LE(EncodeResponse(*first).size(), options.max_frame_bytes);
  EXPECT_EQ(first->records.size(),
            ScanRecordsPerFrame(options.max_frame_bytes));
  EXPECT_TRUE(first->more);

  std::vector<ScanRecord> got = first->records;
  ScanCursor cursor = first->cursor;
  for (bool more = first->more; more;) {
    auto page = client.ScanPage(cursor, 0);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_LE(EncodeResponse(*page).size(), options.max_frame_bytes);
    got.insert(got.end(), page->records.begin(), page->records.end());
    cursor = page->cursor;
    more = page->more;
  }
  EXPECT_EQ(KeysOf(got), KeysOf(want));

  // Past the end: an empty final page that echoes the cursor.
  auto end = client.ScanPage({'P', 0xffffffffu, 0xffffffffu}, 0);
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_TRUE(end->records.empty());
  EXPECT_FALSE(end->more);
  EXPECT_EQ(end->cursor.kind, 'P');
}

TEST_F(ServerClientTest, SameSnapshotAndRequestGiveIdenticalBytes) {
  StartServer(MakeRandomCorpus(13, 60), ServerOptions{});
  Request req;
  req.op = Op::kScan;
  req.limit = 50;
  req.cursor = {'F', 3, 0};
  req.deadline_ms = 5000;
  req.request_id = 77;
  auto fetch = [&]() {
    auto conn = ConnectTo("127.0.0.1", server_->port(), Deadline(2.0));
    EXPECT_TRUE(conn.ok());
    std::string payload;
    if (!conn.ok()) return payload;
    EXPECT_TRUE(
        WriteFrame(conn->get(), EncodeRequest(req), Deadline(2.0)).ok());
    EXPECT_TRUE(
        ReadFrame(conn->get(), &payload, kDefaultMaxFrameBytes, Deadline(2.0))
            .ok());
    return payload;
  };
  const std::string first = fetch();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(fetch(), first);
  // A snapshot rebuilt from the same corpus answers with the same bytes.
  server_->store().Publish(MustBuild(MakeRandomCorpus(13, 60), 1));
  EXPECT_EQ(fetch(), first);
}

TEST_F(ServerClientTest, VersionOneFrameGetsBadRequest) {
  StartServer(MakeRunningExample(), ServerOptions{});
  auto conn = ConnectTo("127.0.0.1", server_->port(), Deadline(2.0));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  Request req;
  req.op = Op::kPing;
  std::string v1 = EncodeRequest(req);
  v1[0] = 1;
  ASSERT_TRUE(WriteFrame(conn->get(), v1, Deadline(2.0)).ok());
  std::string payload;
  ASSERT_TRUE(
      ReadFrame(conn->get(), &payload, kDefaultMaxFrameBytes, Deadline(2.0))
          .ok());
  auto resp = DecodeResponse(payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, RespCode::kBadRequest);
}

TEST_F(ServerClientTest, SequentialRequestsReuseOneConnection) {
  StartServer(MakeRunningExample(), ServerOptions{});
  Client client = MakeClient();
  for (int i = 0; i < 50; ++i) {
    auto v = client.Ping();
    ASSERT_TRUE(v.ok()) << "iteration " << i << ": " << v.status().ToString();
  }
  EXPECT_GE(server_->requests_total(), 50u);
}

TEST_F(ServerClientTest, ReloadBumpsVersionVisibleToClients) {
  StartServer(MakeRandomCorpus(5, 40), ServerOptions{});
  Client client = MakeClient();
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(server_->Reload(MakeRandomCorpus(5, 60), Deadline()).ok());
  auto version = client.Ping();
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version.value(), 2u);
  // Answers now come from the refreshed snapshot (60 observations).
  auto got = client.Containers(55);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
}

TEST_F(ServerClientTest, NullSnapshotAnswersInternalUntilReload) {
  ServerOptions options;
  server_ = std::make_unique<Server>(options);
  ASSERT_TRUE(server_->Start(nullptr).ok());
  Client client = MakeClient();
  EXPECT_TRUE(client.Ping().status().IsInternal());
  ASSERT_TRUE(server_->Reload(MakeRunningExample(), Deadline()).ok());
  auto version = client.Ping();
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version.value(), 1u);
}

TEST_F(ServerClientTest, MalformedFrameGetsBadRequestThenClose) {
  StartServer(MakeRunningExample(), ServerOptions{});
  auto conn = ConnectTo("127.0.0.1", server_->port(), Deadline(2.0));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ASSERT_TRUE(WriteFrame(conn->get(), "\xff garbage \xff", Deadline(2.0)).ok());
  std::string payload;
  ASSERT_TRUE(
      ReadFrame(conn->get(), &payload, kDefaultMaxFrameBytes, Deadline(2.0))
          .ok());
  auto resp = DecodeResponse(payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, RespCode::kBadRequest);
  // The server hangs up after a protocol error (stream is desynced).
  const Status eof =
      ReadFrame(conn->get(), &payload, kDefaultMaxFrameBytes, Deadline(2.0));
  EXPECT_TRUE(eof.IsOutOfRange() || eof.IsIOError()) << eof.ToString();
}

TEST_F(ServerClientTest, OversizeFrameGetsBadRequestThenClose) {
  ServerOptions options;
  options.max_frame_bytes = 256;
  StartServer(MakeRunningExample(), options);
  auto conn = ConnectTo("127.0.0.1", server_->port(), Deadline(2.0));
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(
      WriteFrame(conn->get(), std::string(1024, 'x'), Deadline(2.0)).ok());
  std::string payload;
  ASSERT_TRUE(
      ReadFrame(conn->get(), &payload, kDefaultMaxFrameBytes, Deadline(2.0))
          .ok());
  auto resp = DecodeResponse(payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, RespCode::kBadRequest);
}

TEST_F(ServerClientTest, OverloadShedsInsteadOfQueueingUnboundedly) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.retry_after_ms = 1;
  StartServer(MakeRandomCorpus(37, 200), options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> client_sheds{0};
  std::vector<std::thread> flooders;
  for (int t = 0; t < 4; ++t) {
    flooders.emplace_back([&, t] {
      ClientOptions copts;
      copts.port = server_->port();
      copts.max_retries = 0;  // surface every shed instead of absorbing it
      copts.jitter_seed = static_cast<uint64_t>(t + 1);
      Client client(copts);
      Request req;
      req.op = Op::kScan;
      req.limit = 10000;
      while (!stop.load(std::memory_order_relaxed)) {
        // With max_retries=0 a shed surfaces as ResourceExhausted (and is
        // tallied in sheds_seen) instead of being absorbed by backoff.
        (void)client.Call(req);
      }
      client_sheds.fetch_add(client.sheds_seen(), std::memory_order_relaxed);
    });
  }
  const Deadline give_up(10.0);
  while (server_->shed_total() == 0 && !give_up.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : flooders) t.join();
  EXPECT_GT(server_->shed_total(), 0u) << "no shed observed under overload";
  EXPECT_GT(client_sheds.load(), 0u);
  // Shed responses carry the configured retry-after hint.
  Client probe = MakeClient();
  EXPECT_TRUE(probe.Ping().ok());  // server still serving after the storm
}

TEST_F(ServerClientTest, ZeroRequestBoundStillServesOneRequestPerWakeup) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 0;  // clamped to 1, never "shed everything"
  StartServer(MakeRunningExample(), options);
  Client client = MakeClient(0);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(client.Ping().ok()) << i;
  EXPECT_EQ(server_->shed_total(), 0u);
}

TEST_F(ServerClientTest, QueuedRequestsHonorTheirDeadline) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 64;
  StartServer(MakeRandomCorpus(37, 200), options);

  std::atomic<bool> stop{false};
  std::vector<std::thread> flooders;
  for (int t = 0; t < 4; ++t) {
    flooders.emplace_back([&, t] {
      ClientOptions copts;
      copts.port = server_->port();
      copts.max_retries = 1;
      copts.jitter_seed = static_cast<uint64_t>(t + 10);
      Client client(copts);
      Request req;
      req.op = Op::kScan;
      req.limit = 10000;
      while (!stop.load(std::memory_order_relaxed)) {
        (void)client.Call(req);
      }
    });
  }
  // Probe with 1ms deadlines until one expires while queued behind scans.
  Client probe = MakeClient(0);
  Request ping;
  ping.op = Op::kPing;
  ping.deadline_ms = 1;
  bool saw_timeout = false;
  const Deadline give_up(10.0);
  while (!give_up.Expired() && server_->deadline_expired_total() == 0) {
    auto resp = probe.Call(ping);
    if (resp.ok() && resp->code == RespCode::kDeadlineExceeded) {
      saw_timeout = true;
      break;
    }
    if (!resp.ok()) probe.Disconnect();
  }
  stop.store(true);
  for (auto& t : flooders) t.join();
  EXPECT_TRUE(saw_timeout || server_->deadline_expired_total() > 0)
      << "no deadline expiry observed under queueing";
}

TEST_F(ServerClientTest, StopDrainsAndRefusesFurtherWork) {
  StartServer(MakeRunningExample(), ServerOptions{});
  const uint16_t port = server_->port();
  Client client = MakeClient(0);
  ASSERT_TRUE(client.Ping().ok());

  server_->Stop();
  server_->Stop();  // idempotent

  // The old connection is gone and new connects are refused.
  EXPECT_FALSE(client.Ping().ok());
  auto conn = ConnectTo("127.0.0.1", port, Deadline(0.5));
  EXPECT_FALSE(conn.ok());

  // Start after Stop is refused (one-shot lifecycle).
  EXPECT_TRUE(server_->Start(snapshot_).IsFailedPrecondition());
}

// Value of the single-sample line `<name> <value>` in a Prometheus text
// exposition; npos-like sentinel when absent.
uint64_t ScrapedValue(const std::string& text, const std::string& name) {
  const std::string needle = name + " ";
  std::size_t at = 0;
  while ((at = text.find(needle, at)) != std::string::npos) {
    if (at == 0 || text[at - 1] == '\n') {
      return std::strtoull(text.c_str() + at + needle.size(), nullptr, 10);
    }
    ++at;
  }
  return std::numeric_limits<uint64_t>::max();
}

TEST_F(ServerClientTest, MetricsScrapeCountsRequestsExactly) {
  StartServer(MakeRunningExample(), ServerOptions{});
  Client client = MakeClient();
  // The registry is process-global, so assert on deltas from this point.
  const uint64_t ping_before =
      GlobalCounterValue("rdfcube_server_ping_requests_total");
  for (int i = 0; i < 17; ++i) {
    ASSERT_TRUE(client.Ping().ok());
  }
  auto text = client.Metrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // The per-op counter ticks after the scrape renders, so the scrape sees
  // exactly the requests that preceded it.
  EXPECT_EQ(ScrapedValue(*text, "rdfcube_server_ping_requests_total"),
            ping_before + 17);
  EXPECT_NE(text->find("# TYPE rdfcube_server_ping_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text->find("# TYPE rdfcube_server_ping_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text->find("rdfcube_server_ping_latency_us_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(text->find("# TYPE rdfcube_server_queue_wait_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text->find("# TYPE rdfcube_server_in_flight_requests gauge\n"),
            std::string::npos);
  // A second scrape sees the first one's per-op counter tick.
  const uint64_t metrics_count_in_first =
      ScrapedValue(*text, "rdfcube_server_metrics_requests_total");
  auto again = client.Metrics();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ScrapedValue(*again, "rdfcube_server_metrics_requests_total"),
            metrics_count_in_first + 1);
}

TEST_F(ServerClientTest, RequestIdIsEchoedOnWorkerAndInlinePaths) {
  StartServer(MakeRunningExample(), ServerOptions{});
  Client client = MakeClient();
  Request req;
  req.op = Op::kPing;  // evaluated path (counted in requests_total)
  req.request_id = 0xabcddcba12344321ull;
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->request_id, req.request_id);
  req.op = Op::kMetrics;  // inline path (exempt from the shed bound)
  req.request_id = 0x1111222233334444ull;
  resp = client.Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->request_id, req.request_id);
  // Requests sent without an id get a client-stamped one and still match
  // (a mismatch would surface as ParseError from the echo check).
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerClientTest, SlowlogRecordsWorkerRequests) {
  ServerOptions options;
  options.slowlog_capacity = 8;
  StartServer(MakeRandomCorpus(31, 60), options);
  Client client = MakeClient();
  Request req;
  req.op = Op::kScan;
  req.request_id = 777;
  ASSERT_TRUE(client.Call(req).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Ping().ok());
  }
  auto log = client.Slowlog();
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->front(), '[');
  EXPECT_EQ(log->back(), ']');
  EXPECT_NE(log->find("\"op\":\"scan\""), std::string::npos);
  EXPECT_NE(log->find("\"request_id\":777"), std::string::npos);
  EXPECT_NE(log->find("\"op\":\"ping\""), std::string::npos);
  EXPECT_NE(log->find("\"snapshot_version\":1"), std::string::npos);
  // The slowlog dump itself is answered inline and never self-records.
  EXPECT_EQ(log->find("\"op\":\"slowlog\""), std::string::npos);
}

TEST_F(ServerClientTest, SlowlogCapacityZeroDumpsEmpty) {
  ServerOptions options;
  options.slowlog_capacity = 0;
  StartServer(MakeRunningExample(), options);
  Client client = MakeClient();
  ASSERT_TRUE(client.Ping().ok());
  auto log = client.Slowlog();
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(*log, "[]");
}

TEST_F(ServerClientTest, TraceDumpCapturesABoundedWindow) {
  ASSERT_FALSE(obs::TraceCollector::Global().enabled());
  StartServer(MakeRunningExample(), ServerOptions{});
  Client client = MakeClient();
  auto json = client.TraceDump(/*window_ms=*/30);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("\"traceEvents\""), std::string::npos);
  // The on-demand capture toggles the collector back off afterwards.
  EXPECT_FALSE(obs::TraceCollector::Global().enabled());
}

TEST_F(ServerClientTest, StalledReaderNeitherHoldsItsLoopNorOutlivesTheWriteTimeout) {
  ServerOptions options;
  options.num_workers = 1;
  options.write_timeout_seconds = 1.0;
  StartServer(MakeRandomCorpus(37, 200), options);
  // Enough server-cap pages to overflow everything the kernel buffers for
  // a reader that never reads (Linux caps a send buffer at 4 MiB).
  const std::size_t rels = snapshot_->num_full() + snapshot_->num_partial() +
                           snapshot_->num_complementary();
  const std::size_t page =
      kResponseHeaderBytes +
      kScanRecordBytes *
          std::min<std::size_t>(rels, ScanRecordsPerFrame(kDefaultMaxFrameBytes));
  const std::size_t pages = (16u << 20) / page + 1;
  auto stalled = ConnectTo("127.0.0.1", server_->port(), Deadline(2.0));
  ASSERT_TRUE(stalled.ok()) << stalled.status().ToString();
  Request scan;
  scan.op = Op::kScan;
  scan.deadline_ms = 10000;
  for (std::size_t i = 0; i < pages; ++i) {
    ASSERT_TRUE(
        WriteFrame(stalled->get(), EncodeRequest(scan), Deadline(2.0)).ok());
  }
  // Let the loop fill the socket and park the rest of the pages.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const uint64_t io_errors_before =
      GlobalCounterValue("rdfcube_server_io_errors_total");

  Client client = MakeClient();
  const Stopwatch watch;
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_LT(watch.ElapsedMillis(), 250.0) << "the stalled reader held the loop";

  // Once write_timeout_seconds pass without progress the server hangs up:
  // reading now ends in EOF or a reset long before the last page.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  EXPECT_EQ(GlobalCounterValue("rdfcube_server_io_errors_total"),
            io_errors_before + 1);
  std::size_t got = 0;
  std::string payload;
  Status st;
  while ((st = ReadFrame(stalled->get(), &payload, kDefaultMaxFrameBytes,
                         Deadline(5.0)))
             .ok()) {
    ++got;
  }
  EXPECT_FALSE(st.IsTimedOut()) << "the stalled connection was never closed";
  EXPECT_LT(got, pages);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerClientTest, TraceCaptureDoesNotHoldItsLoop) {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  ASSERT_FALSE(collector.enabled());
  ServerOptions options;
  options.num_workers = 1;
  StartServer(MakeRunningExample(), options);
  Client tracer = MakeClient();
  std::thread capture([&] {
    auto json = tracer.TraceDump(/*window_ms=*/500);
    EXPECT_TRUE(json.ok()) << json.status().ToString();
  });
  const Deadline give_up(5.0);
  while (!collector.enabled() && !give_up.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(collector.enabled()) << "the capture window never opened";
  Client client = MakeClient();
  const Stopwatch watch;
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_LT(watch.ElapsedMillis(), 100.0) << "the capture held the loop";
  EXPECT_TRUE(collector.enabled()) << "the ping waited out the window";
  capture.join();
  EXPECT_FALSE(collector.enabled());
}

// Live value of a gauge in the global registry (0 when unregistered).
int64_t GlobalGaugeValue(const std::string& name) {
  for (const obs::GaugeSample& g :
       obs::MetricsRegistry::Global().Snapshot().gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

TEST_F(ServerClientTest, ASecondCaptureNeverDisplacesAParkedOne) {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  ASSERT_FALSE(collector.enabled());
  ServerOptions options;
  options.num_workers = 1;
  StartServer(MakeRunningExample(), options);
  const int64_t in_flight_before =
      GlobalGaugeValue("rdfcube_server_in_flight_requests");
  Client first = MakeClient(0);
  std::thread capture([&] {
    auto json = first.TraceDump(/*window_ms=*/500);
    EXPECT_TRUE(json.ok()) << "the parked capture was never answered: "
                           << json.status().ToString();
  });
  const Deadline give_up(5.0);
  while (!collector.enabled() && !give_up.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(collector.enabled()) << "the capture window never opened";
  // What another loop's capture does when its window closes first.
  collector.Disable();
  Client second = MakeClient(0);
  auto json = second.TraceDump(/*window_ms=*/50);
  EXPECT_TRUE(json.ok()) << json.status().ToString();
  capture.join();
  EXPECT_FALSE(collector.enabled());
  // Each answer's epilogue runs just after its send.
  while (GlobalGaugeValue("rdfcube_server_in_flight_requests") !=
             in_flight_before &&
         !give_up.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(GlobalGaugeValue("rdfcube_server_in_flight_requests"),
            in_flight_before);
}

TEST_F(ServerClientTest, ConnectionsSpreadOverTheLoops) {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  ASSERT_FALSE(collector.enabled());
  ServerOptions options;
  options.num_workers = 4;
  StartServer(MakeRunningExample(), options);
  std::vector<Client> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(MakeClient());
    // Answered, so owned by a loop before the next one connects.
    ASSERT_TRUE(clients.back().Ping().ok());
  }
  collector.Enable();
  for (Client& client : clients) EXPECT_TRUE(client.Ping().ok());
  // A request's span ends just after its answer is sent.
  std::vector<uint32_t> threads;
  const Deadline give_up(5.0);
  while (threads.size() < clients.size() && !give_up.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    threads.clear();
    for (const obs::SpanEvent& span : collector.Snapshot()) {
      if (span.name == "server/handle") threads.push_back(span.thread_index);
    }
  }
  collector.Disable();
  ASSERT_EQ(threads.size(), clients.size());
  EXPECT_EQ(std::set<uint32_t>(threads.begin(), threads.end()).size(),
            clients.size())
      << "two connections share a loop";
}

// `payload` behind its u32 little-endian length prefix.
std::string Framed(const std::string& payload) {
  std::string frame(4, '\0');
  for (int i = 0; i < 4; ++i) {
    frame[i] = static_cast<char>(payload.size() >> (8 * i));
  }
  return frame + payload;
}

// Writes raw bytes, whole frames or not, to a non-blocking socket.
bool SendRaw(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      struct pollfd pfd = {fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

// The server's end of the loopback connection `client` (the server runs in
// this process): the socket whose local address is the client's peer and
// whose peer is the client's local address; -1 when there is none.
int ServerEndOf(int client) {
  struct sockaddr_in local, peer;
  socklen_t len = sizeof(local);
  if (::getsockname(client, reinterpret_cast<struct sockaddr*>(&local),
                    &len) != 0) {
    return -1;
  }
  len = sizeof(peer);
  if (::getpeername(client, reinterpret_cast<struct sockaddr*>(&peer),
                    &len) != 0) {
    return -1;
  }
  for (int fd = 0; fd < 4096; ++fd) {
    struct sockaddr_in mine, theirs;
    socklen_t mine_len = sizeof(mine), theirs_len = sizeof(theirs);
    if (fd == client ||
        ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&mine),
                      &mine_len) != 0 ||
        ::getpeername(fd, reinterpret_cast<struct sockaddr*>(&theirs),
                      &theirs_len) != 0) {
      continue;
    }
    if (mine.sin_family == AF_INET && mine.sin_port == peer.sin_port &&
        theirs.sin_port == local.sin_port) {
      return fd;
    }
  }
  return -1;
}

TEST_F(ServerClientTest, PipelinedRequestsAreReadNoFasterThanTheyAreDecoded) {
  ServerOptions options;
  options.num_workers = 1;
  StartServer(MakeRunningExample(), options);
  auto conn = ConnectTo("127.0.0.1", server_->port(), Deadline(2.0));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  const int fd = conn->get();
  Request ping;
  ping.op = Op::kPing;
  ping.deadline_ms = 10000;
  const std::string payload = EncodeRequest(ping);
  std::string reply;
  ASSERT_TRUE(WriteFrame(fd, payload, Deadline(2.0)).ok());
  ASSERT_TRUE(ReadFrame(fd, &reply, kDefaultMaxFrameBytes, Deadline(2.0)).ok());
  const int server_end = ServerEndOf(fd);
  ASSERT_GE(server_end, 0);

  const std::string frame = Framed(payload);
  std::string chunk;
  while (chunk.size() < (64u << 10)) chunk += frame;
  // Bytes we sent that were not answered yet are unsent in our socket,
  // queued in the server's, in flight on loopback, or read by the server.
  // What it read without decoding stays within one frame plus one read
  // (4 KiB); the rest of the bound covers answers and segments in flight.
  const std::size_t bound =
      kDefaultMaxFrameBytes + 4 + 4096 + (std::size_t{512} << 10);
  std::size_t sent = 0, answered = 0, worst = 0;
  std::string in;
  char buf[1 << 16];
  const Deadline stop_sending(1.0);
  while (!stop_sending.Expired()) {
    const std::size_t at = sent % chunk.size();
    const ssize_t n = ::send(fd, chunk.data() + at, chunk.size() - at,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
      struct pollfd pfd = {fd, POLLIN | POLLOUT, 0};
      (void)::poll(&pfd, 1, 1);
    }
    ssize_t got;
    while ((got = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT)) > 0) {
      in.append(buf, static_cast<std::size_t>(got));
    }
    std::size_t off = 0;
    while (in.size() - off >= 4) {
      uint32_t size = 0;
      for (int i = 0; i < 4; ++i) {
        size |= static_cast<uint32_t>(static_cast<unsigned char>(in[off + i]))
                << (8 * i);
      }
      if (in.size() - off < 4 + size) break;
      off += 4 + size;
      ++answered;
    }
    in.erase(0, off);
    int queued = 0, unsent = 0;
    ASSERT_EQ(::ioctl(server_end, FIONREAD, &queued), 0);
    ASSERT_EQ(::ioctl(fd, SIOCOUTQNSD, &unsent), 0);
    const std::size_t accounted = answered * frame.size() +
                                  static_cast<std::size_t>(queued) +
                                  static_cast<std::size_t>(unsent);
    worst = std::max(worst, sent - std::min(sent, accounted));
  }
  EXPECT_GT(answered, 0u);
  EXPECT_LT(worst, bound) << "the server read " << worst
                          << " bytes ahead of its decoding";
  conn->Close();
  Client client = MakeClient();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerClientTest, PipelinedRequestsEachGetTheirOwnDeadline) {
  ServerOptions options;
  options.num_workers = 1;
  StartServer(MakeRunningExample(), options);
  auto conn = ConnectTo("127.0.0.1", server_->port(), Deadline(2.0));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  Request ping;
  ping.op = Op::kPing;  // deadline_ms 0: the server's default budget
  const std::string frame = Framed(EncodeRequest(ping));
  const std::string head = frame.substr(0, 1), tail = frame.substr(1);
  // Two requests in flight and the first byte of a third: for longer than
  // the default budget the connection's buffer is never empty, yet each
  // request's clock starts on its own.
  ASSERT_TRUE(SendRaw(conn->get(), frame + frame + head));
  const Stopwatch watch;
  std::size_t answers = 0;
  std::string reply;
  while (watch.ElapsedSeconds() < options.default_deadline_seconds + 0.5) {
    ASSERT_TRUE(
        ReadFrame(conn->get(), &reply, kDefaultMaxFrameBytes, Deadline(2.0))
            .ok());
    auto resp = DecodeResponse(reply);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->code, RespCode::kOk)
        << "answer " << answers << " at " << watch.ElapsedMillis() << " ms";
    ++answers;
    ASSERT_TRUE(SendRaw(conn->get(), tail + head));
  }
  EXPECT_GT(answers, 100u);
  EXPECT_EQ(server_->deadline_expired_total(), 0u);
}

TEST_F(ServerClientTest, ObsOpsCanBeForcedThroughAdmission) {
  ServerOptions options;
  options.obs_ops_bypass_admission = false;
  StartServer(MakeRunningExample(), options);
  Client client = MakeClient();
  const uint64_t before = server_->requests_total();
  ASSERT_TRUE(client.Metrics().ok());
  ASSERT_TRUE(client.Slowlog().ok());
  // Through the evaluated path, scrapes count as regular requests...
  EXPECT_EQ(server_->requests_total(), before + 2);
}

TEST_F(ServerClientTest, InlineObsOpsDoNotCountTowardRequestsTotal) {
  StartServer(MakeRunningExample(), ServerOptions{});  // bypass on (default)
  Client client = MakeClient();
  ASSERT_TRUE(client.Ping().ok());
  const uint64_t before = server_->requests_total();
  ASSERT_TRUE(client.Metrics().ok());
  ASSERT_TRUE(client.Slowlog().ok());
  // ...but on the inline path they stay out of the evaluated tally,
  // like every other inline response (shed, bad request).
  EXPECT_EQ(server_->requests_total(), before);
}

TEST_F(ServerClientTest, ClientBacksOffWhenServerIsGone) {
  ClientOptions copts;
  copts.port = 1;  // nothing listens on port 1
  copts.max_retries = 2;
  copts.initial_backoff_ms = 1;
  copts.max_backoff_ms = 4;
  copts.connect_timeout_seconds = 0.1;
  Client client(copts);
  const Status st = client.Ping().status();
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace server
}  // namespace rdfcube
