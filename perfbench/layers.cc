#include "perfbench/layers.h"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "core/lattice.h"
#include "core/snapshot.h"
#include "perfbench/serving.h"
#include "qb/binary_io.h"
#include "server/snapshot_store.h"

namespace perfbench {

namespace obs = rdfcube::obs;
using rdfcube::Deadline;
using rdfcube::Result;

Ledger& Ledger::Get() {
  static Ledger ledger;
  return ledger;
}

std::vector<double> Ledger::Values(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::vector<double>{} : it->second;
}

double Ledger::Median(const std::string& key) const {
  return Quantile(Values(key), 0.5);
}

double Ledger::Sum(const std::string& key) const {
  const std::vector<double> v = Values(key);
  return std::accumulate(v.begin(), v.end(), 0.0);
}

Span::Span(bool traced, const char* name) : name_(name), traced_(traced) {
  if (!traced_) return;
  start_ = Clock::now();
  span_.emplace(name);
}

Span::~Span() {
  if (!traced_) return;
  span_.reset();
  Ledger::Get().Add(name_, Ms(start_, Clock::now()));
}

void RecordFunnel(const core::CubeMaskingStats& stats, uint64_t sink_count,
                  Report* report) {
  Ledger& ledger = Ledger::Get();
  ledger.Add("core.masking.cube_pairs_checked",
             static_cast<double>(stats.cube_pairs_checked));
  ledger.Add("core.masking.cube_pairs_comparable",
             static_cast<double>(stats.cube_pairs_comparable));
  ledger.Add("core.masking.obs_pairs_compared",
             static_cast<double>(stats.observation_pairs_compared));
  ledger.Add("core.masking.emitted",
             static_cast<double>(stats.relationships_emitted));
  if (stats.cube_pairs_checked < stats.cube_pairs_comparable ||
      stats.observation_pairs_compared < stats.relationships_emitted) {
    report->Mismatch("masking funnel widens: checked " +
                     std::to_string(stats.cube_pairs_checked) +
                     " comparable " +
                     std::to_string(stats.cube_pairs_comparable) +
                     " compared " +
                     std::to_string(stats.observation_pairs_compared) +
                     " emitted " +
                     std::to_string(stats.relationships_emitted));
  }
  if (stats.relationships_emitted != sink_count) {
    report->Mismatch("masking emitted " +
                     std::to_string(stats.relationships_emitted) +
                     " but the sink received " + std::to_string(sink_count));
  }
}

// --- The layer probe ---------------------------------------------------------

namespace {

using Snapshot = core::RelationshipSnapshot;

// Page sink for in-process ScanAll: keeps the first kPageLimit records, as
// the server's scan does.
class PageSink : public core::RelationshipSink {
 public:
  void OnFullContainment(qb::ObsId a, qb::ObsId b) override {
    Add('F', a, b, 0);
  }
  void OnPartialContainment(qb::ObsId a, qb::ObsId b, double degree,
                            uint64_t) override {
    Add('P', a, b, degree);
  }
  void OnComplementarity(qb::ObsId a, qb::ObsId b) override {
    Add('C', a, b, 0);
  }
  std::size_t size() const { return records_.size(); }

 private:
  void Add(char kind, qb::ObsId a, qb::ObsId b, double degree) {
    if (records_.size() < kPageLimit) {
      records_.push_back({static_cast<uint8_t>(kind), a, b, degree});
    }
  }
  std::vector<server::ScanRecord> records_;
};

std::size_t Relationships(const Snapshot& s) {
  return s.num_full() + s.num_partial() + s.num_complementary();
}

// Round-trips `req` and `resp` through the wire codec; false on a decode
// failure or a changed payload.
bool CodecRoundTrip(const server::Request& req, const server::Response& resp,
                    const char* span_name) {
  Span span(true, span_name);
  const std::string req_bytes = server::EncodeRequest(req);
  const std::string resp_bytes = server::EncodeResponse(resp);
  Result<server::Request> req_back = server::DecodeRequest(req_bytes);
  Result<server::Response> resp_back = server::DecodeResponse(resp_bytes);
  return req_back.ok() && resp_back.ok() &&
         resp_back.value().ids.size() == resp.ids.size() &&
         resp_back.value().records.size() == resp.records.size();
}

void ProbeServer(const Snapshot::Ptr& snap, uint64_t seed, Report* report) {
  ServerHandle handle;
  const rdfcube::Status st = handle.Start(snap);
  if (!st.ok()) {
    report->Mismatch("probe server start: " + st.ToString());
    return;
  }
  SeedStream targets(seed);
  const std::size_t n = snap->num_observations();
  for (std::size_t i = 0; i < 256; ++i) {
    const server::Request req =
        PointRequest(i, static_cast<qb::ObsId>(targets.Below(n)));
    Result<server::Response> resp = [&] {
      Span span(true, ClientSpan(req.op));
      return handle.client().Call(req);
    }();
    if (!Succeeded(resp)) report->Mismatch("probe point lookup failed");
  }
  for (int i = 0; i < 4; ++i) {
    Result<server::Response> resp = [&] {
      Span span(true, ClientSpan(server::Op::kScan));
      return handle.client().Call(ScanRequest());
    }();
    if (!Succeeded(resp) || resp.value().records.size() != kPageLimit) {
      report->Mismatch("probe page scan failed");
    }
  }
  // The server-cap scan (limit 0) fails today: see NOTES.md.
  OpClass& cap = report->Class("scan_cap", /*counted=*/false);
  ++cap.attempted;
  if (!Succeeded(handle.client().Call(ScanRequest(0)))) ++cap.failed;
  handle.Stop();
}

}  // namespace

void ProbeLayers(const std::string& ext_bytes, std::size_t base_n,
                 uint64_t seed, Report* report) {
  Ledger& ledger = Ledger::Get();
  auto fail = [report](const char* what, const rdfcube::Status& st) {
    report->Mismatch(std::string("probe ") + what + ": " + st.ToString());
  };
  Result<qb::Corpus> ext = [&] {
    Span span(true, "qb.decode");
    return qb::DeserializeCorpus(ext_bytes);
  }();
  if (!ext.ok()) return fail("decode", ext.status());
  const qb::ObservationSet& obs = *ext.value().observations;

  // core.lattice + core.masking, as ComputeRelationships runs them.
  std::optional<core::Lattice> lattice;
  {
    Span span(true, "core.lattice.build");
    lattice.emplace(obs);
  }
  ledger.Add("core.lattice.cubes", static_cast<double>(lattice->num_cubes()));
  FingerprintSink sink;
  core::CubeMaskingStats stats;
  rdfcube::Status st;
  {
    Span span(true, "core.masking.run");
    st = core::RunCubeMasking(obs, *lattice, core::CubeMaskingOptions{}, &sink,
                              &stats);
  }
  if (!st.ok()) return fail("masking", st);
  RecordFunnel(stats, sink.fingerprint().count, report);

  // core.snapshot: build the base, refresh it to `ext`, rebuild `ext`.
  std::vector<qb::ObsId> prefix(base_n);
  std::iota(prefix.begin(), prefix.end(), 0);
  Result<std::string> base_bytes = SubCorpusBytes(ext_bytes, prefix);
  if (!base_bytes.ok()) return fail("base corpus", base_bytes.status());
  Snapshot::Ptr base, refreshed, rebuilt;
  for (int rep = 0; rep < 2; ++rep) {
    Result<qb::Corpus> base_corpus = qb::DeserializeCorpus(base_bytes.value());
    Result<qb::Corpus> ext1 = qb::DeserializeCorpus(ext_bytes);
    Result<qb::Corpus> ext2 = qb::DeserializeCorpus(ext_bytes);
    if (!base_corpus.ok() || !ext1.ok() || !ext2.ok()) {
      return fail("decode", base_corpus.status());
    }
    base.reset();
    refreshed.reset();
    rebuilt.reset();
    const double heap_before = HeapBytes();
    Result<Snapshot::Ptr> b = [&] {
      Span span(true, "core.snapshot.build");
      return Snapshot::Build(std::move(base_corpus).value(), {});
    }();
    if (!b.ok()) return fail("snapshot build", b.status());
    base = b.value();
    ledger.Add("core.snapshot.relationships",
               static_cast<double>(Relationships(*base)));
    ledger.Add("core.snapshot.bytes_per_rel",
               (HeapBytes() - heap_before) /
                   static_cast<double>(std::max<std::size_t>(
                       1, Relationships(*base))));
    Result<Snapshot::Ptr> r = [&] {
      Span span(true, "core.snapshot.refresh");
      return Snapshot::BuildIncremental(*base, std::move(ext1).value(), {});
    }();
    if (!r.ok()) return fail("snapshot refresh", r.status());
    refreshed = r.value();
    Result<Snapshot::Ptr> full = [&] {
      Span span(true, "core.snapshot.rebuild");
      return Snapshot::Build(std::move(ext2).value(), {});
    }();
    if (!full.ok()) return fail("snapshot rebuild", full.status());
    rebuilt = full.value();
  }

  // core.snapshot point lookups and page scans, in-process.
  SeedStream targets(seed);
  const std::size_t n = rebuilt->num_observations();
  for (std::size_t i = 0; i < 512; ++i) {
    const qb::ObsId t = static_cast<qb::ObsId>(targets.Below(n));
    bool ok = true;
    {
      Span span(true, "core.snapshot.lookup");
      switch (i % 4) {
        case 0: ok = rebuilt->Containers(t, Deadline()).ok(); break;
        case 1: ok = rebuilt->Contained(t, Deadline()).ok(); break;
        case 2: ok = rebuilt->Complements(t, Deadline()).ok(); break;
        default:
          ok = rebuilt->PartiallyContained(t, 0.5, Deadline()).ok();
          break;
      }
    }
    if (!ok) report->Mismatch("probe lookup failed");
  }
  for (int i = 0; i < 3; ++i) {
    PageSink page;
    {
      Span span(true, "core.snapshot.scan_page");
      st = rebuilt->ScanAll(&page, Deadline());
    }
    if (!st.ok() || page.size() != kPageLimit) {
      report->Mismatch("probe page ScanAll failed");
    }
  }

  // server.store: publication swaps (both snapshots stay referenced, so no
  // destructor runs inside the call).
  server::SnapshotStore store;
  for (int i = 0; i < 64; ++i) {
    Span span(true, "server.store.publish");
    store.Publish(i % 2 == 0 ? base : refreshed);
  }

  // server.protocol: the point and page-scan messages the workloads send.
  {
    const server::Request req = PointRequest(0, 0);
    server::Response resp;
    Result<std::vector<qb::ObsId>> ids = rebuilt->Containers(0, Deadline());
    if (ids.ok()) resp.ids = ids.value();
    resp.snapshot_version = rebuilt->version();
    for (int i = 0; i < 256; ++i) {
      if (!CodecRoundTrip(req, resp, "server.protocol.point_codec")) {
        report->Mismatch("probe point codec round trip");
      }
    }
    ledger.Add("server.protocol.point_bytes",
               static_cast<double>(server::EncodeResponse(resp).size()));
  }
  {
    const server::Request req = ScanRequest();
    server::Response resp;
    for (std::size_t i = 0; i < kPageLimit; ++i) {
      resp.records.push_back({'P', static_cast<qb::ObsId>(i),
                              static_cast<qb::ObsId>(i + 1), 0.5});
    }
    for (int i = 0; i < 32; ++i) {
      if (!CodecRoundTrip(req, resp, "server.protocol.scan_codec")) {
        report->Mismatch("probe scan codec round trip");
      }
    }
    ledger.Add("server.protocol.scan_bytes",
               static_cast<double>(server::EncodeResponse(resp).size()));
  }

  ProbeServer(rebuilt, Mix64(seed), report);
}

// --- TracedRun ---------------------------------------------------------------

namespace {

// Point ops in the rotation, by wire name.
const char* const kPointOps[] = {"containers", "contained", "complements",
                                 "partial"};

struct HistogramDelta {
  uint64_t count = 0;
  double sum = 0.0;
  double Mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

HistogramDelta Delta(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after,
                     const std::string& name) {
  HistogramDelta d;
  for (const obs::HistogramSample& h : after.histograms) {
    if (h.name == name) {
      d.count += h.count;
      d.sum += h.sum;
    }
  }
  for (const obs::HistogramSample& h : before.histograms) {
    if (h.name == name) {
      d.count -= h.count;
      d.sum -= h.sum;
    }
  }
  return d;
}

uint64_t CounterDelta(const obs::MetricsSnapshot& before,
                      const obs::MetricsSnapshot& after,
                      const std::string& name) {
  uint64_t v = 0;
  for (const obs::CounterSample& c : after.counters) {
    if (c.name == name) v += c.value;
  }
  for (const obs::CounterSample& c : before.counters) {
    if (c.name == name) v -= c.value;
  }
  return v;
}

// Each op span's direct children (the layer spans) plus its self time must
// equal its duration; a span lost to the ring breaks the sum.
void CheckOpSpans(const std::vector<obs::SpanEvent>& spans, Report* report) {
  std::unordered_map<uint64_t, uint64_t> child_us;
  for (const obs::SpanEvent& e : spans) {
    if (e.parent_id != 0) child_us[e.parent_id] += e.duration_us;
  }
  std::size_t ops = 0;
  for (const obs::SpanEvent& e : spans) {
    if (e.name.rfind("op.", 0) != 0) continue;
    ++ops;
    const uint64_t children = child_us[e.span_id];
    if (children == 0 || children + e.self_us != e.duration_us) {
      report->Mismatch("span " + e.name + " #" + std::to_string(e.span_id) +
                       ": layers " + std::to_string(children) +
                       " us + unattributed " + std::to_string(e.self_us) +
                       " us != wall " + std::to_string(e.duration_us) + " us");
    }
  }
  if (ops == 0) report->Mismatch("traced run recorded no op spans");
}

}  // namespace

TracedRun::TracedRun()
    : before_(obs::MetricsRegistry::Global().Snapshot()) {}

void TracedRun::EnableCollector() {
  obs::TraceCollector::Global().Enable(1 << 17);
}

void TracedRun::Finish(const Args& args, const std::vector<double>& untraced,
                       const std::vector<double>& traced, Report* report) {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  collector.Disable();
  const std::vector<obs::SpanEvent> spans = collector.Snapshot();
  if (collector.dropped() != 0) {
    report->Mismatch(std::to_string(collector.dropped()) +
                     " spans lost to ring overwrites");
  }
  CheckOpSpans(spans, report);
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out, std::ios::trunc);
    out << collector.ChromeTraceJson();
    if (!out) report->Mismatch("cannot write " + args.trace_out);
  }

  const Ledger& ledger = Ledger::Get();
  report->Set("qb.decode_ms", ledger.Median("qb.decode"), "ms");
  report->Set("core.lattice.build_ms", ledger.Median("core.lattice.build"),
              "ms");
  report->Set("core.lattice.cubes", ledger.Median("core.lattice.cubes"),
              "count");
  report->Set("core.masking.run_ms", ledger.Median("core.masking.run"), "ms");
  for (const char* count :
       {"cube_pairs_checked", "cube_pairs_comparable", "obs_pairs_compared",
        "emitted"}) {
    const std::string key = std::string("core.masking.") + count;
    report->Set(key, ledger.Median(key), "count");
  }
  const double checked = ledger.Sum("core.masking.cube_pairs_checked");
  const double compared = ledger.Sum("core.masking.obs_pairs_compared");
  report->Set("core.masking.comparable_ratio",
              ledger.Sum("core.masking.cube_pairs_comparable") / checked,
              "ratio");
  report->Set("core.masking.emit_ratio",
              ledger.Sum("core.masking.emitted") / compared, "ratio");
  report->Set("core.masking.ns_per_pair",
              ledger.Sum("core.masking.run") * 1e6 / compared, "ns");

  report->Set("core.snapshot.build_ms", ledger.Median("core.snapshot.build"),
              "ms");
  report->Set("core.snapshot.relationships",
              ledger.Median("core.snapshot.relationships"), "count");
  report->Set("core.snapshot.bytes_per_rel",
              ledger.Median("core.snapshot.bytes_per_rel"), "bytes");
  report->Set("core.snapshot.lookup_us",
              ledger.Median("core.snapshot.lookup") * 1e3, "us");
  report->Set("core.snapshot.scan_page_ms",
              ledger.Median("core.snapshot.scan_page"), "ms");
  const double refresh = ledger.Median("core.snapshot.refresh");
  const double rebuild = ledger.Median("core.snapshot.rebuild");
  report->Set("core.snapshot.refresh_ms", refresh, "ms");
  report->Set("core.snapshot.rebuild_ms", rebuild, "ms");
  report->Set("core.snapshot.refresh_vs_rebuild", refresh / rebuild, "ratio");

  report->Set("server.store.publish_us",
              ledger.Median("server.store.publish") * 1e3, "us");
  report->Set("server.protocol.point_codec_us",
              ledger.Median("server.protocol.point_codec") * 1e3, "us");
  report->Set("server.protocol.scan_codec_us",
              ledger.Median("server.protocol.scan_codec") * 1e3, "us");
  report->Set("server.protocol.point_bytes",
              ledger.Median("server.protocol.point_bytes"), "bytes");
  report->Set("server.protocol.scan_bytes",
              ledger.Median("server.protocol.scan_bytes"), "bytes");

  // server: handling time and queue wait as deltas of the server's own
  // histograms over this run; every server has stopped, so each request's
  // epilogue has run.
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  HistogramDelta point_handle;
  std::vector<double> point_rtt;
  for (const char* op : kPointOps) {
    const HistogramDelta d = Delta(
        before_, after, std::string("rdfcube_server_") + op + "_latency_us");
    report->Set(std::string("server.handle_us.") + op, d.Mean(), "us");
    point_handle.count += d.count;
    point_handle.sum += d.sum;
    for (double ms : ledger.Values(std::string("server.client.") + op)) {
      point_rtt.push_back(ms);
    }
  }
  report->Set("server.handle_us.scan",
              Delta(before_, after, "rdfcube_server_scan_latency_us").Mean(),
              "us");
  report->Set("server.queue_wait_us",
              Delta(before_, after, "rdfcube_server_queue_wait_us").Mean(),
              "us");
  report->Set("server.transport_us",
              Quantile(point_rtt, 0.5) * 1e3 - point_handle.Mean(), "us");
  uint64_t per_op_sum = 0;
  for (const char* op : {"ping", "containers", "contained", "complements",
                         "partial", "scan", "stats", "metrics", "slowlog",
                         "tracedump"}) {
    per_op_sum += CounterDelta(before_, after, std::string("rdfcube_server_") +
                                                   op + "_requests_total");
  }
  const uint64_t total =
      CounterDelta(before_, after, "rdfcube_server_requests_total");
  if (per_op_sum != total) {
    report->Mismatch("per-op request deltas sum to " +
                     std::to_string(per_op_sum) + ", requests_total moved " +
                     std::to_string(total));
  }
  report->Set("server.requests_total", static_cast<double>(per_op_sum),
              "count");
  report->Set("server.cap_scans_failed",
              static_cast<double>(report->Class("scan_cap", false).failed),
              "count");

  report->Set("obs.trace_overhead_pct",
              (Quantile(traced, 0.5) / Quantile(untraced, 0.5) - 1.0) * 100.0,
              "%");
}

}  // namespace perfbench
