// serve: interactive reads over a published cube. One client in a closed
// loop (Client allows one outstanding request per connection) sends point
// lookups that rotate containers, contained, complements and partial over
// uniformly drawn targets; every 64th request is a page scan. The masking
// kernel never runs after set-up, so this workload isolates the snapshot
// read side, the protocol and the server.

#include <map>
#include <optional>
#include <utility>

#include "core/explorer.h"
#include "core/snapshot.h"
#include "perfbench/layers.h"
#include "perfbench/serving.h"
#include "perfbench/workloads.h"
#include "qb/binary_io.h"

namespace perfbench {
namespace {

using rdfcube::Result;
using Snapshot = core::RelationshipSnapshot;

constexpr std::size_t kObservations = 2000;
constexpr std::size_t kCycle = 64;          // 63 point lookups + 1 page scan
constexpr double kCyclesPerSecond = 15.6;   // 312 cycles at --seconds 20
constexpr int kSetupReps = 5;
constexpr int kCapScans = 3;

// Decodes the corpus, builds and serves its snapshot, connects, and runs one
// warm-up cycle: everything a user does before the first real request.
Result<std::unique_ptr<ServerHandle>> SetUp(const std::string& bytes,
                                            SeedStream* targets,
                                            bool traced) {
  Result<qb::Corpus> corpus = [&] {
    Span span(traced, "qb.decode");
    return qb::DeserializeCorpus(bytes);
  }();
  if (!corpus.ok()) return corpus.status();
  Snapshot::BuildOptions options;
  options.version = 1;
  Result<Snapshot::Ptr> snap = [&] {
    Span span(traced, "core.snapshot.build");
    return Snapshot::Build(std::move(corpus).value(), options);
  }();
  if (!snap.ok()) return snap.status();
  auto handle = std::make_unique<ServerHandle>();
  const rdfcube::Status st = handle->Start(snap.value());
  if (!st.ok()) return st;
  for (std::size_t i = 0; i < kCycle; ++i) {
    const server::Request req =
        i + 1 == kCycle ? ScanRequest()
                        : PointRequest(i, static_cast<qb::ObsId>(
                                              targets->Below(kObservations)));
    if (!Succeeded(handle->client().Call(req))) {
      return rdfcube::Status::Internal("warm-up request failed");
    }
  }
  return handle;
}

}  // namespace

void RunServe(const Args& args, Report* report) {
  const std::size_t cycles = OpCount(args.seconds, kCyclesPerSecond);
  OpClass& point = report->Class("point");
  OpClass& scan = report->Class("scan");
  Result<std::string> bytes =
      GenerateCorpusBytes(kObservations, Mix64(args.seed));
  if (!bytes.ok()) {
    report->Mismatch("input: " + bytes.status().ToString());
    return;
  }
  SeedStream warmup_targets(Mix64(args.seed + 1));
  SeedStream targets(Mix64(args.seed + 2));

  std::optional<TracedRun> traced_run;
  if (args.trace) traced_run.emplace();
  // Set-up is timed kSetupReps times and reported as the median. Only the
  // first repetition runs before the timed loop; the others run after the
  // peak-RSS reading, so peak_rss_mb holds one set-up's memory rather than
  // what earlier torn-down repetitions left in the heap.
  std::vector<double> setup_s;
  auto set_up = [&]() -> std::unique_ptr<ServerHandle> {
    const Instant start = Instant::Now();
    Result<std::unique_ptr<ServerHandle>> h =
        SetUp(bytes.value(), &warmup_targets, args.trace);
    setup_s.push_back(Since(start).cpu_ms / 1e3);
    if (!h.ok()) {
      report->Mismatch("set-up: " + h.status().ToString());
      return nullptr;
    }
    return std::move(h).value();
  };
  std::unique_ptr<ServerHandle> handle = set_up();
  if (handle == nullptr) return;

  // Timed closed loop. Answers are kept as digests and checked afterwards.
  struct PointAnswer {
    server::Request req;
    uint64_t digest;
  };
  std::vector<PointAnswer> answers;
  std::map<std::vector<uint64_t>, std::size_t> pages;  // distinct pages seen
  std::vector<double> halves[2];
  const std::size_t total = cycles * kCycle;
  for (std::size_t i = 0; i < total; ++i) {
    const bool second_half = args.trace && i >= total / 2;
    if (second_half && i == total / 2) traced_run->EnableCollector();
    const bool is_scan = i % kCycle == kCycle - 1;
    server::Request req = ScanRequest();
    if (!is_scan) {
      req = PointRequest(i - i / kCycle,
                         static_cast<qb::ObsId>(targets.Below(kObservations)));
    }
    const Instant start = Instant::Now();
    Result<server::Response> resp = [&] {
      Span op(args.trace, is_scan ? "op.scan" : "op.point");
      Span call(args.trace, ClientSpan(req.op));
      return handle->client().Call(req);
    }();
    const Took took = Since(start);
    OpClass& cls = is_scan ? scan : point;
    ++cls.attempted;
    if (!Succeeded(resp)) {
      ++cls.failed;
      continue;
    }
    if (is_scan) {
      bool distinct = false;
      std::vector<uint64_t> keys = PageKeys(resp.value(), &distinct);
      if (!distinct || keys.size() != kPageLimit) {
        ++scan.failed;
        report->Mismatch("page scan returned " + std::to_string(keys.size()) +
                         (distinct ? " records" : " records with repeats"));
        continue;
      }
      ++pages[std::move(keys)];
    } else {
      answers.push_back({req, AnswerDigest(resp.value())});
      halves[second_half ? 1 : 0].push_back(took.wall_ms);
    }
    cls.Add(took);
  }
  const double peak_rss_mb = PeakRssMb();

  // Server-cap scans (limit 0, what `rdfcube_cli query scan` sends without
  // --limit): a known defect makes them fail today, so they form their own
  // uncounted class.
  OpClass& cap = report->Class("scan_cap", /*counted=*/false);
  for (int i = 0; i < (args.trace ? 0 : kCapScans); ++i) {
    ++cap.attempted;
    if (!Succeeded(handle->client().Call(ScanRequest(0)))) ++cap.failed;
  }
  handle->Stop();
  handle.reset();
  for (int rep = 1; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    std::unique_ptr<ServerHandle> extra = set_up();
    if (extra == nullptr) return;
    extra->Stop();
  }

  // Oracle: CubeExplorer for point answers, the baseline engine's set for
  // page records.
  Result<qb::Corpus> corpus = qb::DeserializeCorpus(bytes.value());
  if (!corpus.ok()) {
    report->Mismatch("oracle decode: " + corpus.status().ToString());
    return;
  }
  const core::CubeExplorer explorer(corpus.value().observations.get());
  std::map<std::pair<int, qb::ObsId>, uint64_t> expected;
  for (const PointAnswer& a : answers) {
    const auto key = std::make_pair(static_cast<int>(a.req.op), a.req.target);
    auto it = expected.find(key);
    if (it == expected.end()) {
      it = expected.emplace(key, ExpectedDigest(explorer, a.req)).first;
    }
    if (it->second != a.digest) {
      ++point.failed;
      report->Mismatch(std::string("point ") +
                       server::OpName(a.req.op) + " of " +
                       std::to_string(a.req.target) +
                       " differs from CubeExplorer");
    }
  }
  std::vector<uint64_t> all;
  Result<Fingerprint> oracle = OracleFingerprint(bytes.value(), true, &all);
  if (!oracle.ok()) report->Mismatch("oracle: " + oracle.status().ToString());
  for (const auto& [page, count] : pages) {
    if (!PageWithin(page, all)) {
      scan.failed += count;
      report->Mismatch("page scan returned records outside the set");
    }
  }

  if (args.trace) {
    ProbeLayers(bytes.value(), kObservations * 1000 / 1028, args.seed, report);
    traced_run->Finish(args, halves[0], halves[1], report);
    return;
  }
  report->SetLatency("op", point);
  report->SetLatency("scan", scan);
  report->Set("setup_s", Quantile(setup_s, 0.5), "s");
  report->Set("peak_rss_mb", peak_rss_mb, "MiB");
}

}  // namespace perfbench
