// refresh: writes beside the reads. A served snapshot of a 1,000-observation
// base corpus is reloaded with the base extended by 28 observations (~2.5%),
// which takes the copy-on-write BuildIncremental path, and a page scan then
// reads the refreshed data. Before each op the base is published again,
// outside the clock, so every op refreshes the same base. Each op appends
// its own 28 observations, drawn from one seeded pool, so no op repeats.

#include <algorithm>
#include <optional>
#include <utility>

#include "core/snapshot.h"
#include "obs/metrics.h"
#include "perfbench/layers.h"
#include "perfbench/serving.h"
#include "perfbench/workloads.h"
#include "qb/binary_io.h"

namespace perfbench {
namespace {

using rdfcube::Deadline;
using rdfcube::Result;
using Snapshot = core::RelationshipSnapshot;

constexpr std::size_t kBase = 1000;
constexpr std::size_t kDelta = 28;
constexpr double kOpsPerSecond = 5.0;  // 100 ops at --seconds 20
constexpr int kSetupReps = 5;

uint64_t RefreshCount() {
  const rdfcube::obs::MetricsSnapshot snap =
      rdfcube::obs::MetricsRegistry::Global().Snapshot();
  for (const rdfcube::obs::CounterSample& c : snap.counters) {
    if (c.name == "rdfcube_core_snapshot_refreshes_total") return c.value;
  }
  return 0;
}

// Largest-remainder split of `total` across groups in proportion to `sizes`.
std::vector<std::size_t> Apportion(const std::vector<std::size_t>& sizes,
                                   std::size_t total) {
  std::size_t sum = 0;
  for (std::size_t c : sizes) sum += c;
  std::vector<std::size_t> quota(sizes.size());
  std::vector<std::pair<std::size_t, std::size_t>> remainder;  // (rem, group)
  std::size_t given = 0;
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    quota[d] = sizes[d] * total / sum;
    given += quota[d];
    remainder.emplace_back(sizes[d] * total % sum, d);
  }
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& x, const auto& y) {
              return x.first != y.first ? x.first > y.first
                                        : x.second < y.second;
            });
  for (std::size_t i = 0; given < total; ++i, ++given) {
    ++quota[remainder[i % remainder.size()].second];
  }
  return quota;
}

// The base corpus and its extensions, all cut from one generated pool. Both
// are drawn per dataset in the pool's proportions (observations chosen at
// random within a dataset), so the base's relationship count, and with it
// every op's cost, barely moves from seed to seed.
class Inputs {
 public:
  Inputs(uint64_t seed, std::size_t extensions) {
    const std::size_t n = kBase + kDelta * extensions;
    Result<std::string> pool = GenerateCorpusBytes(n, Mix64(seed));
    Result<qb::Corpus> corpus =
        pool.ok() ? qb::DeserializeCorpus(pool.value())
                  : Result<qb::Corpus>(pool.status());
    if (!corpus.ok()) return;
    pool_ = std::move(pool).value();
    const qb::ObservationSet& obs = *corpus.value().observations;
    std::vector<std::vector<qb::ObsId>> by_dataset(obs.num_datasets());
    for (qb::ObsId i = 0; i < obs.size(); ++i) {
      by_dataset[obs.obs(i).dataset].push_back(i);
    }
    SeedStream shuffle(Mix64(seed + 1));
    std::vector<std::size_t> sizes;
    for (std::vector<qb::ObsId>& ids : by_dataset) {
      for (std::size_t i = ids.size(); i > 1; --i) {
        std::swap(ids[i - 1], ids[shuffle.Below(i)]);
      }
      sizes.push_back(ids.size());
    }
    base_ids_ = Take(&by_dataset, Apportion(sizes, kBase));
    const std::vector<std::size_t> delta_quota = Apportion(sizes, kDelta);
    for (std::size_t k = 0; k < extensions; ++k) {
      deltas_.push_back(Take(&by_dataset, delta_quota));
    }
  }
  Result<std::string> Base() const { return SubCorpusBytes(pool_, base_ids_); }
  /// The base followed by extension `k`'s observations.
  Result<std::string> Extension(std::size_t k) const {
    if (k >= deltas_.size()) {
      return rdfcube::Status::OutOfRange("no extension " + std::to_string(k));
    }
    std::vector<qb::ObsId> ids = base_ids_;
    ids.insert(ids.end(), deltas_[k].begin(), deltas_[k].end());
    return SubCorpusBytes(pool_, ids);
  }

 private:
  // Pops quota[d] ids from the back of each dataset's list (any non-empty
  // list makes up a shortfall), returned in ascending id order.
  static std::vector<qb::ObsId> Take(
      std::vector<std::vector<qb::ObsId>>* by_dataset,
      const std::vector<std::size_t>& quota) {
    std::vector<qb::ObsId> out;
    std::size_t owed = 0;
    for (std::size_t d = 0; d < quota.size(); ++d) {
      std::vector<qb::ObsId>& ids = (*by_dataset)[d];
      for (std::size_t i = 0; i < quota[d]; ++i) {
        if (ids.empty()) {
          ++owed;
          continue;
        }
        out.push_back(ids.back());
        ids.pop_back();
      }
    }
    for (std::vector<qb::ObsId>& ids : *by_dataset) {
      for (; owed > 0 && !ids.empty(); --owed) {
        out.push_back(ids.back());
        ids.pop_back();
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::string pool_;
  std::vector<qb::ObsId> base_ids_;
  std::vector<std::vector<qb::ObsId>> deltas_;
};

// One reload of the served snapshot with the extended corpus `bytes`.
bool Reload(ServerHandle* handle, const std::string& bytes, bool traced) {
  Span op(traced, "op.refresh");
  Result<qb::Corpus> corpus = [&] {
    Span span(traced, "qb.decode");
    return qb::DeserializeCorpus(bytes);
  }();
  if (!corpus.ok()) return false;
  Span span(traced, "server.reload");
  return handle->server().Reload(std::move(corpus).value(), Deadline()).ok();
}

Result<server::Response> PageScan(ServerHandle* handle, bool traced) {
  Span op(traced, "op.scan");
  Span span(traced, ClientSpan(server::Op::kScan));
  return handle->client().Call(ScanRequest());
}

}  // namespace

void RunRefresh(const Args& args, Report* report) {
  const std::size_t n = OpCount(args.seconds, kOpsPerSecond);
  const int setup_reps = args.trace ? 1 : kSetupReps;
  OpClass& op = report->Class("refresh");
  OpClass& scan = report->Class("scan");
  const Inputs inputs(args.seed, n + setup_reps);
  Result<std::string> base_bytes = inputs.Base();
  if (!base_bytes.ok()) {
    report->Mismatch("input: " + base_bytes.status().ToString());
    return;
  }

  // Set-up: build and serve the base, connect, and run one warm-up reload
  // and page scan (on an extension no timed op uses). Timed kSetupReps
  // times and reported as the median; as in serve, only the first
  // repetition runs before the timed loop, so peak_rss_mb holds one
  // set-up's memory.
  std::optional<TracedRun> traced_run;
  if (args.trace) traced_run.emplace();
  std::vector<double> setup_s;
  std::unique_ptr<ServerHandle> handle;
  Snapshot::Ptr base;
  auto set_up = [&](int rep) -> bool {
    Result<std::string> warmup = inputs.Extension(n + rep);
    if (!warmup.ok()) {
      report->Mismatch("input: " + warmup.status().ToString());
      return false;
    }
    const Instant start = Instant::Now();
    Result<qb::Corpus> corpus = [&] {
      Span span(args.trace, "qb.decode");
      return qb::DeserializeCorpus(base_bytes.value());
    }();
    if (!corpus.ok()) {
      report->Mismatch("set-up: " + corpus.status().ToString());
      return false;
    }
    Snapshot::BuildOptions options;
    options.version = 1;
    Result<Snapshot::Ptr> snap = [&] {
      Span span(args.trace, "core.snapshot.build");
      return Snapshot::Build(std::move(corpus).value(), options);
    }();
    if (!snap.ok()) {
      report->Mismatch("set-up: " + snap.status().ToString());
      return false;
    }
    base = snap.value();
    handle = std::make_unique<ServerHandle>();
    rdfcube::Status st = handle->Start(base);
    if (st.ok() && (!Reload(handle.get(), warmup.value(), false) ||
                    !Succeeded(PageScan(handle.get(), false)))) {
      st = rdfcube::Status::Internal("warm-up reload or scan failed");
    }
    setup_s.push_back(Since(start).cpu_ms / 1e3);
    if (!st.ok()) report->Mismatch("set-up: " + st.ToString());
    return st.ok();
  };
  if (!set_up(0)) return;

  std::vector<Fingerprint> served(n);
  std::vector<std::vector<uint64_t>> page_keys(n);
  std::vector<double> halves[2];
  const uint64_t refreshes_before = RefreshCount();
  for (std::size_t k = 0; k < n; ++k) {
    Result<std::string> ext = inputs.Extension(k);
    if (!ext.ok()) {
      report->Mismatch("input: " + ext.status().ToString());
      return;
    }
    const bool second_half = args.trace && k >= n / 2;
    if (second_half && k == n / 2) traced_run->EnableCollector();
    {
      // Re-publish the base; the previous refresh is released after the
      // call, so Publish itself only swaps.
      Snapshot::Ptr previous = handle->server().store().Current();
      Span span(args.trace, "server.store.publish");
      handle->server().store().Publish(base);
    }

    ++op.attempted;
    const Instant start = Instant::Now();
    const bool reloaded = Reload(handle.get(), ext.value(), args.trace);
    const Took took = Since(start);
    if (!reloaded) {
      ++op.failed;
    } else {
      op.Add(took);
      halves[second_half ? 1 : 0].push_back(took.wall_ms);
    }

    ++scan.attempted;
    const Instant scan_start = Instant::Now();
    Result<server::Response> resp = PageScan(handle.get(), args.trace);
    const Took scan_took = Since(scan_start);
    bool distinct = false;
    if (Succeeded(resp)) {
      page_keys[k] = PageKeys(resp.value(), &distinct);
    }
    if (!distinct || page_keys[k].size() != kPageLimit) {
      ++scan.failed;
    } else {
      scan.Add(scan_took);
    }

    // What is now served: the refreshed snapshot, digested in full.
    const Snapshot::Ptr now = handle->server().store().Current();
    FingerprintSink sink;
    if (now == nullptr || now->version() != base->version() + 1 ||
        now->num_observations() != kBase + kDelta ||
        !now->ScanAll(&sink, Deadline()).ok()) {
      report->Mismatch("refresh " + std::to_string(k) +
                       " did not publish the extended corpus");
    }
    served[k] = sink.fingerprint();
  }
  const double peak_rss_mb = PeakRssMb();
  if (RefreshCount() - refreshes_before != n) {
    report->Mismatch("reloads did not all take the copy-on-write refresh path");
  }
  handle->Stop();
  handle.reset();
  for (int rep = 1; rep < setup_reps; ++rep) {
    if (!set_up(rep)) return;
    handle->Stop();
    handle.reset();
  }

  // Oracle: ComputeRelationships (cubeMasking) on each extended corpus.
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<uint64_t> all;
    Result<std::string> ext = inputs.Extension(k);
    Result<Fingerprint> want = ext.ok()
                                   ? OracleFingerprint(ext.value(), false, &all)
                                   : Result<Fingerprint>(ext.status());
    if (!want.ok() || !(want.value() == served[k])) {
      ++op.failed;
      report->Mismatch("refresh " + std::to_string(k) + ": served " +
                       served[k].ToString() + " vs engine " +
                       (want.ok() ? want.value().ToString()
                                  : want.status().ToString()));
    }
    if (!page_keys[k].empty() && !PageWithin(page_keys[k], all)) {
      ++scan.failed;
      report->Mismatch("page scan after refresh " + std::to_string(k) +
                       " returned records outside the relationship set");
    }
  }

  if (args.trace) {
    Result<std::string> ext = inputs.Extension(0);
    if (ext.ok()) ProbeLayers(ext.value(), kBase, args.seed, report);
    traced_run->Finish(args, halves[0], halves[1], report);
    return;
  }
  report->SetLatency("op", op);
  report->SetLatency("scan", scan);
  report->Set("setup_s", Quantile(setup_s, 0.5), "s");
  report->Set("peak_rss_mb", peak_rss_mb, "MiB");
}

}  // namespace perfbench
