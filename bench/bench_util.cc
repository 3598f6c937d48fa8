#include "bench/bench_util.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "datagen/realworld.h"
#include "datagen/synthetic.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "qb/exporter.h"

namespace rdfcube {
namespace benchutil {

bool LargeMode() {
  const char* env = std::getenv("RDFCUBE_BENCH_LARGE");
  return env != nullptr && env[0] == '1';
}

bool SmokeMode() {
  const char* env = std::getenv("RDFCUBE_BENCH_SMOKE");
  return env != nullptr && env[0] == '1';
}

std::vector<std::size_t> NativeSweepSizes() {
  if (SmokeMode()) return {500, 1000};
  if (LargeMode()) {
    // The paper's sweep: 2k, then 20k..250k in 20k-40k steps.
    return {2000, 20000, 60000, 100000, 150000, 200000, 250000};
  }
  return {2000, 5000, 10000, 20000};
}

std::vector<std::size_t> ComparisonSweepSizes() {
  if (SmokeMode()) return {50, 100};
  if (LargeMode()) return {100, 300, 1000, 3000};
  return {100, 300, 600};
}

double ComparisonTimeoutSeconds() {
  if (SmokeMode()) return 5.0;
  return LargeMode() ? 300.0 : 20.0;
}

namespace {

// The display reporter, wrapped so that every google-benchmark run it
// prints also lands in the report's stats: `bm.<run name>.real_ms` (real
// time per iteration) and `bm.<run name>.<counter>` for each user counter.
// Failed runs and complexity fits carry no timing and are left out.
class RecordingReporter : public benchmark::BenchmarkReporter {
 public:
  RecordingReporter()
      : display_(benchmark::CreateDefaultDisplayReporter()) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    display_->ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.report_big_o || run.report_rms) continue;
      const std::string key = "bm." + run.benchmark_name();
      if (run.aggregate_unit == benchmark::kTime) {
        stats_.emplace_back(key + ".real_ms",
                            run.GetAdjustedRealTime() * 1e3 /
                                benchmark::GetTimeUnitMultiplier(run.time_unit));
      }
      for (const auto& [counter, value] : run.counters) {
        stats_.emplace_back(key + "." + counter, value.value);
      }
    }
  }

  void Finalize() override { display_->Finalize(); }

  const std::vector<std::pair<std::string, double>>& stats() const {
    return stats_;
  }

 private:
  std::unique_ptr<benchmark::BenchmarkReporter> display_;
  std::vector<std::pair<std::string, double>> stats_;
};

}  // namespace

int RunBenchMain(const std::string& name, int argc, char** argv,
                 const std::function<void()>& epilogue,
                 const std::function<void(obs::RunReport*)>& decorate) {
  benchmark::Initialize(&argc, argv);
  RecordingReporter reporter;

  // Fresh observability state per process: the report should describe this
  // run only, not whatever static initialization touched the registry.
  obs::MetricsRegistry::Global().ResetAll();
  obs::TraceCollector::Global().Enable();
  uint64_t root_id = 0;
  {
    obs::TraceSpan root("bench/" + name);
    root_id = root.id();
    benchmark::RunSpecifiedBenchmarks(&reporter);
    if (epilogue) epilogue();
  }
  obs::TraceCollector::Global().Disable();

  obs::RunReport report(name);
  report.AddMeta("large_mode", LargeMode() ? "1" : "0");
  report.AddMeta("smoke_mode", SmokeMode() ? "1" : "0");
  report.CaptureMetrics();
  report.CapturePhases(root_id);
  for (const auto& [key, value] : reporter.stats()) report.AddStat(key, value);
  if (decorate) decorate(&report);

  const char* out_dir = std::getenv("RDFCUBE_BENCH_OUT_DIR");
  std::string path = (out_dir != nullptr && out_dir[0] != '\0') ? out_dir : ".";
  path += "/BENCH_" + name + ".json";
  const Status st = obs::WriteRunReportJson(report, path);
  if (!st.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("BENCH report: %s\n", path.c_str());
  benchmark::Shutdown();
  return 0;
}

const qb::Corpus& RealWorldPrefix(std::size_t n) {
  static std::map<std::size_t, qb::Corpus>* cache =
      new std::map<std::size_t, qb::Corpus>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    auto corpus = datagen::GenerateRealWorldPrefix(n, /*seed=*/42);
    if (!corpus.ok()) {
      std::fprintf(stderr, "corpus generation failed: %s\n",
                   corpus.status().ToString().c_str());
      std::abort();
    }
    it = cache->emplace(n, std::move(*corpus)).first;
  }
  return it->second;
}

const qb::Corpus& Synthetic(std::size_t n) {
  static std::map<std::size_t, qb::Corpus>* cache =
      new std::map<std::size_t, qb::Corpus>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    datagen::SyntheticOptions options;
    options.num_observations = n;
    auto corpus = datagen::GenerateSyntheticCorpus(options);
    if (!corpus.ok()) {
      std::fprintf(stderr, "synthetic generation failed: %s\n",
                   corpus.status().ToString().c_str());
      std::abort();
    }
    it = cache->emplace(n, std::move(*corpus)).first;
  }
  return it->second;
}

const rdf::TripleStore& RealWorldPrefixRdf(std::size_t n) {
  static std::map<std::size_t, rdf::TripleStore>* cache =
      new std::map<std::size_t, rdf::TripleStore>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    rdf::TripleStore store;
    const Status st = qb::ExportCorpusToRdf(RealWorldPrefix(n), &store);
    if (!st.ok()) {
      std::fprintf(stderr, "export failed: %s\n", st.ToString().c_str());
      std::abort();
    }
    it = cache->emplace(n, std::move(store)).first;
  }
  return it->second;
}

namespace {

double RatioOr1(std::size_t hits, std::size_t total) {
  if (total == 0) return 1.0;
  return static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace

Recall ComputeRecall(core::CollectingSink* truth, core::CollectingSink* lossy) {
  truth->Canonicalize();
  lossy->Canonicalize();
  Recall recall;
  {
    std::set<std::pair<qb::ObsId, qb::ObsId>> found(lossy->full().begin(),
                                                    lossy->full().end());
    std::size_t hits = 0;
    for (const auto& p : truth->full()) hits += found.count(p);
    recall.full = RatioOr1(hits, truth->full().size());
  }
  {
    std::set<std::pair<qb::ObsId, qb::ObsId>> found(
        lossy->complementary().begin(), lossy->complementary().end());
    std::size_t hits = 0;
    for (const auto& p : truth->complementary()) hits += found.count(p);
    recall.complementary = RatioOr1(hits, truth->complementary().size());
  }
  {
    std::set<std::pair<qb::ObsId, qb::ObsId>> found;
    for (const auto& p : lossy->partial()) found.insert({p.a, p.b});
    std::size_t hits = 0;
    for (const auto& p : truth->partial()) hits += found.count({p.a, p.b});
    recall.partial = RatioOr1(hits, truth->partial().size());
  }
  return recall;
}

}  // namespace benchutil
}  // namespace rdfcube
