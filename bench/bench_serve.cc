// Serving-path latency/throughput (DESIGN.md §6): an in-process
// rdfcube_serverd instance under a closed-loop client fleet, measuring the
// end-to-end RPC cost of the two serving workloads:
//
//   point/...   single-observation lookups (containers / contained /
//               complements / partial rotate per request) — the paper's
//               "which cubes relate to this one" interactive query.
//   scan/...    bulk relationship dumps (kScan with a record limit) — the
//               analytics export path, dominated by response encoding.
//
// Unlike the chaos soak (tests/server_soak_test.cc) nothing is fault
// injected and the admission queue is sized so nothing sheds: the numbers
// are the healthy-path baseline the robustness features degrade from.
// Exact percentiles are computed from the full per-request latency vector
// (no histogram buckets); per-request timing rides on obs::TraceSpan, so
// the same spans also land in the trace ring for span_rollup.
//
// BENCH_serve.json stats (schema in EXPERIMENTS.md): for each workload
// <w> in {point, scan}: <w>.p50_us, <w>.p99_us, <w>.qps, <w>.requests,
// <w>.errors; plus server.requests_total / server.shed_total /
// server.deadline_expired_total from the server's own counters, and the
// per-op RED attribution op.<op>.requests / op.<op>.mean_us for every wire
// op (delta of the rdfcube_server_<op>_* metrics over the run; the ops this
// bench never sends report zero), and the snapshot build's unit cost:
// build.ms (its own serve/build span inside serve/setup),
// build.relationships and build.ns_per_relationship. check_bench_json.sh
// asserts the op.* requests sum equals server.requests_total — the same
// conservation law the chaos soak enforces — and build.relationships equals
// the relationships the masking kernel emitted.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/snapshot.h"
#include "datagen/realworld.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace {

using namespace rdfcube;

struct WorkloadResult {
  std::vector<double> latencies_us;
  double qps = 0.0;
  uint64_t errors = 0;
};

// Wire-op identifiers, in protocol order (server/protocol.h OpName).
constexpr const char* kOpNames[] = {
    "ping",  "containers", "contained", "complements", "partial",
    "scan",  "stats",      "metrics",   "slowlog",     "tracedump"};
constexpr std::size_t kNumOps = sizeof(kOpNames) / sizeof(kOpNames[0]);

struct OpStat {
  uint64_t requests = 0;
  double mean_us = 0.0;
};

struct ServeRunStats {
  WorkloadResult point;
  WorkloadResult scan;
  uint64_t server_requests = 0;
  uint64_t server_sheds = 0;
  uint64_t server_deadline_expired = 0;
  OpStat per_op[kNumOps];
  double build_ms = 0.0;
  uint64_t build_relationships = 0;
  bool ran = false;
};

ServeRunStats g_stats;

uint64_t CounterValue(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const obs::HistogramSample* FindHistogram(const obs::MetricsSnapshot& snap,
                                          const std::string& name) {
  for (const obs::HistogramSample& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

/// Per-op RED attribution as the delta of the global rdfcube_server_<op>_*
/// metrics between two snapshots; ops whose metrics never registered (or
/// never moved) report zero.
void FillPerOpStats(const obs::MetricsSnapshot& before,
                    const obs::MetricsSnapshot& after, OpStat* out) {
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const std::string base = std::string("rdfcube_server_") + kOpNames[i];
    out[i].requests = CounterValue(after, base + "_requests_total") -
                      CounterValue(before, base + "_requests_total");
    const obs::HistogramSample* ha = FindHistogram(after, base + "_latency_us");
    const obs::HistogramSample* hb =
        FindHistogram(before, base + "_latency_us");
    const uint64_t count = (ha != nullptr ? ha->count : 0) -
                           (hb != nullptr ? hb->count : 0);
    const double sum =
        (ha != nullptr ? ha->sum : 0.0) - (hb != nullptr ? hb->sum : 0.0);
    out[i].mean_us = count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
}

/// Exact nearest-rank percentile over an unsorted latency vector.
double PercentileUs(std::vector<double>* latencies, double q) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  const double pos = q * static_cast<double>(latencies->size() - 1);
  const std::size_t idx = static_cast<std::size_t>(std::llround(pos));
  return (*latencies)[std::min(idx, latencies->size() - 1)];
}

/// One closed-loop client thread: `requests` RPCs built by `make_request`,
/// each timed individually. Latencies land in `out`; non-kOk responses and
/// transport errors count as errors (the queue is sized to admit everything,
/// so any error is a real regression, surfaced via the <w>.errors stat).
void ClientLoop(uint16_t port, std::size_t requests,
                const std::function<server::Request(std::size_t)>& make_request,
                std::vector<double>* out, std::atomic<uint64_t>* errors) {
  server::ClientOptions copts;
  copts.port = port;
  copts.request_timeout_seconds = 30.0;
  out->reserve(requests);
  server::Client client(copts);
  for (std::size_t i = 0; i < requests; ++i) {
    const server::Request req = make_request(i);
    obs::TraceSpan rpc("serve/rpc");
    const Result<server::Response> resp = client.Call(req);
    out->push_back(rpc.ElapsedSeconds() * 1e6);
    if (!resp.ok() || resp.value().code != server::RespCode::kOk) {
      errors->fetch_add(1, std::memory_order_relaxed);
    }
  }
}

WorkloadResult RunWorkload(
    const char* phase, uint16_t port, std::size_t num_threads,
    std::size_t requests_per_thread,
    const std::function<server::Request(std::size_t)>& make_request) {
  WorkloadResult result;
  std::vector<std::vector<double>> per_thread(num_threads);
  std::atomic<uint64_t> errors{0};
  obs::TraceSpan span(phase);
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back(ClientLoop, port, requests_per_thread, make_request,
                         &per_thread[t], &errors);
  }
  for (std::thread& th : threads) th.join();
  const double elapsed = span.ElapsedSeconds();
  span.End();
  for (std::vector<double>& v : per_thread) {
    result.latencies_us.insert(result.latencies_us.end(), v.begin(), v.end());
  }
  result.qps = elapsed > 0.0
                   ? static_cast<double>(result.latencies_us.size()) / elapsed
                   : 0.0;
  result.errors = errors.load(std::memory_order_relaxed);
  return result;
}

void RunServe() {
  std::size_t n = 2000, point_threads = 4, point_per_thread = 1500;
  std::size_t scan_threads = 2, scan_per_thread = 100;
  uint32_t scan_limit = 2000;
  if (benchutil::LargeMode()) {
    n = 20000;
    point_per_thread = 5000;
    scan_per_thread = 250;
  }
  if (benchutil::SmokeMode()) {
    n = 400;
    point_threads = 2;
    point_per_thread = 150;
    scan_per_thread = 15;
    scan_limit = 500;
  }

  server::ServerOptions sopts;
  sopts.num_workers = 4;
  // Closed-loop clients never have more than `threads` requests in flight,
  // so no loop ever decodes more than that in one wakeup; this bound
  // guarantees zero shedding (asserted via the server.shed_total stat) so
  // latencies measure evaluation, not backoff.
  sopts.max_queue = 256;
  sopts.default_deadline_seconds = 30.0;
  sopts.max_deadline_seconds = 60.0;
  server::Server srv(sopts);
  {
    obs::TraceSpan setup("serve/setup");
    Result<qb::Corpus> corpus = datagen::GenerateRealWorldPrefix(n, 42);
    if (!corpus.ok()) {
      std::fprintf(stderr, "corpus generation failed: %s\n",
                   corpus.status().ToString().c_str());
      std::abort();
    }
    core::RelationshipSnapshot::BuildOptions bopts;
    bopts.version = 1;
    obs::TraceSpan build("serve/build");
    auto snap =
        core::RelationshipSnapshot::Build(std::move(corpus.value()), bopts);
    g_stats.build_ms = build.ElapsedSeconds() * 1e3;
    build.End();
    if (!snap.ok()) {
      std::fprintf(stderr, "snapshot build failed: %s\n",
                   snap.status().ToString().c_str());
      std::abort();
    }
    const core::RelationshipSnapshot& built = *snap.value();
    g_stats.build_relationships =
        built.num_full() + built.num_partial() + built.num_complementary();
    const Status st = srv.Start(std::move(snap.value()));
    if (!st.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }

  const uint32_t num_obs = static_cast<uint32_t>(n);
  const obs::MetricsSnapshot metrics_before =
      obs::MetricsRegistry::Global().Snapshot();
  g_stats.point = RunWorkload(
      "serve/point_lookup", srv.port(), point_threads, point_per_thread,
      [num_obs](std::size_t i) {
        server::Request req;
        switch (i % 4) {
          case 0: req.op = server::Op::kContainers; break;
          case 1: req.op = server::Op::kContained; break;
          case 2: req.op = server::Op::kComplements; break;
          default:
            req.op = server::Op::kPartial;
            req.min_degree = 0.5;
            break;
        }
        req.target = static_cast<uint32_t>(i * 7919) % num_obs;
        return req;
      });
  g_stats.scan = RunWorkload("serve/bulk_scan", srv.port(), scan_threads,
                             scan_per_thread, [scan_limit](std::size_t) {
                               server::Request req;
                               req.op = server::Op::kScan;
                               req.limit = scan_limit;
                               return req;
                             });

  {
    obs::TraceSpan drain("serve/drain");
    srv.Stop();
  }
  // Tallies are read after Stop() joins the event loops: a request's per-op
  // counter ticks in the post-send epilogue, so an earlier read could
  // undercount the op.* side of the conservation law.
  g_stats.server_requests = srv.requests_total();
  g_stats.server_sheds = srv.shed_total();
  g_stats.server_deadline_expired = srv.deadline_expired_total();
  const obs::MetricsSnapshot metrics_after =
      obs::MetricsRegistry::Global().Snapshot();
  FillPerOpStats(metrics_before, metrics_after, g_stats.per_op);
  g_stats.ran = true;
}

void Decorate(obs::RunReport* report) {
  if (!g_stats.ran) return;
  auto add_workload = [report](const char* prefix, WorkloadResult* w) {
    const std::string p(prefix);
    report->AddStat(p + ".requests",
                    static_cast<double>(w->latencies_us.size()));
    report->AddStat(p + ".errors", static_cast<double>(w->errors));
    report->AddStat(p + ".p50_us", PercentileUs(&w->latencies_us, 0.50));
    report->AddStat(p + ".p99_us", PercentileUs(&w->latencies_us, 0.99));
    report->AddStat(p + ".qps", w->qps);
  };
  add_workload("point", &g_stats.point);
  add_workload("scan", &g_stats.scan);
  report->AddStat("server.requests_total",
                  static_cast<double>(g_stats.server_requests));
  report->AddStat("server.shed_total",
                  static_cast<double>(g_stats.server_sheds));
  report->AddStat("server.deadline_expired_total",
                  static_cast<double>(g_stats.server_deadline_expired));
  const double relationships =
      static_cast<double>(g_stats.build_relationships);
  report->AddStat("build.ms", g_stats.build_ms);
  report->AddStat("build.relationships", relationships);
  report->AddStat("build.ns_per_relationship",
                  relationships > 0.0 ? g_stats.build_ms * 1e6 / relationships
                                      : 0.0);
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const std::string p = std::string("op.") + kOpNames[i];
    report->AddStat(p + ".requests",
                    static_cast<double>(g_stats.per_op[i].requests));
    report->AddStat(p + ".mean_us", g_stats.per_op[i].mean_us);
  }
}

}  // namespace

void BM_Serve(benchmark::State& state) {
  for (auto _ : state) RunServe();
}

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark("serve/run", BM_Serve)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
  const int rc = benchutil::RunBenchMain("serve", argc, argv, nullptr,
                                         Decorate);
  if (rc != 0) return rc;
  const uint64_t errors = g_stats.point.errors + g_stats.scan.errors;
  if (errors > 0) {
    std::fprintf(stderr, "serve bench saw %llu request errors\n",
                 static_cast<unsigned long long>(errors));
    return 1;
  }
  return 0;
}
