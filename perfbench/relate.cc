// relate: the paper's batch computation, as `rdfcube_cli relate` runs it.
// Each op decodes a corpus no other op sees and computes all three
// relationship types with default EngineOptions (cubeMasking). About 98% of
// an op is the masking kernel, so this is where kernel work shows.

#include <algorithm>
#include <optional>

#include "core/engine.h"
#include "core/lattice.h"
#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "qb/binary_io.h"

namespace perfbench {
namespace {

using rdfcube::Result;
using rdfcube::Status;

constexpr std::size_t kObservations = 2000;
constexpr double kOpsPerSecond = 10.0;  // 200 ops at --seconds 20
constexpr int kSetupReps = 5;
constexpr int kWarmupOps = 2;
// Ops checked against the baseline engine, which takes about five ops' time
// per corpus: checking every op would not fit a run's time limit.
constexpr std::size_t kCheckedOps = 4;
constexpr std::size_t kTracedCheckedOps = 16;

// Op `index`'s corpus seed: every op and warm-up op gets its own corpus.
uint64_t CorpusSeed(uint64_t seed, std::size_t index) {
  return Mix64(seed ^ Mix64(index + 1));
}

struct OpResult {
  bool ok = false;
  Took op;
  Took page;
  Fingerprint fp;
};

// One op. Timed runs call the engine's single entry point; traced runs call
// the same two steps it runs (lattice, then masking) each inside a Span.
OpResult RelateOp(const std::string& bytes, bool traced, Report* report) {
  OpResult r;
  FingerprintSink sink(kPageLimit);
  const Instant start = Instant::Now();
  {
    Span op(traced, "op.relate");
    Result<qb::Corpus> corpus = [&] {
      Span span(traced, "qb.decode");
      return qb::DeserializeCorpus(bytes);
    }();
    if (!corpus.ok()) return r;
    const qb::ObservationSet& obs = *corpus.value().observations;
    Status st;
    if (!traced) {
      st = core::ComputeRelationships(obs, core::EngineOptions{}, &sink);
    } else {
      std::optional<core::Lattice> lattice;
      {
        Span span(true, "core.lattice.build");
        lattice.emplace(obs);
      }
      core::CubeMaskingStats stats;
      {
        Span span(true, "core.masking.run");
        st = core::RunCubeMasking(obs, *lattice, core::CubeMaskingOptions{},
                                  &sink, &stats);
      }
      Ledger::Get().Add("core.lattice.cubes",
                        static_cast<double>(lattice->num_cubes()));
      RecordFunnel(stats, sink.fingerprint().count, report);
    }
    if (!st.ok()) return r;
  }
  r.ok = true;
  r.op = Since(start);
  // A corpus with fewer than a page of relationships ends its page at the
  // op's end.
  r.page = sink.fingerprint().count >= kPageLimit
               ? Between(start, sink.page_full_at())
               : r.op;
  r.fp = sink.fingerprint();
  return r;
}

}  // namespace

void RunRelate(const Args& args, Report* report) {
  const std::size_t n = OpCount(args.seconds, kOpsPerSecond);
  OpClass& op = report->Class("relate");
  OpClass& page = report->Class("scan");
  auto corpus = [&](std::size_t index) {
    Result<std::string> bytes =
        GenerateCorpusBytes(kObservations, CorpusSeed(args.seed, index));
    if (!bytes.ok()) report->Mismatch("input: " + bytes.status().ToString());
    return bytes.ok() ? bytes.value() : std::string();
  };

  // Set-up is the warm-up ops: the batch path has nothing else to prepare.
  // Each repetition runs on fresh corpora, generated before its clock.
  std::vector<double> setup_s;
  std::size_t next_input = n;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    std::vector<std::string> inputs;
    for (int w = 0; w < kWarmupOps; ++w) {
      inputs.push_back(corpus(next_input++));
    }
    const Instant start = Instant::Now();
    for (const std::string& bytes : inputs) {
      if (!RelateOp(bytes, false, report).ok) {
        report->Mismatch("warm-up op failed");
      }
    }
    setup_s.push_back(Since(start).cpu_ms / 1e3);
  }

  // The ops checked against the baseline engine: one drawn from each equal
  // slice of the run.
  const std::size_t checks =
      std::min(n, args.trace ? kTracedCheckedOps : kCheckedOps);
  SeedStream pick(Mix64(args.seed));
  std::vector<bool> checked(n, false);
  for (std::size_t j = 0; j < checks; ++j) {
    checked[j * n / checks + pick.Below(n / checks)] = true;
  }

  std::optional<TracedRun> traced_run;
  if (args.trace) traced_run.emplace();
  std::vector<double> halves[2];
  std::vector<std::pair<std::size_t, Fingerprint>> to_check;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string bytes = corpus(i);
    const bool second_half = args.trace && i >= n / 2;
    if (second_half && i == n / 2) traced_run->EnableCollector();
    const OpResult r = RelateOp(bytes, args.trace, report);
    ++op.attempted;
    ++page.attempted;
    if (!r.ok) {
      ++op.failed;
      ++page.failed;
      continue;
    }
    op.Add(r.op);
    page.Add(r.page);
    halves[second_half ? 1 : 0].push_back(r.op.wall_ms);
    if (checked[i]) to_check.emplace_back(i, r.fp);
  }
  const double peak_rss_mb = PeakRssMb();

  // Oracle: the baseline engine on the same corpora, after the timed part.
  for (const auto& [i, fp] : to_check) {
    Result<Fingerprint> want = OracleFingerprint(corpus(i), true, nullptr);
    if (!want.ok() || !(want.value() == fp)) {
      ++op.failed;
      report->Mismatch("relate op " + std::to_string(i) + ": cubeMasking " +
                       fp.ToString() + " vs baseline " +
                       (want.ok() ? want.value().ToString()
                                  : want.status().ToString()));
    }
  }

  if (args.trace) {
    ProbeLayers(corpus(next_input), kObservations * 1000 / 1028, args.seed,
                report);
    traced_run->Finish(args, halves[0], halves[1], report);
    return;
  }
  report->SetLatency("op", op);
  report->SetLatency("scan", page);
  report->Set("setup_s", Quantile(setup_s, 0.5), "s");
  report->Set("peak_rss_mb", peak_rss_mb, "MiB");
}

}  // namespace perfbench
