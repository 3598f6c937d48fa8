// Chaos soak for the relationship server (DESIGN.md §6, the robustness
// headline): concurrent clients hammer a live server while a chaos schedule
// injects network read/write faults, reload crashes (snapshot.build), and
// publication crashes (server.reload.swap); a reload thread swaps the
// snapshot between a base and an extended corpus; a storm thread floods
// 1ms deadlines. Every OK answer is verified against a per-version
// CubeExplorer oracle — the server may serve STALE data (last-good snapshot
// after a failed reload) but never TORN data (an answer inconsistent with
// the corpus its version stamps). Overload must shed (bounded loops), and
// Stop() must drain cleanly with every thread joining.
//
// RDFCUBE_BENCH_SMOKE=1 shrinks the soak duration (CI smoke lane).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/stopwatch.h"
#include "base/thread_annotations.h"
#include "core/explorer.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "qb/corpus.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/snapshot_store.h"
#include "tests/test_corpus.h"
#include "util/fault.h"
#include "util/random.h"

namespace rdfcube {
namespace server {
namespace {

using core::CubeExplorer;
using core::RelationshipSnapshot;
using qb::ObsId;
using testutil::MakeRandomCorpus;

constexpr uint64_t kCorpusSeed = 97;

bool SmokeMode() {
  const char* env = std::getenv("RDFCUBE_BENCH_SMOKE");
  return env != nullptr && env[0] == '1';
}

// Which corpus a published snapshot version was built from.
enum CorpusKind { kBase = 0, kExtended = 1 };

// Sum of the ten per-op rdfcube_server_<op>_requests_total counters from the
// process-global registry. The conservation verdict compares before/after
// deltas, so ops whose counters have not been registered yet contribute zero.
uint64_t PerOpRequestsTotal() {
  static const char* const kOps[] = {
      "ping",  "containers", "contained", "complements", "partial",
      "scan",  "stats",      "metrics",   "slowlog",     "tracedump"};
  uint64_t sum = 0;
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  for (const auto& counter : snapshot.counters) {
    for (const char* op : kOps) {
      if (counter.name ==
          std::string("rdfcube_server_") + op + "_requests_total") {
        sum += counter.value;
        break;
      }
    }
  }
  return sum;
}

struct SoakCounters {
  std::atomic<uint64_t> verified_base{0};
  std::atomic<uint64_t> verified_extended{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> internal_responses{0};
  std::atomic<uint64_t> bad_request_responses{0};
  std::atomic<uint64_t> version_regressions{0};
  std::atomic<uint64_t> deadline_exceeded_seen{0};
  std::atomic<uint64_t> transport_errors{0};
  std::atomic<uint64_t> unknown_version{0};
};

class SoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_n_ = SmokeMode() ? 40u : 80u;
    extended_n_ = SmokeMode() ? 60u : 120u;
    duration_seconds_ = SmokeMode() ? 1.0 : 3.0;
    // CubeExplorer keeps a pointer: the oracle corpora must stay alive.
    oracle_corpora_[kBase] = MakeOracleCorpus(kBase);
    oracle_corpora_[kExtended] = MakeOracleCorpus(kExtended);
    base_oracle_ = std::make_unique<CubeExplorer>(
        oracle_corpora_[kBase].observations.get());
    extended_oracle_ = std::make_unique<CubeExplorer>(
        oracle_corpora_[kExtended].observations.get());
    {
      MutexLock lock(&kinds_mu_);
      kind_of_version_[1] = kBase;
    }
  }

  qb::Corpus MakeOracleCorpus(CorpusKind kind) const {
    return MakeRandomCorpus(kCorpusSeed,
                            kind == kBase ? base_n_ : extended_n_);
  }

  const CubeExplorer& Oracle(CorpusKind kind) const {
    return kind == kBase ? *base_oracle_ : *extended_oracle_;
  }

  std::size_t CorpusSize(CorpusKind kind) const {
    return kind == kBase ? base_n_ : extended_n_;
  }

  // nullopt when the version was never recorded (cannot happen for
  // published versions; counted defensively).
  std::optional<CorpusKind> KindOf(uint64_t version) {
    MutexLock lock(&kinds_mu_);
    auto it = kind_of_version_.find(version);
    if (it == kind_of_version_.end()) return std::nullopt;
    return it->second;
  }

  void RecordUpcomingVersion(uint64_t version, CorpusKind kind) {
    MutexLock lock(&kinds_mu_);
    kind_of_version_[version] = kind;
  }

  // Verifies one OK point-lookup response against the oracle for the
  // snapshot version that answered. Returns false on mismatch.
  bool VerifyLookup(Op op, ObsId target, const Response& resp,
                    SoakCounters* counters) {
    auto kind = KindOf(resp.snapshot_version);
    if (!kind.has_value()) {
      counters->unknown_version.fetch_add(1, std::memory_order_relaxed);
      return true;  // reload raced the bookkeeping; do not fail the soak
    }
    const CubeExplorer& oracle = Oracle(*kind);
    if (target >= CorpusSize(*kind)) return false;  // OK answer for bad id
    std::vector<ObsId> want;
    switch (op) {
      case Op::kContainers:
        want = oracle.Containers(target);
        break;
      case Op::kContained:
        want = oracle.ContainedBy(target);
        break;
      case Op::kComplements:
        want = oracle.Complements(target);
        break;
      case Op::kPartial: {
        auto matches = oracle.PartiallyContained(target, 0.0);
        std::sort(matches.begin(), matches.end(),
                  [](const auto& x, const auto& y) {
                    return x.other < y.other;
                  });
        if (resp.ids.size() != matches.size() ||
            resp.degrees.size() != matches.size()) {
          return false;
        }
        for (std::size_t i = 0; i < matches.size(); ++i) {
          if (resp.ids[i] != matches[i].other) return false;
          if (std::abs(resp.degrees[i] - matches[i].degree) > 1e-9) {
            return false;
          }
        }
        (*kind == kBase ? counters->verified_base
                        : counters->verified_extended)
            .fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      default:
        return true;
    }
    std::sort(want.begin(), want.end());
    if (resp.ids != want) return false;
    (*kind == kBase ? counters->verified_base : counters->verified_extended)
        .fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  std::size_t base_n_ = 0;
  std::size_t extended_n_ = 0;
  double duration_seconds_ = 3.0;
  std::map<int, qb::Corpus> oracle_corpora_;
  std::unique_ptr<CubeExplorer> base_oracle_;
  std::unique_ptr<CubeExplorer> extended_oracle_;
  Mutex kinds_mu_;
  std::map<uint64_t, CorpusKind> kind_of_version_
      RDFCUBE_GUARDED_BY(kinds_mu_);
};

TEST_F(SoakTest, ChaosSoakNeverServesTornData) {
  // Small per-loop bound so the client fleet overloads it; the soak must
  // shed.
  ServerOptions options;
  options.num_workers = 2;
  options.max_queue = 2;
  options.retry_after_ms = 1;
  options.default_deadline_seconds = 2.0;
  Server srv(options);
  {
    RelationshipSnapshot::BuildOptions build;
    build.version = 1;
    auto snap = RelationshipSnapshot::Build(MakeOracleCorpus(kBase), build);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE(srv.Start(std::move(snap).value()).ok());
  }

  // The chaos schedule, armed for the whole soak: flaky network reads and
  // writes (both sides of every connection), reload builds that crash, and
  // reloads that die between build and publication.
  FaultInjector injector(SmokeMode() ? 2 : 1);
  injector.ArmProbability(kFaultNetRead, 0.01);
  injector.ArmProbability(kFaultNetWrite, 0.01);
  injector.ArmProbability(core::kFaultSnapshotBuild, 0.002);
  injector.ArmProbability(kFaultReloadSwap, 0.10);
  ScopedFaultInjection scope(&injector);

  SoakCounters counters;
  std::atomic<bool> stop{false};
  // Baseline for the metrics-conservation verdict: the per-op counters are
  // process-global, so only their delta over this soak is attributable to
  // this server instance.
  const uint64_t per_op_before = PerOpRequestsTotal();
  const Deadline soak_deadline(duration_seconds_);

  // --- Client fleet: mixed operations, every OK answer oracle-checked ----
  std::vector<std::thread> clients;
  const int kNumClients = 6;
  for (int t = 0; t < kNumClients; ++t) {
    clients.emplace_back([&, t] {
      ClientOptions copts;
      copts.port = srv.port();
      copts.max_retries = 3;
      copts.initial_backoff_ms = 1;
      copts.max_backoff_ms = 8;
      copts.jitter_seed = static_cast<uint64_t>(t + 1);
      Client client(copts);
      Rng rng(static_cast<uint64_t>(t) * 7919 + 13);
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Request req;
        const std::size_t roll = rng.Uniform(100);
        if (roll < 10) {
          req.op = Op::kPing;
        } else if (roll < 30) {
          req.op = Op::kContainers;
        } else if (roll < 50) {
          req.op = Op::kContained;
        } else if (roll < 70) {
          req.op = Op::kComplements;
        } else if (roll < 85) {
          req.op = Op::kPartial;
        } else if (roll < 95) {
          req.op = Op::kScan;
          req.limit = 500;
        } else {
          req.op = Op::kStats;
        }
        // Ids beyond the base corpus probe staleness; a few beyond the
        // extended corpus probe NotFound.
        req.target = static_cast<ObsId>(rng.Uniform(extended_n_ + 4));
        auto resp = client.Call(req);
        if (!resp.ok()) {
          counters.transport_errors.fetch_add(1, std::memory_order_relaxed);
          client.Disconnect();
          continue;
        }
        switch (resp->code) {
          case RespCode::kOk:
            break;
          case RespCode::kNotFound:
            continue;  // target beyond the answering snapshot: legitimate
          case RespCode::kDeadlineExceeded:
            counters.deadline_exceeded_seen.fetch_add(
                1, std::memory_order_relaxed);
            continue;
          case RespCode::kShed:
          case RespCode::kShuttingDown:
            continue;
          case RespCode::kInternal:
            counters.internal_responses.fetch_add(1,
                                                  std::memory_order_relaxed);
            continue;
          case RespCode::kBadRequest:
            counters.bad_request_responses.fetch_add(
                1, std::memory_order_relaxed);
            continue;
        }
        // Snapshot versions move forward only: a client can observe stale
        // data but never an older snapshot than one it already saw.
        if (resp->snapshot_version != 0) {
          if (resp->snapshot_version < last_version) {
            counters.version_regressions.fetch_add(1,
                                                   std::memory_order_relaxed);
          }
          last_version = std::max(last_version, resp->snapshot_version);
        }
        if (req.op == Op::kContainers || req.op == Op::kContained ||
            req.op == Op::kComplements || req.op == Op::kPartial) {
          if (!VerifyLookup(req.op, req.target, *resp, &counters)) {
            counters.mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (req.op == Op::kScan) {
          auto kind = KindOf(resp->snapshot_version);
          if (kind.has_value()) {
            const auto n = static_cast<ObsId>(CorpusSize(*kind));
            for (const auto& rec : resp->records) {
              if ((rec.kind != 'F' && rec.kind != 'P' && rec.kind != 'C') ||
                  rec.a >= n || rec.b >= n || rec.degree < 0.0 ||
                  rec.degree > 1.0) {
                counters.mismatches.fetch_add(1, std::memory_order_relaxed);
                break;
              }
            }
          }
        }
      }
    });
  }

  // --- Deadline storm: 1ms budgets that expire while queued --------------
  std::thread storm([&] {
    ClientOptions copts;
    copts.port = srv.port();
    copts.max_retries = 0;
    copts.jitter_seed = 999;
    Client client(copts);
    Request req;
    req.op = Op::kScan;
    req.limit = 500;
    req.deadline_ms = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      auto resp = client.Call(req);
      if (!resp.ok()) client.Disconnect();
    }
  });

  // --- Reload thread: swap base <-> extended, crashing at random ---------
  std::thread reloader([&] {
    uint64_t good = 0, failed = 0;
    int flip = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const CorpusKind kind = (flip++ % 2 == 0) ? kBase : kExtended;
      const SnapshotPtr current = srv.store().Current();
      ASSERT_NE(current, nullptr);
      // Record the version this reload WILL publish before it can publish
      // it, so clients can always resolve a served version to its corpus.
      RecordUpcomingVersion(current->version() + 1, kind);
      const Status st = srv.Reload(MakeOracleCorpus(kind), Deadline(10.0));
      if (st.ok()) {
        ++good;
      } else {
        ++failed;  // degraded: last-good snapshot keeps serving
      }
    }
    // The chaos schedule guarantees both outcomes appear over the soak.
    EXPECT_GT(good, 0u) << "no reload ever succeeded";
    (void)failed;
  });

  while (!soak_deadline.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  storm.join();
  reloader.join();

  srv.Stop();  // orderly drain; must not hang or crash
  // Read the tallies only after Stop() joins the event loops: a request
  // increments requests_total_ on entry but its per-op counter in the
  // epilogue, so a capture racing the last request would undercount the
  // per-op side.
  const uint64_t shed = srv.shed_total();
  const uint64_t requests = srv.requests_total();
  const uint64_t per_op_delta = PerOpRequestsTotal() - per_op_before;

  // The verdicts. Torn data = any oracle mismatch or version regression.
  EXPECT_EQ(counters.mismatches.load(), 0u);
  EXPECT_EQ(counters.version_regressions.load(), 0u);
  EXPECT_EQ(counters.internal_responses.load(), 0u);
  EXPECT_EQ(counters.bad_request_responses.load(), 0u);
  // Metrics conservation: every evaluated request ticks exactly one per-op
  // counter, and this soak sends none of the inline-answered obs ops
  // (kMetrics/kSlowlog bypass the shed bound and skip requests_total), so
  // the per-op delta-sum must match the server's own tally exactly.
  EXPECT_EQ(per_op_delta, requests)
      << "per-op RED counters do not conserve requests_total";
  // The soak exercised what it claims to exercise.
  EXPECT_GT(requests, 100u);
  EXPECT_GT(shed, 0u) << "bounded loops never shed under overload";
  EXPECT_GT(counters.verified_base.load(), 0u)
      << "no answer from the base snapshot was ever verified";
  EXPECT_GT(counters.verified_extended.load(), 0u)
      << "no answer from a refreshed snapshot was ever verified";
  EXPECT_GT(srv.store().reloads(), 0u);
}

TEST_F(SoakTest, DrainUnderLoadLeavesNoStuckClients) {
  // Stop() while a client fleet is mid-flight: every blocked Call must
  // complete (with an error at worst) and every thread must join.
  ServerOptions options;
  options.num_workers = 2;
  options.max_queue = 8;
  Server srv(options);
  {
    RelationshipSnapshot::BuildOptions build;
    build.version = 1;
    auto snap = RelationshipSnapshot::Build(MakeOracleCorpus(kBase), build);
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE(srv.Start(std::move(snap).value()).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      ClientOptions copts;
      copts.port = srv.port();
      copts.max_retries = 1;
      copts.initial_backoff_ms = 1;
      copts.connect_timeout_seconds = 0.2;
      copts.request_timeout_seconds = 0.5;
      copts.jitter_seed = static_cast<uint64_t>(t + 1);
      Client client(copts);
      Request req;
      req.op = Op::kScan;
      req.limit = 1000;
      while (!stop.load(std::memory_order_relaxed)) {
        (void)client.Call(req);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (completed.load() < 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  srv.Stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& t : clients) t.join();  // no client wedges on a dead server
  SUCCEED();
}

}  // namespace
}  // namespace server
}  // namespace rdfcube
