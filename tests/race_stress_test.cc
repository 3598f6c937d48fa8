// Race-stress suite: hammers every concurrent surface of the tree so that a
// ThreadSanitizer build (RDFCUBE_SANITIZE=thread, scripts/check_sanitizers.sh)
// has real contention to observe. The assertions also hold under the plain
// build — results must match the single-threaded reference regardless of
// interleaving — but the point of this file is the happens-before coverage:
// ThreadPool submit/wait/error paths, TryParallelFor early-abort, the
// fault-injector's global registry under concurrent firing, parallel and
// distributed masking racing each other, checkpoint save/restore storms
// on shared paths, and the relationship server's event loops under live
// traffic and a mid-stream Stop().

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/baseline.h"
#include "core/cube_masking.h"
#include "core/distributed.h"
#include "core/incremental.h"
#include "core/lattice.h"
#include "core/occurrence_matrix.h"
#include "core/parallel_masking.h"
#include "core/relationship.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qb/corpus.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/snapshot_store.h"
#include "server/socket_io.h"
#include "tests/test_corpus.h"
#include "util/fault.h"
#include "base/status.h"
#include "base/stopwatch.h"
#include "util/thread_pool.h"

namespace rdfcube {
namespace core {
namespace {

using qb::ObsId;
using testutil::MakeRandomCorpus;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Canonicalized relationship sets, for cross-method equality.
struct Snapshot {
  std::set<std::pair<ObsId, ObsId>> full;
  std::set<std::pair<ObsId, ObsId>> compl_pairs;
  std::set<std::tuple<ObsId, ObsId, int>> partial;

  static Snapshot From(const CollectingSink& sink) {
    Snapshot s;
    for (const auto& p : sink.full()) s.full.insert(p);
    for (const auto& p : sink.complementary()) s.compl_pairs.insert(p);
    for (const auto& p : sink.partial()) {
      s.partial.insert({p.a, p.b, static_cast<int>(p.degree * 1000 + 0.5)});
    }
    return s;
  }
  bool operator==(const Snapshot& o) const {
    return full == o.full && compl_pairs == o.compl_pairs &&
           partial == o.partial;
  }
};

Snapshot BaselineSnapshot(const qb::ObservationSet& obs) {
  const OccurrenceMatrix om(obs);
  CollectingSink sink;
  BaselineOptions options;
  EXPECT_TRUE(RunBaseline(obs, om, options, &sink).ok());
  return Snapshot::From(sink);
}

// --- ThreadPool under contention ---------------------------------------------

TEST(ThreadPoolRaceTest, ConcurrentSubmittersSeeEveryTaskExactlyOnce) {
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kTasksEach = 200;
  ThreadPool pool(3);
  std::atomic<std::size_t> executed{0};
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &executed] {
      for (std::size_t i = 0; i < kTasksEach; ++i) {
        pool.Submit([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.Wait();
  EXPECT_EQ(executed.load(), kSubmitters * kTasksEach);
  EXPECT_TRUE(pool.TakeError().ok());
}

TEST(ThreadPoolRaceTest, ReportErrorRacesTakeErrorWithoutTearing) {
  ThreadPool pool(3);
  constexpr std::size_t kTasks = 300;
  for (std::size_t i = 0; i < kTasks; ++i) {
    pool.Submit([&pool, i] {
      pool.ReportError(Status::Internal("task " + std::to_string(i)));
    });
  }
  // Drain errors concurrently with the reporting tasks. Every drained status
  // must be either OK or a complete task message — a torn read would trip
  // TSan and likely produce garbage text.
  std::size_t drained = 0;
  for (std::size_t spin = 0; spin < 1000; ++spin) {
    const Status st = pool.TakeError();
    if (!st.ok()) {
      ++drained;
      EXPECT_NE(st.message().find("task "), std::string::npos);
    }
  }
  pool.Wait();
  const Status last = pool.TakeError();
  if (!last.ok()) ++drained;
  EXPECT_GE(drained, 1u);
  // Once drained, the pool is clean again.
  EXPECT_TRUE(pool.TakeError().ok());
}

TEST(ThreadPoolRaceTest, ConcurrentTryParallelForCallersKeepErrorsSeparate) {
  ThreadPool pool(3);
  constexpr std::size_t kCallers = 4;
  std::vector<Status> results(kCallers, Status::OK());
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &results, c] {
      results[c] = TryParallelFor(&pool, 64, [c](std::size_t i) -> Status {
        // Caller 0 fails partway; the others run to completion.
        if (c == 0 && i == 13) {
          return Status::InvalidArgument("caller 0 fails at 13");
        }
        return Status::OK();
      });
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_TRUE(results[0].IsInvalidArgument()) << results[0].ToString();
  for (std::size_t c = 1; c < kCallers; ++c) {
    EXPECT_TRUE(results[c].ok()) << "caller " << c << ": "
                                 << results[c].ToString();
  }
}

TEST(ThreadPoolRaceTest, TryParallelForEarlyAbortUnderContention) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> started{0};
    const Status st = TryParallelFor(&pool, 512, [&started](std::size_t i) {
      started.fetch_add(1, std::memory_order_relaxed);
      return i == 0 ? Status::OutOfRange("abort") : Status::OK();
    });
    EXPECT_TRUE(st.IsOutOfRange()) << st.ToString();
    // The early-abort flag must actually skip work: with 512 indices and a
    // failure on the very first one, at least the tail of some shard is
    // skipped. (Not a strict bound — scheduling may run shards before the
    // flag propagates — but it must never exceed the total.)
    EXPECT_LE(started.load(), 512u);
  }
}

TEST(ThreadPoolRaceTest, ThrownExceptionsUnderContentionSurfaceOnce) {
  ThreadPool pool(3);
  const Status st = TryParallelFor(&pool, 128, [](std::size_t i) -> Status {
    if (i % 32 == 7) throw std::runtime_error("thrown under contention");
    return Status::OK();
  });
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
  // The error was taken by the returning call; the pool is clean after.
  EXPECT_TRUE(pool.TakeError().ok());
}

// --- FaultInjector under concurrent firing -----------------------------------

TEST(FaultInjectorRaceTest, CountersAndLogStayConsistent) {
  FaultInjector injector(7);
  injector.ArmProbability("race.a", 0.5);
  injector.ArmProbability("race.b", 0.25);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCallsEach = 500;
  std::atomic<uint64_t> observed_fires{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&injector, &observed_fires, t] {
      const std::string point = (t % 2 == 0) ? "race.a" : "race.b";
      for (std::size_t i = 0; i < kCallsEach; ++i) {
        if (injector.ShouldFail(point)) {
          observed_fires.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(injector.calls("race.a"), 2 * kCallsEach);
  EXPECT_EQ(injector.calls("race.b"), 2 * kCallsEach);
  EXPECT_EQ(injector.total_fired(), observed_fires.load());
  EXPECT_EQ(injector.log().size(), observed_fires.load());
}

TEST(FaultInjectorRaceTest, ArmDisarmRacesShouldFail) {
  FaultInjector injector(11);
  constexpr uint64_t kCalls = 2000;
  std::thread firing([&injector] {
    for (uint64_t i = 0; i < kCalls; ++i) {
      (void)injector.ShouldFail("race.toggle");
    }
  });
  for (int i = 0; i < 200; ++i) {
    injector.ArmProbability("race.toggle", 0.5);
    injector.Disarm("race.toggle");
  }
  firing.join();
  EXPECT_EQ(injector.calls("race.toggle"), kCalls);
}

// --- Parallel masking racing itself ------------------------------------------

TEST(ParallelMaskingRaceTest, ConcurrentRunsMatchSingleThreadedReference) {
  qb::Corpus corpus = MakeRandomCorpus(21, 50);
  const qb::ObservationSet& obs = *corpus.observations;
  const Snapshot reference = BaselineSnapshot(obs);
  const Lattice lattice(obs);

  constexpr std::size_t kRunners = 3;
  std::vector<Snapshot> results(kRunners);
  std::vector<Status> statuses(kRunners, Status::OK());
  std::vector<std::thread> runners;
  for (std::size_t r = 0; r < kRunners; ++r) {
    runners.emplace_back([&obs, &lattice, &results, &statuses, r] {
      CollectingSink sink;
      ParallelMaskingOptions options;
      options.num_threads = 3;
      statuses[r] = RunCubeMaskingParallel(obs, lattice, options, &sink);
      results[r] = Snapshot::From(sink);
    });
  }
  for (std::thread& t : runners) t.join();
  for (std::size_t r = 0; r < kRunners; ++r) {
    ASSERT_TRUE(statuses[r].ok()) << statuses[r].ToString();
    EXPECT_TRUE(results[r] == reference) << "runner " << r;
  }
}

// --- Distributed recovery racing reassignment --------------------------------

TEST(DistributedRaceTest, ConcurrentFaultyRunsEachRecoverExactly) {
  qb::Corpus corpus = MakeRandomCorpus(31, 40);
  const qb::ObservationSet& obs = *corpus.observations;
  const Snapshot reference = BaselineSnapshot(obs);

  // One process-global injector shared by every concurrent run: the crash /
  // drop / duplicate points fire from several driver threads at once, racing
  // retries and reassignment bookkeeping against each other.
  FaultInjector injector(13);
  injector.ArmProbability(kFaultWorkerCrash, 0.15);
  injector.ArmProbability(kFaultMessageDrop, 0.05);
  injector.ArmProbability(kFaultMessageDuplicate, 0.05);
  ScopedFaultInjection scope(&injector);

  constexpr std::size_t kRunners = 3;
  std::vector<Snapshot> results(kRunners);
  std::vector<Status> statuses(kRunners, Status::OK());
  std::vector<DistributedStats> stats(kRunners);
  std::vector<std::thread> runners;
  for (std::size_t r = 0; r < kRunners; ++r) {
    runners.emplace_back([&obs, &results, &statuses, &stats, r] {
      CollectingSink sink;
      DistributedOptions options;
      options.num_workers = 2 + r;
      statuses[r] = RunDistributedMasking(obs, options, &sink, &stats[r]);
      results[r] = Snapshot::From(sink);
    });
  }
  for (std::thread& t : runners) t.join();
  std::size_t total_crashes = 0;
  for (std::size_t r = 0; r < kRunners; ++r) {
    ASSERT_TRUE(statuses[r].ok()) << statuses[r].ToString();
    EXPECT_TRUE(results[r] == reference) << "runner " << r;
    EXPECT_EQ(stats[r].worker_crashes,
              stats[r].task_retries + stats[r].workers_lost);
    total_crashes += stats[r].worker_crashes;
  }
  EXPECT_GT(total_crashes, 0u);
}

// --- Incremental checkpointing storms ----------------------------------------

class IncrementalCheckpointRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = MakeRandomCorpus(41, 40);
    obs_ = corpus_.observations.get();
    engine_ = std::make_unique<IncrementalEngine>(
        obs_, RelationshipSelector::All());
    for (ObsId id = 0; id < static_cast<ObsId>(obs_->size()); ++id) {
      ASSERT_TRUE(engine_->OnObservationAdded(id).ok());
    }
  }

  qb::Corpus corpus_;
  const qb::ObservationSet* obs_ = nullptr;
  std::unique_ptr<IncrementalEngine> engine_;
};

TEST_F(IncrementalCheckpointRaceTest, ConcurrentSavesToOnePathAllSucceed) {
  const std::string path = TempPath("race_ckpt_shared.bin");
  constexpr std::size_t kSavers = 4;
  constexpr std::size_t kSavesEach = 8;
  std::vector<Status> statuses(kSavers * kSavesEach, Status::OK());
  std::vector<std::thread> savers;
  for (std::size_t s = 0; s < kSavers; ++s) {
    savers.emplace_back([this, &path, &statuses, s] {
      for (std::size_t i = 0; i < kSavesEach; ++i) {
        statuses[s * kSavesEach + i] = engine_->SaveCheckpoint(path);
      }
    });
  }
  for (std::thread& t : savers) t.join();
  // Every save must succeed: AtomicWriteFile uses per-call temp names, so
  // concurrent writers cannot steal or truncate each other's staging file.
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    EXPECT_TRUE(statuses[i].ok()) << "save " << i << ": "
                                  << statuses[i].ToString();
  }
  // And the surviving file is a complete snapshot, never a torn interleave.
  IncrementalEngine restored(obs_, RelationshipSelector::All());
  ASSERT_TRUE(restored.RestoreFromCheckpoint(path).ok());
  EXPECT_EQ(restored.num_full(), engine_->num_full());
  EXPECT_EQ(restored.num_partial(), engine_->num_partial());
  EXPECT_EQ(restored.num_complementary(), engine_->num_complementary());
}

TEST_F(IncrementalCheckpointRaceTest, RestoresRaceSavesWithoutTornReads) {
  const std::string path = TempPath("race_ckpt_rw.bin");
  ASSERT_TRUE(engine_->SaveCheckpoint(path).ok());
  std::atomic<bool> stop{false};
  std::thread writer([this, &path, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Status st = engine_->SaveCheckpoint(path);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  });
  // Readers must always observe a complete snapshot: the rename-into-place
  // protocol means there is never a half-written file at `path`.
  for (int i = 0; i < 12; ++i) {
    IncrementalEngine restored(obs_, RelationshipSelector::All());
    const Status st = restored.RestoreFromCheckpoint(path);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(restored.num_full(), engine_->num_full());
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST_F(IncrementalCheckpointRaceTest, ConcurrentSerializeStateIsStable) {
  const std::string reference = engine_->SerializeState();
  constexpr std::size_t kReaders = 4;
  std::vector<std::string> states(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([this, &states, r] {
      states[r] = engine_->SerializeState();
    });
  }
  for (std::thread& t : readers) t.join();
  for (const std::string& s : states) EXPECT_EQ(s, reference);
}

// --- Observability primitives under contention -------------------------------
// The obs layer promises lock-free hot paths (relaxed atomics in Counter /
// Gauge / Histogram, per-thread rings for spans). These tests give TSan real
// interleavings to chew on and assert the arithmetic survives them.

TEST(ObsRaceTest, ConcurrentCounterIncrementsSumExactly) {
  obs::MetricsRegistry registry;
  Result<obs::Counter*> counter =
      registry.GetCounter("rdfcube_race_counter_total", "h");
  ASSERT_TRUE(counter.ok());
  constexpr std::size_t kThreads = 4;
  constexpr uint64_t kIncrementsEach = 5000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kIncrementsEach; ++i) {
        (*counter)->Increment();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ((*counter)->value(), kThreads * kIncrementsEach);
}

TEST(ObsRaceTest, RegistrationRacesReturnOneInstance) {
  obs::MetricsRegistry registry;
  constexpr std::size_t kThreads = 4;
  constexpr uint64_t kIncrementsEach = 1000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Every thread races the first registration of the same name; all must
      // land on the same instance.
      Result<obs::Counter*> counter =
          registry.GetCounter("rdfcube_race_shared_total", "h");
      ASSERT_TRUE(counter.ok());
      for (uint64_t i = 0; i < kIncrementsEach; ++i) {
        (*counter)->Increment();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Result<obs::Counter*> counter =
      registry.GetCounter("rdfcube_race_shared_total", "h");
  ASSERT_TRUE(counter.ok());
  EXPECT_EQ((*counter)->value(), kThreads * kIncrementsEach);
}

TEST(ObsRaceTest, ConcurrentHistogramObservationsStayConsistent) {
  obs::MetricsRegistry registry;
  Result<obs::Histogram*> histogram = registry.GetHistogram(
      "rdfcube_race_seconds", "h", {1.0, 2.0, 4.0});
  ASSERT_TRUE(histogram.ok());
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kObservationsEach = 4000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      // Thread t observes the constant t+0.5: buckets and the CAS-accumulated
      // sum are then exactly predictable despite arbitrary interleaving.
      const double value = static_cast<double>(t) + 0.5;
      for (std::size_t i = 0; i < kObservationsEach; ++i) {
        (*histogram)->Observe(value);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ((*histogram)->count(), kThreads * kObservationsEach);
  // Sum of (0.5 + 1.5 + 2.5 + 3.5) * kObservationsEach, exact in doubles.
  EXPECT_DOUBLE_EQ((*histogram)->sum(), 8.0 * kObservationsEach);
  const std::vector<uint64_t> buckets = (*histogram)->bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  // 0.5 -> le=1, 1.5 -> le=2, 2.5 -> le=4, 3.5 -> le=4.
  EXPECT_EQ(buckets[0], kObservationsEach);
  EXPECT_EQ(buckets[1], kObservationsEach);
  EXPECT_EQ(buckets[2], 2 * kObservationsEach);
  EXPECT_EQ(buckets[3], 0u);
}

TEST(ObsRaceTest, SpansOnManyThreadsRaceSnapshotAndClear) {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  collector.Enable(/*ring_capacity=*/256);
  std::atomic<bool> stop{false};
  constexpr std::size_t kSpanners = 3;
  std::vector<std::thread> spanners;
  for (std::size_t t = 0; t < kSpanners; ++t) {
    spanners.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        obs::TraceSpan outer("race/outer");
        obs::TraceSpan inner("race/inner");
      }
    });
  }
  // Snapshot and Clear race the recording threads; every event read out must
  // be internally consistent (never a torn name / half-written duration).
  for (int i = 0; i < 50; ++i) {
    for (const obs::SpanEvent& e : collector.Snapshot()) {
      EXPECT_TRUE(e.name == "race/outer" || e.name == "race/inner") << e.name;
      EXPECT_GE(e.duration_us, e.self_us);
    }
    if (i % 10 == 9) collector.Clear();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : spanners) t.join();
  collector.Disable();
  (void)collector.dropped();  // bounded rings may have overwritten; just read
}

// --- Server request conservation across Stop() --------------------------------

TEST(ServerRaceStressTest, EveryRequestGetsExactlyOneOutcomeAcrossStop) {
  // K raw connections each send M requests, one at a time, to a server with
  // N event loops and a one-request bound per loop wakeup, and Stop() runs
  // mid-stream. Every frame sent gets exactly one outcome: an answer (ok or
  // shed), kShuttingDown, or a transport error once the drain has begun.
  // The server's own tallies account for every answered frame.
  qb::Corpus corpus = MakeRandomCorpus(71, 60);
  core::RelationshipSnapshot::BuildOptions build;
  build.version = 1;
  auto snap = core::RelationshipSnapshot::Build(std::move(corpus), build);
  ASSERT_TRUE(snap.ok());
  server::ServerOptions options;
  options.num_workers = 2;
  options.max_queue = 1;
  options.retry_after_ms = 1;
  server::Server srv(options);
  ASSERT_TRUE(srv.Start(snap.value()).ok());

  constexpr int kClients = 6;
  constexpr int kRequests = 400;
  std::atomic<bool> stopping{false};
  std::atomic<uint64_t> sent{0}, answered{0}, shed{0}, shutting_down{0},
      transport_after_drain{0}, anomalies{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto conn = server::ConnectTo("127.0.0.1", srv.port(), Deadline(2.0));
      if (!conn.ok()) {
        anomalies.fetch_add(1);
        return;
      }
      std::string payload;
      for (int i = 0; i < kRequests; ++i) {
        server::Request req;
        req.op = i % 3 == 0 ? server::Op::kScan : server::Op::kContainers;
        req.target = static_cast<qb::ObsId>((c * 7 + i) % 60);
        req.limit = 200;
        req.deadline_ms = 5000;
        req.request_id = static_cast<uint64_t>(c) << 32 | (i + 1u);
        Status st = server::WriteFrame(conn->get(), server::EncodeRequest(req),
                                       Deadline(5.0));
        if (st.ok()) {
          st = server::ReadFrame(conn->get(), &payload,
                                 server::kDefaultMaxFrameBytes, Deadline(5.0));
        }
        sent.fetch_add(1);
        if (!st.ok()) {
          // The server only ever hangs up on a healthy client while draining.
          (stopping.load() ? transport_after_drain : anomalies).fetch_add(1);
          return;
        }
        auto resp = server::DecodeResponse(payload);
        if (!resp.ok()) {
          anomalies.fetch_add(1);
          return;
        }
        if (resp->code == server::RespCode::kShuttingDown) {
          shutting_down.fetch_add(1);
          return;  // the server closes the connection after this answer
        }
        if (resp->request_id != req.request_id) anomalies.fetch_add(1);
        if (resp->code == server::RespCode::kShed) {
          shed.fetch_add(1);
        } else if (resp->code == server::RespCode::kOk) {
          answered.fetch_add(1);
        } else {
          anomalies.fetch_add(1);
        }
      }
    });
  }
  // Stop mid-stream: once about a third of the frames have an outcome.
  const Deadline give_up(30.0);
  while (sent.load() < kClients * kRequests / 3 && !give_up.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stopping.store(true);
  srv.Stop();
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(anomalies.load(), 0u);
  EXPECT_EQ(sent.load(), answered.load() + shed.load() + shutting_down.load() +
                             transport_after_drain.load());
  EXPECT_EQ(srv.requests_total(), answered.load());
  EXPECT_EQ(srv.shed_total(), shed.load());
  EXPECT_LT(sent.load(), uint64_t{kClients} * kRequests) << "Stop() came too late";
}

// --- Snapshot store swap storm -----------------------------------------------

TEST(ServerRaceStressTest, SnapshotStoreSwapStormServesConsistentViews) {
  // A publisher flips between two prebuilt snapshots while readers grab the
  // current pointer and query it. Torn publication would show up as a
  // version/fingerprint pair that matches neither snapshot, a query crash,
  // or (under TSan) a data race on the swap.
  qb::Corpus corpus_a = MakeRandomCorpus(51, 40);
  qb::Corpus corpus_b = MakeRandomCorpus(52, 40);
  core::RelationshipSnapshot::BuildOptions options;
  options.version = 1;
  auto snap_a =
      core::RelationshipSnapshot::Build(std::move(corpus_a), options);
  ASSERT_TRUE(snap_a.ok());
  options.version = 2;
  auto snap_b =
      core::RelationshipSnapshot::Build(std::move(corpus_b), options);
  ASSERT_TRUE(snap_b.ok());
  const uint64_t fp_a = (*snap_a)->fingerprint();
  const uint64_t fp_b = (*snap_b)->fingerprint();
  ASSERT_NE(fp_a, fp_b);

  server::SnapshotStore store;
  store.Publish(snap_a.value());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const server::SnapshotPtr snap = store.Current();
        ASSERT_NE(snap, nullptr);
        const uint64_t version = snap->version();
        const uint64_t fingerprint = snap->fingerprint();
        // The pair is atomic: version 1 always carries A's fingerprint,
        // version 2 always B's.
        EXPECT_TRUE((version == 1 && fingerprint == fp_a) ||
                    (version == 2 && fingerprint == fp_b))
            << "torn snapshot: v" << version;
        // The snapshot stays fully usable even after being unpublished.
        auto ids = snap->Containers(static_cast<qb::ObsId>(reads.load() % 40),
                                    Deadline());
        EXPECT_TRUE(ids.ok());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread publisher([&] {
    for (int i = 0; i < 2000; ++i) {
      store.Publish(i % 2 == 0 ? snap_b.value() : snap_a.value());
    }
    stop.store(true, std::memory_order_relaxed);
  });
  publisher.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);
}

// --- Refreshed snapshots under a reload storm --------------------------------

TEST(ServerRaceStressTest, ReadersScanRefreshedSnapshotsWhileTheStoreReloads) {
  // A publisher reloads a chain of extensions of one base, each a refresh
  // that shares the base's frozen rows and copies the previous tail, then
  // republishes the base and starts over, while readers page through
  // whatever is current. MakeRandomCorpus(seed, n) is a prefix of
  // (seed, n + k), so every reload extends the one before it. A reader must
  // see exactly the relationships a Build of that corpus holds.
  constexpr uint64_t kSeed = 53;
  const std::size_t sizes[] = {40, 44, 48, 52, 56, 60};
  std::vector<std::size_t> expected(sizes[5] + 1, 0);
  core::RelationshipSnapshot::Ptr base;
  for (std::size_t n : sizes) {
    auto built = core::RelationshipSnapshot::Build(MakeRandomCorpus(kSeed, n),
                                                   {});
    ASSERT_TRUE(built.ok());
    expected[n] = (*built)->num_full() + (*built)->num_partial() +
                  (*built)->num_complementary();
    if (n == sizes[0]) base = built.value();
  }

  server::SnapshotStore store;
  store.Publish(base);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scans{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const server::SnapshotPtr snap = store.Current();
        ASSERT_NE(snap, nullptr);
        std::size_t records = 0;
        core::ScanCursor cursor;
        for (bool more = true; more;) {
          std::vector<core::ScanRecord> page;
          ASSERT_TRUE(
              snap->ScanPage(cursor, 97, Deadline(), &page, &more).ok());
          records += page.size();
          // A page that repeats records would otherwise never end.
          ASSERT_LE(records, expected[snap->num_observations()]);
          if (more) cursor = {page.back().kind, page.back().a, page.back().b};
        }
        EXPECT_EQ(records, expected[snap->num_observations()])
            << "v" << snap->version();
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread publisher([&] {
    for (int round = 0; round < 20; ++round) {
      for (std::size_t i = 1; i < std::size(sizes); ++i) {
        EXPECT_TRUE(
            store.Reload(MakeRandomCorpus(kSeed, sizes[i]), Deadline()).ok());
      }
      store.Publish(base);
    }
    stop.store(true, std::memory_order_relaxed);
  });
  publisher.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(scans.load(), 0u);
}

// --- Lock-order stress (TSan deadlock detection) ------------------------------
// scripts/check_sanitizers.sh runs this binary with
// TSAN_OPTIONS=detect_deadlocks=1: TSan builds a runtime lock-order graph
// from the interleavings below — the dynamic twin of the static gate
// (rdfcube_callgraph lock-order-cycle vs tools/lock_order.txt, DESIGN.md
// §5i). These tests deliberately hold several unrelated Mutexes hot at
// once, in every combination the tree actually uses, so an order inversion
// introduced anywhere in the server's request path / SnapshotStore /
// TraceCollector shows up as a reported deadlock cycle with both
// acquisition stacks.

TEST(LockOrderStressTest, MixedLockSurfacesKeepOneGlobalOrder) {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  collector.Enable(/*ring_capacity=*/256);
  qb::Corpus corpus = MakeRandomCorpus(61, 30);
  core::RelationshipSnapshot::BuildOptions options;
  options.version = 7;
  auto snap = core::RelationshipSnapshot::Build(std::move(corpus), options);
  ASSERT_TRUE(snap.ok());
  server::ServerOptions server_options;
  server_options.num_workers = 2;
  server::Server srv(server_options);
  ASSERT_TRUE(srv.Start(snap.value()).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};

  // Live traffic: every request reads the store (store.mu_), records its
  // server/handle span (ThreadTrace::mu) and a slowlog entry (the ring's
  // mutex) on a loop thread, and none of them nests under another — exactly
  // the ordering TSan verifies while the publisher and walker below take
  // the same locks from other threads.
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      server::ClientOptions copts;
      copts.port = srv.port();
      copts.jitter_seed = static_cast<uint64_t>(c + 1);
      server::Client client(copts);
      for (int i = 0; i < 1500; ++i) {
        auto ids = client.Containers(static_cast<qb::ObsId>(i % 30));
        if (ids.ok()) answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Publisher: republishes the snapshot the loops are reading.
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      obs::TraceSpan span("lockstress/publish");
      srv.store().Publish(snap.value());
    }
  });
  // Registry walker: Snapshot()/Clear() exercise the one sanctioned nesting
  // in the tree (registry_mu_ -> ThreadTrace::mu) against the span-recording
  // loops above, interleaved with the store lock.
  std::thread walker([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)collector.Snapshot();
      collector.Clear();
    }
  });
  for (std::thread& t : clients) t.join();
  stop.store(true, std::memory_order_release);
  publisher.join();
  walker.join();
  srv.Stop();
  collector.Disable();
  EXPECT_EQ(answered.load(), 2u * 1500u);
  EXPECT_EQ(srv.requests_total(), answered.load());
}

TEST(LockOrderStressTest, CollectorLifecycleStormNeverInvertsRegistryOrder) {
  // Enable/Disable/Clear resize and walk the per-thread rings under
  // registry_mu_ while spans take only their own ThreadTrace::mu. The
  // reverse nesting (ring lock -> registry lock) must never occur; with
  // detect_deadlocks=1 TSan proves it over thousands of interleavings.
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  std::atomic<bool> stop{false};
  std::vector<std::thread> spanners;
  for (int t = 0; t < 3; ++t) {
    spanners.emplace_back([&stop] {
      while (!stop.load(std::memory_order_acquire)) {
        obs::TraceSpan outer("lockstress/outer");
        obs::TraceSpan inner("lockstress/inner");
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    collector.Enable(/*ring_capacity=*/(i % 2 == 0) ? 64 : 256);
    (void)collector.Snapshot();
    if (i % 5 == 4) collector.Clear();
    if (i % 25 == 24) collector.Disable();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : spanners) t.join();
  collector.Disable();
  (void)collector.dropped();
}

}  // namespace
}  // namespace core
}  // namespace rdfcube
