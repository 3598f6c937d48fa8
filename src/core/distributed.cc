#include "core/distributed.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <unordered_set>

#include "core/cube_masking.h"
#include "core/lattice.h"
#include "core/pair_kernel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qb/cube_space.h"
#include "qb/observation_set.h"
#include "util/fault.h"

namespace rdfcube {
namespace core {

namespace obx = ::rdfcube::obs;

namespace {

// Flushes the recovery-related deltas of a run into the global registry when
// the run ends (RAII so timeouts and fault-driven early returns still count).
class DistributedCounterFlusher {
 public:
  explicit DistributedCounterFlusher(DistributedStats* stats)
      : stats_(stats), before_(*stats) {}
  ~DistributedCounterFlusher() {
    static obs::Counter& crashes =
        obs::DefaultCounter("rdfcube_distributed_worker_crashes_total",
                            "Injected worker crashes observed");
    static obs::Counter& retries = obs::DefaultCounter(
        "rdfcube_distributed_task_retries_total", "Task retries after crashes");
    static obs::Counter& reassigns =
        obs::DefaultCounter("rdfcube_distributed_reassignments_total",
                            "Tasks moved to a surviving worker");
    static obs::Counter& lost = obs::DefaultCounter(
        "rdfcube_distributed_workers_lost_total", "Workers declared dead");
    static obs::Counter& dropped =
        obs::DefaultCounter("rdfcube_distributed_messages_dropped_total",
                            "Messages lost and detected via ack timeout");
    static obs::Counter& replayed = obs::DefaultCounter(
        "rdfcube_distributed_messages_replayed_total", "Message resends");
    static obs::Counter& duplicates =
        obs::DefaultCounter("rdfcube_distributed_messages_duplicate_total",
                            "Duplicate deliveries discarded by dedup");
    crashes.Increment(stats_->worker_crashes - before_.worker_crashes);
    retries.Increment(stats_->task_retries - before_.task_retries);
    reassigns.Increment(stats_->reassignments - before_.reassignments);
    lost.Increment(stats_->workers_lost - before_.workers_lost);
    dropped.Increment(stats_->dropped_messages - before_.dropped_messages);
    replayed.Increment(stats_->replayed_messages - before_.replayed_messages);
    duplicates.Increment(stats_->duplicate_messages -
                         before_.duplicate_messages);
  }

 private:
  DistributedStats* stats_;
  DistributedStats before_;
};

constexpr std::size_t kDeadlineStride = 4096;

// Evaluates one ordered cross-partition observation pair under the fused
// semantics, through the shared pair kernel (core/pair_kernel.h).
void EvaluatePair(const qb::ObservationSet& obs,
                  const RelationshipSelector& sel, qb::ObsId a, qb::ObsId b,
                  bool same_signature, RelationshipSink* sink) {
  const std::size_t kd = obs.space().num_dimensions();
  if (obs.SharesMeasure(a, b) &&
      (sel.full_containment || sel.partial_containment)) {
    uint64_t mask = 0;
    const std::size_t count = CountContainingDims(
        obs, a, b, sel.partial_dimension_map ? &mask : nullptr);
    if (count == kd) {
      if (sel.full_containment) sink->OnFullContainment(a, b);
    } else if (count > 0 && sel.partial_containment) {
      sink->OnPartialContainment(
          a, b, static_cast<double>(count) / static_cast<double>(kd), mask);
    }
  }
  if (sel.complementarity && same_signature && a < b && ValuesEqual(obs, a, b)) {
    sink->OnComplementarity(a, b);
  }
}

// Commits a successful attempt's buffered output into the real sink, in
// emission order (so a recovered run streams the exact failure-free
// sequence).
void Replay(const CollectingSink& buffer, RelationshipSink* sink) {
  for (const auto& [a, b] : buffer.full()) sink->OnFullContainment(a, b);
  for (const auto& p : buffer.partial()) {
    sink->OnPartialContainment(p.a, p.b, p.degree, p.dim_mask);
  }
  for (const auto& [a, b] : buffer.complementary()) {
    sink->OnComplementarity(a, b);
  }
}

// Cluster-membership and recovery bookkeeping of one run: which workers are
// alive, retry/backoff policy, and message delivery with drop/replay and
// duplicate dedup.
class Recovery {
 public:
  Recovery(const DistributedOptions& options, DistributedStats* stats,
           std::size_t workers)
      : options_(options),
        stats_(stats),
        alive_(workers, true),
        survivors_(workers) {}

  // Runs `body` (which emits into a fresh buffer) as a task of worker
  // `*worker`. An injected crash discards the attempt's buffer and retries
  // with capped exponential backoff; past the retry budget the worker is
  // declared dead and the task reassigned to a survivor (updating
  // `*worker`). On success the buffer is committed to `sink`.
  Status Execute(std::size_t* worker, RelationshipSink* sink,
                 const std::function<Status(RelationshipSink*)>& body) {
    std::size_t attempts = 0;
    while (true) {
      if (!alive_[*worker]) {
        // The assigned worker died in an earlier task; detected when this
        // task is dispatched.
        RDFCUBE_RETURN_IF_ERROR(Reassign(worker));
        attempts = 0;
      }
      CollectingSink buffer;
      Status st = body(&buffer);
      if (FaultTriggered(kFaultWorkerCrash)) {
        // The attempt's partial output dies with the worker process.
        if (stats_ != nullptr) ++stats_->worker_crashes;
        ++attempts;
        AccountBackoff(attempts);
        if (attempts > options_.max_retries_per_task) {
          KillWorker(*worker);
          RDFCUBE_RETURN_IF_ERROR(Reassign(worker));
          attempts = 0;
        } else if (stats_ != nullptr) {
          ++stats_->task_retries;
        }
        continue;
      }
      if (!st.ok()) return st;  // real failure (e.g. deadline): not retried
      Replay(buffer, sink);
      return Status::OK();
    }
  }

  // One message delivery: injected drops are detected (ack timeout in a
  // real deployment) and resent until the budget runs out; a duplicated
  // delivery arrives with an already-seen sequence number and is discarded.
  Status Deliver() {
    std::size_t sends = 1;
    while (FaultTriggered(kFaultMessageDrop)) {
      if (stats_ != nullptr) ++stats_->dropped_messages;
      if (sends > options_.max_message_resends) {
        return Status::ResourceExhausted(
            "distributed message exceeded its resend budget");
      }
      ++sends;
      if (stats_ != nullptr) ++stats_->replayed_messages;
    }
    if (FaultTriggered(kFaultMessageDuplicate)) {
      if (stats_ != nullptr) ++stats_->duplicate_messages;
    }
    return Status::OK();
  }

 private:
  Status Reassign(std::size_t* worker) {
    if (survivors_ == 0) {
      return Status::Internal("all workers lost; nothing left to reassign to");
    }
    std::size_t w = *worker;
    do {
      w = (w + 1) % alive_.size();
    } while (!alive_[w]);
    *worker = w;
    if (stats_ != nullptr) ++stats_->reassignments;
    return Status::OK();
  }

  void KillWorker(std::size_t w) {
    if (!alive_[w]) return;
    alive_[w] = false;
    --survivors_;
    if (stats_ != nullptr) ++stats_->workers_lost;
  }

  void AccountBackoff(std::size_t attempt) {
    if (stats_ == nullptr) return;
    const double wait =
        options_.backoff_initial_ms * std::pow(2.0, static_cast<double>(attempt - 1));
    stats_->simulated_backoff_ms += std::min(wait, options_.backoff_cap_ms);
  }

  const DistributedOptions& options_;
  DistributedStats* stats_;
  std::vector<bool> alive_;
  std::size_t survivors_;
};

}  // namespace

Status RunDistributedMasking(const qb::ObservationSet& obs,
                             const DistributedOptions& options,
                             RelationshipSink* sink,
                             DistributedStats* stats) {
  DistributedStats fallback_stats;
  if (stats == nullptr) stats = &fallback_stats;
  DistributedCounterFlusher flusher(stats);
  const std::size_t workers =
      options.num_workers == 0 ? 1 : options.num_workers;
  const RelationshipSelector& sel = options.selector;

  // --- Partition (round-robin) and build worker-local lattices. -------------
  std::vector<Lattice> local(workers);
  for (qb::ObsId i = 0; i < obs.size(); ++i) {
    local[i % workers].AddObservation(obs, i);
  }
  if (stats != nullptr) {
    stats->num_workers = workers;
    for (const Lattice& lattice : local) stats->local_cubes += lattice.num_cubes();
  }

  Recovery recovery(options, stats, workers);
  // owner[p]: the worker currently hosting partition p's computation
  // (diverges from p after reassignments).
  std::vector<std::size_t> owner(workers);
  std::iota(owner.begin(), owner.end(), 0);

  // --- Local phase: each partition relates its own observations. ------------
  obx::TraceSpan local_span("distributed/local_phase");
  CubeMaskingOptions masking;
  masking.selector = sel;
  masking.deadline = options.deadline;
  for (std::size_t p = 0; p < workers; ++p) {
    // Packed once per partition: a retried attempt reads the same table.
    const MemberTable table(obs, local[p]);
    CubeMaskingStats mstats;
    RDFCUBE_RETURN_IF_ERROR(recovery.Execute(
        &owner[p], sink, [&](RelationshipSink* out) {
          mstats = CubeMaskingStats();  // attempt-local; survivors commit
          return RunCubeMasking(obs, local[p], table, masking, out, &mstats);
        }));
    if (stats != nullptr) stats->local_pairs += mstats.observation_pairs_compared;
  }

  local_span.End();

  // --- Cross phase: signature exchange, then candidate-cube shipping. -------
  obx::TraceSpan cross_span("distributed/cross_phase");
  for (std::size_t u = 0; u < workers; ++u) {
    for (std::size_t v = u + 1; v < workers; ++v) {
      // Signature exchange, one message per direction.
      for (int direction = 0; direction < 2; ++direction) {
        if (stats != nullptr) ++stats->signature_messages;
        RDFCUBE_RETURN_IF_ERROR(recovery.Deliver());
      }
      // The pair evaluation runs on partition u's current owner; v's
      // candidate cubes ship there.
      std::size_t attempt_cross_pairs = 0;
      std::size_t attempt_shipped = 0;
      RDFCUBE_RETURN_IF_ERROR(recovery.Execute(
          &owner[u], sink, [&](RelationshipSink* out) {
            attempt_cross_pairs = 0;
            attempt_shipped = 0;
            std::size_t since_check = 0;
            // Which of v's cubes must ship to u (any comparability in
            // either direction makes the pair a candidate).
            std::unordered_set<CubeId> shipped_cubes;
            for (CubeId cu = 0; cu < local[u].num_cubes(); ++cu) {
              const CubeSignature& su = local[u].signature(cu);
              for (CubeId cv = 0; cv < local[v].num_cubes(); ++cv) {
                const CubeSignature& sv = local[v].signature(cv);
                const bool forward = sel.partial_containment
                                         ? su.DominatesAny(sv)
                                         : su.DominatesAll(sv);
                const bool backward = sel.partial_containment
                                          ? sv.DominatesAny(su)
                                          : sv.DominatesAll(su);
                if (!forward && !backward) continue;
                if (shipped_cubes.insert(cv).second) {
                  attempt_shipped += local[v].members(cv).size();
                  RDFCUBE_RETURN_IF_ERROR(recovery.Deliver());  // shipment
                }
                const bool same_signature = su == sv;
                for (qb::ObsId a : local[u].members(cu)) {
                  for (qb::ObsId b : local[v].members(cv)) {
                    if (++since_check >= kDeadlineStride) {
                      since_check = 0;
                      if (options.deadline.Expired()) {
                        return Status::TimedOut(
                            "distributed masking exceeded its deadline");
                      }
                    }
                    attempt_cross_pairs += 2;
                    if (forward) {
                      EvaluatePair(obs, sel, a, b, same_signature, out);
                    }
                    if (backward) {
                      EvaluatePair(obs, sel, b, a, same_signature, out);
                    }
                  }
                }
              }
            }
            return Status::OK();
          }));
      if (stats != nullptr) {
        stats->cross_pairs += attempt_cross_pairs;
        stats->shipped_observations += attempt_shipped;
      }
    }
  }
  return Status::OK();
}

}  // namespace core
}  // namespace rdfcube
