// Copy-on-write snapshot publication (DESIGN.md §6, "graceful degradation").
//
// The store holds the server's current RelationshipSnapshot behind a mutex-
// guarded shared_ptr. Readers grab the pointer and keep a consistent view
// for the whole request even while a reload swaps in a successor; a failed
// (or fault-injected) reload leaves the last-good snapshot published, so the
// server degrades to stale-but-consistent answers instead of going dark.

#ifndef RDFCUBE_SERVER_SNAPSHOT_STORE_H_
#define RDFCUBE_SERVER_SNAPSHOT_STORE_H_

#include <cstdint>
#include <memory>

#include "base/status.h"
#include "base/stopwatch.h"
#include "base/thread_annotations.h"
#include "core/snapshot.h"
#include "qb/corpus.h"

namespace rdfcube {
namespace server {

/// How snapshots are shared between the store, event loops, and reloaders.
using SnapshotPtr = core::RelationshipSnapshot::Ptr;

/// Injection point consulted just before a successful reload publishes its
/// snapshot: a triggered fault drops the new snapshot instead of swapping,
/// modelling a crash between build and publication.
inline constexpr char kFaultReloadSwap[] = "server.reload.swap";

/// \brief Holds the currently-published snapshot; swap is atomic wrt
/// readers, reload failures keep the last-good.
class SnapshotStore {
 public:
  SnapshotStore() = default;
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// The published snapshot (may be null before the first Publish).
  SnapshotPtr Current() const;

  /// Publishes `snap` unconditionally (initial load, tests).
  void Publish(SnapshotPtr snap);

  /// Rebuilds from `corpus` and publishes on success. Refreshes
  /// copy-on-write (BuildIncremental) when `corpus` extends the current
  /// snapshot's corpus, falls back to a full build otherwise. On ANY
  /// failure — build error, deadline expiry, injected crash, swap fault —
  /// the previously published snapshot stays current and the error is
  /// returned. The new snapshot's version is the old version + 1.
  [[nodiscard]] Status Reload(qb::Corpus corpus, const Deadline& deadline);

  /// Number of successful reloads (including the implicit version bumps).
  uint64_t reloads() const;

  /// Number of failed reload attempts that were degraded through.
  uint64_t reload_failures() const;

 private:
  mutable Mutex mu_;
  SnapshotPtr current_ RDFCUBE_GUARDED_BY(mu_);
  uint64_t reloads_ RDFCUBE_GUARDED_BY(mu_) = 0;
  uint64_t reload_failures_ RDFCUBE_GUARDED_BY(mu_) = 0;
};

}  // namespace server
}  // namespace rdfcube

#endif  // RDFCUBE_SERVER_SNAPSHOT_STORE_H_
