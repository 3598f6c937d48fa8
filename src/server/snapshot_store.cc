#include "server/snapshot_store.h"

#include <utility>

#include "core/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qb/corpus.h"
#include "util/fault.h"

namespace rdfcube {
namespace server {

SnapshotPtr SnapshotStore::Current() const {
  MutexLock lock(&mu_);
  return current_;
}

void SnapshotStore::Publish(SnapshotPtr snap) {
  MutexLock lock(&mu_);
  current_ = std::move(snap);
}

Status SnapshotStore::Reload(qb::Corpus corpus, const Deadline& deadline) {
  obs::TraceSpan span("server/reload");
  static obs::Counter& reloads = obs::DefaultCounter(
      "rdfcube_server_reloads_total", "Snapshot reloads published");
  static obs::Counter& failures = obs::DefaultCounter(
      "rdfcube_server_reload_failures_total",
      "Snapshot reloads degraded through (last-good kept)");
  const SnapshotPtr base = Current();

  core::RelationshipSnapshot::BuildOptions options;
  options.deadline = deadline;
  options.version = (base != nullptr ? base->version() + 1 : 1);
  if (base != nullptr) options.selector = base->selector();

  Result<SnapshotPtr> built = core::RelationshipSnapshot::BuildOrRefresh(
      base.get(), std::move(corpus), options);
  if (!built.ok()) {
    MutexLock lock(&mu_);
    ++reload_failures_;
    failures.Increment();
    return built.status();
  }
  if (FaultTriggered(kFaultReloadSwap)) {
    // Crash between build and publication: the finished snapshot is dropped
    // and readers keep the last-good one.
    MutexLock lock(&mu_);
    ++reload_failures_;
    failures.Increment();
    return Status::Internal("injected swap failure before publication");
  }
  {
    MutexLock lock(&mu_);
    current_ = std::move(built).value();
    ++reloads_;
  }
  reloads.Increment();
  return Status::OK();
}

uint64_t SnapshotStore::reloads() const {
  MutexLock lock(&mu_);
  return reloads_;
}

uint64_t SnapshotStore::reload_failures() const {
  MutexLock lock(&mu_);
  return reload_failures_;
}

}  // namespace server
}  // namespace rdfcube
