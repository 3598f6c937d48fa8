// Bounded ring of the slowest recent requests (DESIGN.md §5d / §6).
//
// Worker threads record every evaluated request into a SlowlogRing from the
// cold epilogue of HandleJob; the kSlowlog wire op dumps the ring as JSON.
// The ring keeps the `capacity` slowest entries seen so far: a new entry
// evicts the current minimum-latency entry only when it is strictly slower,
// so the dump converges on the worst tail rather than the most recent noise.

#ifndef RDFCUBE_SERVER_SLOWLOG_H_
#define RDFCUBE_SERVER_SLOWLOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/thread_annotations.h"

namespace rdfcube {
namespace server {

/// \brief One completed request as remembered by the slowlog.
struct SlowlogEntry {
  /// Wire Op value of the request (see protocol.h).
  uint8_t op = 0;
  /// Client correlation id echoed from the request.
  uint64_t request_id = 0;
  /// Evaluate + encode + send latency on the loop, microseconds.
  double latency_us = 0.0;
  /// Deadline budget left when the response was written, milliseconds
  /// (0 when the deadline had already expired).
  double deadline_remaining_ms = 0.0;
  /// Version of the snapshot that answered.
  uint64_t snapshot_version = 0;
  /// Ring-assigned admission order (monotonic; ties in latency dump oldest
  /// first). Assigned by Add(); caller-provided values are overwritten.
  uint64_t sequence = 0;
};

/// \brief Thread-safe bounded keep-the-slowest ring.
class SlowlogRing {
 public:
  /// A ring with space for `capacity` entries (0 disables recording).
  explicit SlowlogRing(std::size_t capacity);

  SlowlogRing(const SlowlogRing&) = delete;
  SlowlogRing& operator=(const SlowlogRing&) = delete;

  /// Offers one completed request. When full, the entry with the smallest
  /// latency (oldest first on ties) is evicted iff the newcomer is strictly
  /// slower; otherwise the newcomer is dropped.
  void Add(SlowlogEntry entry);

  /// Entries ordered by latency descending, then by sequence ascending.
  [[nodiscard]] std::vector<SlowlogEntry> Dump() const;

  /// Dump() rendered as a JSON array (op as its wire name, one object per
  /// entry) — the kSlowlog response payload.
  [[nodiscard]] std::string ToJson() const;

  /// Maximum entries retained.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Entries currently retained.
  [[nodiscard]] std::size_t size() const;

 private:
  const std::size_t capacity_;
  mutable Mutex mu_;
  std::vector<SlowlogEntry> entries_ RDFCUBE_GUARDED_BY(mu_);
  uint64_t next_sequence_ RDFCUBE_GUARDED_BY(mu_) = 0;
};

}  // namespace server
}  // namespace rdfcube

#endif  // RDFCUBE_SERVER_SLOWLOG_H_
