// Immutable read-side relationship snapshot (DESIGN.md §6).
//
// A RelationshipSnapshot owns a corpus together with its S_F / S_P / S_C sets
// frozen into sorted adjacency arrays, and answers point lookups and paged
// scans without any kernel work: a lookup copies one row, a scan walks rows
// in (kind, a, b) order and stops at its limit. Snapshots are immutable
// after Build(): a refreshed corpus produces a *new* snapshot (copy-on-write
// via BuildIncremental, which shares the base's frozen rows and writes only
// a tail holding the relationships of the appended observations), and
// readers holding the old shared_ptr keep a consistent view for as long as
// they need it. This is the read side the relationship server publishes
// atomically.

#ifndef RDFCUBE_CORE_SNAPSHOT_H_
#define RDFCUBE_CORE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "base/stopwatch.h"
#include "core/relationship.h"
#include "qb/corpus.h"
#include "qb/observation_set.h"

namespace rdfcube {
namespace core {

/// Injection point (util/fault.h) consulted once per observation a build
/// covers (every observation in Build, the appended ones in
/// BuildIncremental): a triggered fault aborts the build with Internal,
/// modelling a reload that crashes mid-construction.
inline constexpr char kFaultSnapshotBuild[] = "snapshot.build";

/// Injection point consulted inside SaveTo before the atomic rename: a
/// triggered fault leaves a torn *staging* file behind and fails with
/// IOError — the published path is never touched (crash-safe-swap test).
inline constexpr char kFaultSnapshotSaveStage[] = "snapshot.save.stage";

/// Magic + format version written at the head of every snapshot file.
/// Format 2 stores the frozen adjacency arrays; format-1 files (a serialized
/// incremental engine) are rejected as corrupt.
inline constexpr char kSnapshotMagic[8] = {'R', 'D', 'F', 'S',
                                           'N', 'A', 'P', '2'};

/// \brief A position in scan order.
///
/// Scans return relationships in ascending (kind, a, b) order, kinds
/// compared as bytes: 'C' complementarity, then 'F' full containment, then
/// 'P' partial containment. A cursor is the key of the last relationship a
/// reader holds; resuming returns every key strictly greater. Kind 0 sorts
/// before every relationship ("from the start"). Keys need not exist in the
/// snapshot, so a cursor stays meaningful across a reload.
struct ScanCursor {
  uint8_t kind = 0;
  qb::ObsId a = 0;
  qb::ObsId b = 0;
};

/// \brief One relationship as a scan returns it.
struct ScanRecord {
  /// 'F' full containment, 'P' partial, 'C' complementarity.
  uint8_t kind = 0;
  qb::ObsId a = 0;
  qb::ObsId b = 0;
  /// Degree for 'P' records, 0 otherwise.
  double degree = 0.0;
};

/// \brief Immutable corpus + frozen relationship arrays, built once and
/// then shared read-only (the unit of publication for the server).
class RelationshipSnapshot {
 public:
  /// How snapshots are passed around: always shared, always const.
  using Ptr = std::shared_ptr<const RelationshipSnapshot>;

  /// \brief Inputs to Build/BuildIncremental beyond the corpus itself.
  struct BuildOptions {
    /// Which relationship types to materialize.
    RelationshipSelector selector = RelationshipSelector::All();
    /// Cooperative build deadline; expiry fails the build with TimedOut.
    /// Build checks it on entry and inside the masking kernel (every few
    /// thousand pairs), not while gathering the rows; BuildIncremental
    /// checks it once per appended observation.
    Deadline deadline;
    /// Monotonic publication version stamped on the snapshot (the server's
    /// reload counter; echoed in every response for staleness checks).
    uint64_t version = 0;
  };

  /// \brief CSR rows: row `r` lists its partners in
  /// ids[offsets[r], offsets[r + 1]), strictly ascending.
  struct Rows {
    /// One entry per row plus one (none for no rows); offsets[0] == 0, the
    /// last equals ids.size().
    std::vector<uint64_t> offsets;
    std::vector<qb::ObsId> ids;
    /// Partial containment only: per entry, the number of dimensions on
    /// which the row contains the partner (degree = count / dimensions).
    std::vector<uint8_t> counts;

    bool operator==(const Rows& other) const = default;
  };

  /// \brief One relationship type: frozen rows, shared between snapshot
  /// versions, then this snapshot's own tail. Row `r` is frozen row `r`
  /// (empty past the frozen rows' end), then tail row `r` (empty without a
  /// tail); every tail partner exceeds every frozen partner of its row, so
  /// the row stays strictly ascending. Build and LoadFrom write frozen rows
  /// and no tail. A refresh keeps its base's frozen rows and writes the
  /// base's tail plus its delta as its own tail, unless that tail would hold
  /// more entries than the frozen rows: then it writes one flat frozen set
  /// instead (a fold). A row is two stretches at most either way; the fold
  /// bounds the tail a refresh copies by the frozen rows under it, where
  /// without it every refresh in a chain would copy everything appended
  /// since the last flat write.
  struct RowSet {
    /// Never null once the snapshot is built.
    std::shared_ptr<const Rows> frozen;
    Rows tail;

    std::size_t entries() const { return frozen->ids.size() + tail.ids.size(); }
  };

  /// \brief Builds a snapshot from the corpus alone. One cubeMasking run,
  /// whose fused pass reports each observation's containments in one
  /// stretch, writes each full and partial row as its stretch ends,
  /// partners ascending; one pass then gathers the rows into CSR. Fails with
  /// InvalidArgument on an empty corpus handle, TimedOut when the deadline
  /// expires (also when it already has on entry), Internal when
  /// kFaultSnapshotBuild fires or when an observation's containments
  /// arrive in two stretches (a row is never written wrong).
  static Result<Ptr> Build(qb::Corpus corpus, const BuildOptions& options);

  /// \brief Copy-on-write refresh: `corpus` must extend the base snapshot's
  /// corpus, which is checked by comparing the two corpora directly: equal
  /// dimension and measure counts; each dimension's code list keeps every
  /// base code under the same parent (codes may be appended, which leaves
  /// the ancestry among the old codes as it was); and observations
  /// [0, base.num_observations()) have the same dataset, root-padded codes
  /// and measures with bit-identical values. FailedPrecondition otherwise,
  /// an edited hierarchy included; InvalidArgument on an empty corpus
  /// handle. Only the pairs involving an appended observation are
  /// evaluated, with the pair kernel's row forms over the corpus's labels
  /// packed once. Each row set keeps the base's frozen rows and writes its
  /// tail in one pass: every row's base tail, then its new partners in
  /// evaluation order, which is already ascending (see RowSet for the fold
  /// into flat frozen rows). Refresh cost is O(delta × n) plus the tail;
  /// the base rows are never copied. TimedOut when the deadline expires
  /// (checked once per appended observation), Internal when
  /// kFaultSnapshotBuild fires. The base snapshot is not modified and may
  /// be released first. The selector is inherited from `base`;
  /// `options.selector` is ignored.
  static Result<Ptr> BuildIncremental(const RelationshipSnapshot& base,
                                      qb::Corpus corpus,
                                      const BuildOptions& options);

  /// \brief The build a reload needs: BuildIncremental's refresh of `base`
  /// when it is non-null and `corpus` extends its corpus (the same
  /// comparison, made once), else Build of `corpus` with
  /// `options.selector`.
  static Result<Ptr> BuildOrRefresh(const RelationshipSnapshot* base,
                                    qb::Corpus corpus,
                                    const BuildOptions& options);

  /// Publication version stamped at build time.
  uint64_t version() const { return version_; }

  /// FingerprintObservations() of the snapped corpus, computed on each
  /// call (O(observations × dimensions)); readers can assert that answers
  /// from one connection all came from the same data.
  uint64_t fingerprint() const;

  /// Relationship types this snapshot materialized.
  const RelationshipSelector& selector() const { return selector_; }

  /// The snapped observations (stable for the snapshot's lifetime).
  const qb::ObservationSet& observations() const {
    return *corpus_.observations;
  }

  /// Number of snapped observations (valid query ids are [0, this)).
  std::size_t num_observations() const { return corpus_.observations->size(); }

  std::size_t num_full() const { return full_.entries(); }
  std::size_t num_partial() const { return partial_.entries(); }
  /// Unordered complementary pairs (each is stored in both rows).
  std::size_t num_complementary() const { return compl_.entries() / 2; }

  // Point lookups. Each copies one row, its frozen stretch then its tail
  // (O(partners of id)); ids are ascending. NotFound when `id` is not a
  // snapped observation, TimedOut when `deadline` already expired on entry
  // (the copy itself is too cheap to interrupt).

  /// Observations that fully contain `id`.
  Result<std::vector<qb::ObsId>> Containers(qb::ObsId id,
                                            const Deadline& deadline) const;

  /// Observations `id` fully contains.
  Result<std::vector<qb::ObsId>> Contained(qb::ObsId id,
                                           const Deadline& deadline) const;

  /// Observations complementary to `id`.
  Result<std::vector<qb::ObsId>> Complements(qb::ObsId id,
                                             const Deadline& deadline) const;

  /// Observations partially contained by `id` with degree >= `min_degree`.
  Result<std::vector<PartialMatch>> PartiallyContained(
      qb::ObsId id, double min_degree, const Deadline& deadline) const;

  /// Appends to `out` the first `limit` relationships after `after` in scan
  /// order (fewer at the end) and sets `*more` when at least one further
  /// relationship follows the last one appended. The walk stops at the
  /// limit. TimedOut when `deadline` expires (checked on entry and every
  /// few thousand records; `out` then holds a prefix of the page).
  [[nodiscard]] Status ScanPage(const ScanCursor& after, std::size_t limit,
                                const Deadline& deadline,
                                std::vector<ScanRecord>* out,
                                bool* more) const;

  /// Streams every relationship into `sink` in scan order: ScanPage's walk
  /// from the start with no limit. TimedOut as for ScanPage (the sink then
  /// holds a prefix).
  [[nodiscard]] Status ScanAll(RelationshipSink* sink,
                               const Deadline& deadline) const;

  /// True when `other` holds bit-identical rows for every relationship
  /// type, in both directions, however each splits them into frozen rows
  /// and a tail.
  bool SameRelationships(const RelationshipSnapshot& other) const;

  /// Atomically persists the snapshot (staged write + rename, reusing
  /// AtomicWriteFile): a crash mid-save can never tear the published file.
  /// Rows are written flat, so a refreshed snapshot's file is byte-identical
  /// to a Build's over the same corpus and version.
  /// IOError on filesystem failure or when kFaultSnapshotSaveStage fires.
  [[nodiscard]] Status SaveTo(const std::string& path) const;

  /// Loads a snapshot written by SaveTo: a validated copy of the stored
  /// rows, with the derived rows rebuilt as Build derives them. IOError
  /// when unreadable, ParseError on corruption (bad magic or format
  /// version, truncation, out-of-range lengths, rows that are not strictly
  /// ascending or name an id outside the corpus, degrees outside (0, 1),
  /// or a corpus whose fingerprint does not match the recorded one).
  static Result<Ptr> LoadFrom(const std::string& path);

 private:
  RelationshipSnapshot(qb::Corpus corpus, const RelationshipSelector& selector,
                       uint64_t version)
      : corpus_(std::move(corpus)), selector_(selector), version_(version) {}

  // BuildIncremental once `corpus` is known to extend `base`.
  static Result<Ptr> Refresh(const RelationshipSnapshot& base,
                             qb::Corpus corpus, const BuildOptions& options);

  // The one scan walk behind ScanPage and ScanAll.
  template <typename Emit>
  Status Walk(const ScanCursor& after, std::size_t limit,
              const Deadline& deadline, Emit&& emit, bool* more) const;

  qb::Corpus corpus_;
  RelationshipSelector selector_;
  uint64_t version_ = 0;
  RowSet full_;        // a -> b: a fully contains b (scans, Contained)
  RowSet containers_;  // b -> a: the transpose of full_ (Containers)
  RowSet partial_;     // a -> b with counts (scans, PartiallyContained)
  RowSet compl_;       // both directions (Complements; scans take a < b)
};

}  // namespace core
}  // namespace rdfcube

#endif  // RDFCUBE_CORE_SNAPSHOT_H_
