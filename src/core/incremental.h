// Incremental maintenance of relationship sets (paper §6 lists incremental
// techniques as future work; implemented here): observations can be added or
// retired one at a time, and the stored S_F / S_P / S_C sets are updated by
// comparing only against lattice-comparable cubes.

#ifndef RDFCUBE_CORE_INCREMENTAL_H_
#define RDFCUBE_CORE_INCREMENTAL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/lattice.h"
#include "core/relationship.h"
#include "qb/observation_set.h"
#include "base/status.h"

namespace rdfcube {
namespace core {

/// Magic + version written at the head of every incremental-engine snapshot.
inline constexpr char kIncrementalMagic[8] = {'R', 'D', 'F', 'I',
                                              'N', 'C', 'R', '1'};

/// \brief Maintains materialized relationship sets under observation
/// insertions and retirements.
///
/// The engine references an ObservationSet that the caller appends to; after
/// each append, call OnObservationAdded(id). Retiring an observation removes
/// every stored relationship involving it (the ObservationSet itself is
/// append-only; retired ids are simply excluded from future comparisons).
///
/// Invariant (tested property): after any sequence of adds/retires, the
/// stored sets equal a from-scratch batch run over the live observations.
class IncrementalEngine {
 public:
  /// `obs` must outlive the engine. `selector` fixes which relationship
  /// types are maintained.
  IncrementalEngine(const qb::ObservationSet* obs,
                    const RelationshipSelector& selector);

  /// Integrates observation `id` (must already be in the set, not yet seen
  /// by the engine).
  [[nodiscard]] Status OnObservationAdded(qb::ObsId id);

  /// Retires `id`: removes all stored relationships that involve it.
  [[nodiscard]] Status OnObservationRetired(qb::ObsId id);

  // --- Queries ---------------------------------------------------------------
  bool HasFullContainment(qb::ObsId a, qb::ObsId b) const {
    return full_.count(Key(a, b)) != 0;
  }
  bool HasComplementarity(qb::ObsId a, qb::ObsId b) const {
    return compl_.count(Key(a < b ? a : b, a < b ? b : a)) != 0;
  }
  /// Degree of Cont_partial(a, b), or 0 when absent.
  double PartialDegree(qb::ObsId a, qb::ObsId b) const;

  // Point lookups over the materialized sets: each costs O(partners of id)
  // hash probes against the stored S_F / S_P / S_C, no kernel work. Results
  // are sorted ascending. A dead or never-integrated id yields an empty
  // result.

  /// Live observations that fully contain `id` (its roll-up targets).
  std::vector<qb::ObsId> Containers(qb::ObsId id) const;

  /// Live observations `id` fully contains (its drill-down targets).
  std::vector<qb::ObsId> Contained(qb::ObsId id) const;

  /// Live observations complementary to `id`.
  std::vector<qb::ObsId> Complements(qb::ObsId id) const;

  /// Live observations partially contained by `id` with degree >= min_degree,
  /// sorted by id.
  std::vector<PartialMatch> PartiallyContained(qb::ObsId id,
                                               double min_degree = 0.0) const;

  std::size_t num_full() const { return full_.size(); }
  std::size_t num_partial() const { return partial_.size(); }
  std::size_t num_complementary() const { return compl_.size(); }

  /// Dumps the current sets into a sink (ordering unspecified).
  void Export(RelationshipSink* sink) const;

  // --- Checkpointing ---------------------------------------------------------
  // A long add/retire stream can snapshot the engine periodically; a killed
  // process reconstructs the engine from the last snapshot and replays only
  // the updates that followed it (tested property: the resumed engine's sets
  // equal an uninterrupted engine's).

  /// Serializes the full engine state — selector, live observation ids, and
  /// the stored S_F / S_P / S_C sets — to a versioned byte string.
  std::string SerializeState() const;

  /// Restores state produced by SerializeState. The engine must be freshly
  /// constructed (no observations integrated) over an ObservationSet that
  /// still contains every live id; the lattice is rebuilt from the live ids.
  /// Fails with FailedPrecondition when the engine already has state or the
  /// snapshot's selector differs from this engine's, ParseError on
  /// corruption.
  [[nodiscard]] Status RestoreState(const std::string& bytes);

  /// Atomically writes SerializeState() to `path` (IOError on failure).
  [[nodiscard]] Status SaveCheckpoint(const std::string& path) const;

  /// Reads `path` and RestoreState()s it.
  [[nodiscard]] Status RestoreFromCheckpoint(const std::string& path);

 private:
  static uint64_t Key(qb::ObsId a, qb::ObsId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  // Pairwise evaluation of the new observation against one candidate.
  void Compare(qb::ObsId a, qb::ObsId b);
  void Link(qb::ObsId a, qb::ObsId b);

  const qb::ObservationSet* obs_;
  RelationshipSelector selector_;
  Lattice lattice_;
  std::vector<bool> live_;

  std::unordered_set<uint64_t> full_;
  std::unordered_map<uint64_t, double> partial_;
  std::unordered_set<uint64_t> compl_;
  // For O(degree) retirement: all partners an observation participates with.
  std::unordered_map<qb::ObsId, std::vector<qb::ObsId>> partners_;
};

}  // namespace core
}  // namespace rdfcube

#endif  // RDFCUBE_CORE_INCREMENTAL_H_
