// The cubeMasking method (paper §3.3, Algorithm 4): prune observation
// comparisons through the level lattice, keeping 100% recall.

#ifndef RDFCUBE_CORE_CUBE_MASKING_H_
#define RDFCUBE_CORE_CUBE_MASKING_H_

#include "core/lattice.h"
#include "core/relationship.h"
#include "qb/observation_set.h"
#include "base/status.h"
#include "base/stopwatch.h"

namespace rdfcube {
namespace core {

/// \brief Options for the cubeMasking run.
struct CubeMaskingOptions {
  RelationshipSelector selector;
  Deadline deadline;
  /// The Fig. 5(g) optimization ("storing for each cube the full set of its
  /// children in memory ... an unavoidable iteration for one of the
  /// relationship types can be taken advantage of for the other two"):
  /// when more than one relationship type is selected, a single fused
  /// lattice iteration evaluates every observation pair once for all
  /// selected types, instead of one independent lattice+pair scan per type.
  /// With a single selected type the flag has no effect.
  bool prefetch_children = true;
};

/// \brief Per-run statistics (feeds Fig. 5(f): cube-to-observation ratio).
///
/// Also flushed into the global metrics registry at the end of every run
/// (rdfcube_masking_* counters), so long-lived processes accumulate across
/// runs without threading a stats pointer through.
struct CubeMaskingStats {
  std::size_t num_cubes = 0;
  std::size_t cube_pairs_checked = 0;
  std::size_t cube_pairs_comparable = 0;
  /// Observation pairs the comparable cube pairs cover: |Mj|·|Mk| minus
  /// self pairs per pair, member groups without a shared measure included
  /// although the passes skip them (the complementarity-only pass covers
  /// each cube's unordered pairs once).
  std::size_t observation_pairs_compared = 0;
  /// Relationships handed to the sink (all selected types combined).
  std::size_t relationships_emitted = 0;
};

/// \brief Runs cubeMasking over a pre-built lattice.
///
/// Relationship semantics match RunBaseline exactly (the method is lossless);
/// only the enumeration order of emitted relationships differs, and within
/// each containment pass every outer observation's containments arrive in
/// one stretch (core/relationship.h). Packs the lattice into a MemberTable
/// first (linear in members × dimensions).
///
/// `children` is the optional pre-fetched comparable-cube index (Fig. 5(g)):
/// when provided, every pass enumerates its lists instead of scanning all
/// lattice pairs; when null and `options.prefetch_children` holds, the run
/// fuses the selected relationship types into one lattice iteration.
[[nodiscard]] Status RunCubeMasking(const qb::ObservationSet& obs, const Lattice& lattice,
                      const CubeMaskingOptions& options, RelationshipSink* sink,
                      CubeMaskingStats* stats = nullptr,
                      const CubeChildrenIndex* children = nullptr);

/// \brief Runs cubeMasking over a MemberTable packed from `lattice`, for
/// callers that run more than once over one lattice (RunDistributedMasking
/// packs each partition's table once, outside its retries). Fails with
/// InvalidArgument when `table` was packed from another lattice.
[[nodiscard]] Status RunCubeMasking(const qb::ObservationSet& obs,
                                    const Lattice& lattice,
                                    const MemberTable& table,
                                    const CubeMaskingOptions& options,
                                    RelationshipSink* sink,
                                    CubeMaskingStats* stats = nullptr,
                                    const CubeChildrenIndex* children = nullptr);

/// Convenience overload building the lattice internally (the paper's
/// linear-time step i+ii).
[[nodiscard]] Status RunCubeMasking(const qb::ObservationSet& obs,
                      const CubeMaskingOptions& options, RelationshipSink* sink,
                      CubeMaskingStats* stats = nullptr);

/// \brief Runs the fused cubeMasking pass restricted to outer cubes in
/// `[begin_cube, end_cube)`, over a MemberTable packed from `lattice`.
///
/// This is the resumable and parallel substrate (core/checkpoint.h,
/// core/parallel_masking.h): the fused pass partitions the work by outer
/// cube, so a run interrupted after finishing outer cube `c` continues with
/// `begin_cube = c + 1`, and the concatenated emissions of consecutive
/// ranges equal one uninterrupted run's. Callers that cover the lattice in
/// many ranges pack `table` once and share it, read-only, across ranges and
/// threads. Always uses the fused single lattice iteration regardless of
/// `options.prefetch_children` (the fused pass is equivalent to the
/// per-type passes for every selector combination; only enumeration order
/// differs). Fails with OutOfRange when the range does not fit the lattice
/// and InvalidArgument when `table` was packed from another lattice.
[[nodiscard]] Status RunCubeMaskingOuterRange(const qb::ObservationSet& obs,
                                const Lattice& lattice,
                                const MemberTable& table,
                                const CubeMaskingOptions& options,
                                CubeId begin_cube, CubeId end_cube,
                                RelationshipSink* sink,
                                CubeMaskingStats* stats = nullptr,
                                const CubeChildrenIndex* children = nullptr);

}  // namespace core
}  // namespace rdfcube

#endif  // RDFCUBE_CORE_CUBE_MASKING_H_
