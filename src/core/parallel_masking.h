// Parallel cubeMasking (paper §6 lists distributed/parallel execution as
// future work): the outer cubes split into contiguous ranges of about equal
// work, each run by RunCubeMaskingOuterRange on a thread pool.

#ifndef RDFCUBE_CORE_PARALLEL_MASKING_H_
#define RDFCUBE_CORE_PARALLEL_MASKING_H_

#include <cstddef>

#include "core/cube_masking.h"
#include "core/lattice.h"
#include "core/relationship.h"
#include "qb/observation_set.h"
#include "base/status.h"

namespace rdfcube {
namespace core {

/// \brief Selector and thread count for the parallel masking run.
struct ParallelMaskingOptions {
  RelationshipSelector selector;
  std::size_t num_threads = 4;
};

/// \brief Runs cubeMasking with the outer cubes split into at most
/// `num_threads` contiguous ranges, balanced by the observation pairs their
/// comparable cube pairs cover. One MemberTable and one CubeChildrenIndex,
/// packed up front, are shared read-only by every range; each range runs
/// RunCubeMaskingOuterRange into a private sink, and the private sinks are
/// merged into `sink` in range order afterwards, so `sink` needs no
/// synchronization. Emits exactly the same relationships as RunCubeMasking.
[[nodiscard]] Status RunCubeMaskingParallel(const qb::ObservationSet& obs,
                              const Lattice& lattice,
                              const ParallelMaskingOptions& options,
                              RelationshipSink* sink);

}  // namespace core
}  // namespace rdfcube

#endif  // RDFCUBE_CORE_PARALLEL_MASKING_H_
