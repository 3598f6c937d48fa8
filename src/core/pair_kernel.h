// rdfcube:internal — the observation-pair kernel, not part of the public API
// (excluded from the src/rdfcube/rdfcube.h umbrella; see tools/rdfcube_lint).
//
// Dimensional containment between two observations over the root-padded
// dimension space (paper §3.1): `a` contains `b` on dimension d when a's
// value is an ancestor-or-self of b's. cubeMasking's passes, the incremental
// engine and the snapshot's refresh delta all evaluate pairs through these
// forms, so every exact engine shares one definition. The measure gate
// (Def. 4 condition 3) stays with the callers: complementarity must not
// apply it.

#ifndef RDFCUBE_CORE_PAIR_KERNEL_H_
#define RDFCUBE_CORE_PAIR_KERNEL_H_

#include <cstddef>
#include <cstdint>

#include "base/hot.h"
#include "hierarchy/code_list.h"
#include "qb/cube_space.h"
#include "qb/observation_set.h"

namespace rdfcube {
namespace core {

/// checkFullCont of Algorithm 4, dimension part only: `a` contains `b` on
/// every dimension.
RDFCUBE_HOT inline bool DimsContain(const qb::ObservationSet& obs, qb::ObsId a,
                                    qb::ObsId b) {
  const qb::CubeSpace& space = obs.space();
  const std::size_t k = space.num_dimensions();
  for (qb::DimId d = 0; d < k; ++d) {
    if (!space.code_list(d).IsAncestorOrSelf(obs.ValueOrRoot(a, d),
                                             obs.ValueOrRoot(b, d))) {
      return false;
    }
  }
  return true;
}

/// Number of dimensions on which `a` contains `b`; when `mask` is non-null,
/// also ORs in the bit of each such dimension (Algorithm 2's map_P).
RDFCUBE_HOT inline std::size_t CountContainingDims(
    const qb::ObservationSet& obs, qb::ObsId a, qb::ObsId b, uint64_t* mask) {
  const qb::CubeSpace& space = obs.space();
  const std::size_t k = space.num_dimensions();
  std::size_t count = 0;
  for (qb::DimId d = 0; d < k; ++d) {
    if (space.code_list(d).IsAncestorOrSelf(obs.ValueOrRoot(a, d),
                                            obs.ValueOrRoot(b, d))) {
      ++count;
      if (mask != nullptr) *mask |= (uint64_t{1} << d);
    }
  }
  return count;
}

/// Dimension counts of a pair in both directions.
struct ContainingDims {
  /// Dimensions on which `a` contains `b`.
  std::size_t ab = 0;
  /// Dimensions on which `b` contains `a`.
  std::size_t ba = 0;
};

/// CountContainingDims(a, b) and (b, a) in one pass over the dimensions,
/// for callers that classify an unordered pair.
RDFCUBE_HOT inline ContainingDims CountContainingDimsBothWays(
    const qb::ObservationSet& obs, qb::ObsId a, qb::ObsId b) {
  const qb::CubeSpace& space = obs.space();
  const std::size_t k = space.num_dimensions();
  ContainingDims counts;
  for (qb::DimId d = 0; d < k; ++d) {
    const hierarchy::CodeList& list = space.code_list(d);
    const hierarchy::CodeId va = obs.ValueOrRoot(a, d);
    const hierarchy::CodeId vb = obs.ValueOrRoot(b, d);
    if (list.IsAncestorOrSelf(va, vb)) ++counts.ab;
    if (list.IsAncestorOrSelf(vb, va)) ++counts.ba;
  }
  return counts;
}

/// Equal root-padded coordinates: mutual full dimensional containment, i.e.
/// complementarity (Def. 3, computational reading).
RDFCUBE_HOT inline bool ValuesEqual(const qb::ObservationSet& obs, qb::ObsId a,
                                    qb::ObsId b) {
  const std::size_t k = obs.space().num_dimensions();
  for (qb::DimId d = 0; d < k; ++d) {
    if (obs.ValueOrRoot(a, d) != obs.ValueOrRoot(b, d)) return false;
  }
  return true;
}

}  // namespace core
}  // namespace rdfcube

#endif  // RDFCUBE_CORE_PAIR_KERNEL_H_
