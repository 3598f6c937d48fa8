// rdfcube:internal — the observation-pair kernel, not part of the public API
// (excluded from the src/rdfcube/rdfcube.h umbrella; see tools/rdfcube_lint).
//
// Dimensional containment between two observations over the root-padded
// dimension space (paper §3.1): `a` contains `b` on dimension d when a's
// value is an ancestor-or-self of b's, i.e. when a's Euler-tour interval
// encloses b's. Every form below reduces to Encloses on those labels: the
// ObservationSet forms (incremental engine, distributed cross phase) read
// them through the code lists, the row forms (cubeMasking's passes, the
// snapshot refresh delta) read them packed, in a MemberTable or a corpus-wide
// label array. The measure gate (Def. 4 condition 3) stays with the callers:
// complementarity must not apply it.

#ifndef RDFCUBE_CORE_PAIR_KERNEL_H_
#define RDFCUBE_CORE_PAIR_KERNEL_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "base/hot.h"
#include "core/lattice.h"
#include "hierarchy/code_list.h"
#include "qb/cube_space.h"
#include "qb/observation_set.h"

namespace rdfcube {
namespace core {

/// The containment test: the code labelled `a` is an ancestor-or-self of
/// the code labelled `b`, i.e. a.pre <= b.pre && b.post <= a.post. A code
/// list's Euler-tour intervals are nested or disjoint, so that reduces to
/// b.pre lying in [a.pre, a.post]: one unsigned comparison, and no branch
/// on a data-dependent outcome that would mispredict about half the time.
RDFCUBE_HOT inline bool Encloses(DimLabel a, DimLabel b) {
  return b.pre - a.pre <= a.post - a.pre;
}

/// Observation `i`'s root-padded label on dimension `d`.
RDFCUBE_HOT inline DimLabel LabelOf(const qb::ObservationSet& obs, qb::ObsId i,
                                    qb::DimId d) {
  const hierarchy::EulerLabels labels = obs.space().code_list(d).euler_labels();
  const hierarchy::CodeId code = obs.ValueOrRoot(i, d);
  return {labels.pre[code], labels.post[code]};
}

/// Number of dimensions on which `a` contains `b`; when `mask` is non-null,
/// also ORs in the bit of each such dimension (Algorithm 2's map_P).
RDFCUBE_HOT inline std::size_t CountContainingDims(
    const qb::ObservationSet& obs, qb::ObsId a, qb::ObsId b, uint64_t* mask) {
  const std::size_t k = obs.space().num_dimensions();
  std::size_t count = 0;
  for (qb::DimId d = 0; d < k; ++d) {
    if (Encloses(LabelOf(obs, a, d), LabelOf(obs, b, d))) {
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
  const std::size_t k = obs.space().num_dimensions();
  ContainingDims counts;
  for (qb::DimId d = 0; d < k; ++d) {
    const DimLabel la = LabelOf(obs, a, d);
    const DimLabel lb = LabelOf(obs, b, d);
    if (Encloses(la, lb)) ++counts.ab;
    if (Encloses(lb, la)) ++counts.ba;
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

// --- Row forms ----------------------------------------------------------------

/// ObservationSet's dimension ceiling: the dimension classes below are
/// 64-bit masks.
inline constexpr std::size_t kMaxPlanDims = 64;

/// \brief The dimensions of one cube pair, sorted by what the two level
/// signatures already decide about containment of an outer-cube member over
/// an inner-cube member:
///  * outer level 0 (the root) always contains: counted, never tested;
///  * outer level above inner level never contains: skipped;
///  * any other dimension needs the interval test.
struct DimPlan {
  uint64_t always = 0;
  uint64_t never = 0;
  uint64_t tested = 0;
  /// Number of `always` dimensions.
  uint32_t num_always = 0;
};

/// Classifies every dimension of the cube pair (outer, inner), once.
/// Precondition: at most kMaxPlanDims dimensions.
RDFCUBE_HOT inline DimPlan PlanDims(const CubeSignature& outer,
                                    const CubeSignature& inner) {
  DimPlan plan;
  for (qb::DimId d = 0; d < outer.levels.size(); ++d) {
    const uint64_t bit = uint64_t{1} << d;
    if (outer.levels[d] == 0) {
      plan.always |= bit;
      ++plan.num_always;
    } else if (outer.levels[d] > inner.levels[d]) {
      plan.never |= bit;
    } else {
      plan.tested |= bit;
    }
  }
  return plan;
}

/// The plan of a pair whose level signatures are not at hand (the snapshot
/// refresh delta): every one of the `num_dims` dimensions is tested.
/// Precondition: num_dims <= kMaxPlanDims.
RDFCUBE_HOT inline DimPlan AllDimsTested(std::size_t num_dims) {
  DimPlan plan;
  plan.tested = num_dims == kMaxPlanDims ? ~uint64_t{0}
                                         : (uint64_t{1} << num_dims) - 1;
  return plan;
}

// The row forms walk the set bits of plan.tested: a loop whose trip count
// the vectorizer cannot compute, which suits the few dimensions a typical
// plan leaves open better than vector code would.

/// Row form of CountContainingDims over the plan's tested dimensions: how
/// many of them `a` contains `b` on, ORing each one's bit into `*mask`.
RDFCUBE_HOT inline uint32_t CountTestedDims(const DimPlan& plan,
                                            const DimLabel* a,
                                            const DimLabel* b, uint64_t* mask) {
  uint32_t count = 0;
  uint64_t bits = 0;
  for (uint64_t open = plan.tested; open != 0; open &= open - 1) {
    const int d = std::countr_zero(open);
    const bool in = Encloses(a[d], b[d]);
    count += in ? 1 : 0;
    bits |= uint64_t{in} << d;
  }
  *mask |= bits;
  return count;
}

/// Row form of CountContainingDimsBothWays over the plan's tested
/// dimensions, for callers that classify an unordered pair.
RDFCUBE_HOT inline ContainingDims CountTestedDimsBothWays(const DimPlan& plan,
                                                          const DimLabel* a,
                                                          const DimLabel* b) {
  ContainingDims counts;
  for (uint64_t open = plan.tested; open != 0; open &= open - 1) {
    const int d = std::countr_zero(open);
    counts.ab += Encloses(a[d], b[d]) ? 1 : 0;
    counts.ba += Encloses(b[d], a[d]) ? 1 : 0;
  }
  return counts;
}

/// Row form of full dimensional containment for a plan without never
/// dimensions: `a` contains `b` on every tested dimension.
RDFCUBE_HOT inline bool TestedDimsContain(const DimPlan& plan,
                                          const DimLabel* a,
                                          const DimLabel* b) {
  for (uint64_t open = plan.tested; open != 0; open &= open - 1) {
    const int d = std::countr_zero(open);
    if (!Encloses(a[d], b[d])) return false;
  }
  return true;
}

/// Row form of ValuesEqual for two members of one cube, with `plan` from
/// PlanDims(cube, cube): they agree on every root dimension already, and a
/// label's pre names its code, so equal pre on the tested ones suffices.
/// With AllDimsTested it is ValuesEqual for any two rows.
RDFCUBE_HOT inline bool TestedValuesEqual(const DimPlan& plan,
                                          const DimLabel* a,
                                          const DimLabel* b) {
  for (uint64_t open = plan.tested; open != 0; open &= open - 1) {
    const int d = std::countr_zero(open);
    if (a[d].pre != b[d].pre) return false;
  }
  return true;
}

}  // namespace core
}  // namespace rdfcube

#endif  // RDFCUBE_CORE_PAIR_KERNEL_H_
