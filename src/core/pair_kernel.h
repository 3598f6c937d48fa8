// rdfcube:internal — the observation-pair kernel, not part of the public API
// (excluded from the src/rdfcube/rdfcube.h umbrella; see tools/rdfcube_lint).
//
// Dimensional containment between two observations over the root-padded
// dimension space (paper §3.1): `a` contains `b` on dimension d when a's
// value is an ancestor-or-self of b's, i.e. when a's Euler-tour interval
// encloses b's. Every form below reduces to Encloses on those labels: the
// ObservationSet forms (incremental engine, distributed cross phase) read
// them through the code lists, the column forms (cubeMasking's passes) read
// a MemberTable's label columns, and the row forms (the snapshot refresh
// delta) read a corpus-wide label array. The measure gate (Def. 4
// condition 3) stays with the callers: complementarity must not apply it.

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
/// Only b's pre label is read, which is what lets the column forms stream
/// one array per dimension.
RDFCUBE_HOT inline bool EnclosesPre(DimLabel a, uint32_t b_pre) {
  return b_pre - a.pre <= a.post - a.pre;
}

/// EnclosesPre on two labels.
RDFCUBE_HOT inline bool Encloses(DimLabel a, DimLabel b) {
  return EnclosesPre(a, b.pre);
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

// --- Column forms -------------------------------------------------------------

/// One dimension's pass over a run of inner rows: adds Encloses(a, row i)
/// into count[i] for each of the `len` rows whose pre labels start at
/// `pre`. Branch-free, so gcc -O3 vectorizes it with baseline SSE2.
RDFCUBE_HOT inline void CountEnclosed(DimLabel a, const uint32_t* pre,
                                      std::size_t len, uint8_t* count) {
  for (std::size_t i = 0; i < len; ++i) {
    count[i] = static_cast<uint8_t>(count[i] + (EnclosesPre(a, pre[i]) ? 1 : 0));
  }
}

/// The same pass for Algorithm 2's map_P: ORs dimension d's bit into
/// mask[i] for each row that `a` encloses.
RDFCUBE_HOT inline void MarkEnclosed(DimLabel a, qb::DimId d,
                                     const uint32_t* pre, std::size_t len,
                                     uint64_t* mask) {
  for (std::size_t i = 0; i < len; ++i) {
    mask[i] |= uint64_t{EnclosesPre(a, pre[i])} << d;
  }
}

// --- Row forms ----------------------------------------------------------------

/// ObservationSet's dimension ceiling: a dimension set is a 64-bit mask.
inline constexpr std::size_t kMaxPlanDims = 64;

/// \brief The dimensions a row form tests, as a bit set.
struct DimPlan {
  uint64_t tested = 0;
};

/// The plan of a pair whose level signatures are not at hand (the snapshot
/// refresh delta): every one of the `num_dims` dimensions is tested.
/// Precondition: num_dims <= kMaxPlanDims.
RDFCUBE_HOT inline DimPlan AllDimsTested(std::size_t num_dims) {
  DimPlan plan;
  plan.tested = num_dims == kMaxPlanDims ? ~uint64_t{0}
                                         : (uint64_t{1} << num_dims) - 1;
  return plan;
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

/// Row form of ValuesEqual over the plan's tested dimensions: a label's pre
/// names its code, so equal pre suffices. With AllDimsTested it is
/// ValuesEqual for any two rows.
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
