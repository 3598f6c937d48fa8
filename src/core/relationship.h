// Relationship kinds and result sinks shared by all computation methods.

#ifndef RDFCUBE_CORE_RELATIONSHIP_H_
#define RDFCUBE_CORE_RELATIONSHIP_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "qb/observation_set.h"

namespace rdfcube {
namespace core {

using qb::ObsId;

/// \brief Which of the three relationship types to compute.
///
/// The paper evaluates each relationship separately (Fig. 5(a)-(c)) as well
/// as jointly; the selector lets benches reproduce the per-type runs and the
/// baseline skip work ("if only full containment or complementarity is to be
/// computed").
struct RelationshipSelector {
  bool full_containment = true;
  bool partial_containment = true;
  bool complementarity = true;

  /// Also report the per-dimension map of a partial containment (Algorithm 2
  /// map_P). More expensive: forces per-dimension iteration on partial pairs.
  bool partial_dimension_map = false;

  static RelationshipSelector All() { return {}; }
  static RelationshipSelector FullOnly() { return {true, false, false, false}; }
  static RelationshipSelector PartialOnly() {
    return {false, true, false, false};
  }
  static RelationshipSelector ComplOnly() { return {false, false, true, false}; }
};

/// \brief One partially-contained partner of a point lookup, with its OCM
/// degree (the fraction of dimensions exhibiting containment).
struct PartialMatch {
  ObsId other;
  double degree;
};

/// \brief One chunk of one outer observation's containment candidates, as
/// cubeMasking's counting kernel hands it to a sink: at most 4,096 inner
/// observations, each with the number of dimensions on which `outer`
/// contains it. The arrays belong to the kernel and are valid only during
/// the call.
struct ContainmentChunk {
  /// The container of every relationship in the chunk.
  ObsId outer;
  /// The candidates (never `outer` itself), `size` entries each: their
  /// ObsIds, their containing-dimension counts, and, when the selector asked
  /// for the dimension map, the bitmasks of those dimensions (else null).
  const ObsId* ids;
  const uint8_t* counts;
  const uint64_t* dim_masks;
  std::size_t size;
  /// A count equal to `num_dims` is full containment; one in (0, num_dims)
  /// is partial containment with degree `degree[count]`.
  std::size_t num_dims;
  const double* degree;
  /// Whether full containment is selected (partial always is).
  bool full;
};

/// \brief Receives relationships as they are discovered.
///
/// Result sets grow quadratically in adversarial inputs; sinks let callers
/// choose between materializing (CollectingSink), counting (CountingSink) or
/// custom streaming consumers without the algorithms caring.
///
/// Ordering: no engine promises an order across containers. Within one
/// containment pass of cubeMasking (the fused pass, or one per-type pass),
/// though, each container's containment relationships, full and partial,
/// arrive in one uninterrupted stretch: no other container's containment
/// is reported between its first and its last. The order inside a stretch
/// is unspecified. RelationshipSnapshot::Build writes its rows on that
/// promise.
class RelationshipSink {
 public:
  virtual ~RelationshipSink() = default;

  /// A chunk of the counting kernel: reports Cont_partial(outer, ids[i])
  /// for every 0 < counts[i] < num_dims and, when `full`, Cont_full(outer,
  /// ids[i]) for every counts[i] == num_dims, and returns how many it
  /// reported (cubeMasking's funnel adds that up as relationships emitted).
  /// The default makes the per-relationship calls below, in candidate
  /// order, with degree `degree[counts[i]]` and mask `dim_masks[i]` (0
  /// without the map), so a sink that overrides only those sees exactly
  /// what a per-relationship kernel would report.
  virtual std::size_t OnContainmentChunk(const ContainmentChunk& chunk);

  /// Cont_full(a, b): a fully contains b.
  virtual void OnFullContainment(ObsId a, ObsId b) = 0;

  /// Cont_partial(a, b) with the OCM degree in (0, 1): the fraction of
  /// dimensions exhibiting containment. `dim_mask` is the bitmask of those
  /// dimensions when the selector asked for the dimension map, 0 otherwise.
  virtual void OnPartialContainment(ObsId a, ObsId b, double degree,
                                    uint64_t dim_mask) = 0;

  /// Compl(a, b). Reported once per unordered pair with a < b (the relation
  /// is symmetric).
  virtual void OnComplementarity(ObsId a, ObsId b) = 0;
};

/// \brief Materializes all reported relationships (the S_F / S_P / S_C sets
/// of Algorithm 2).
class CollectingSink : public RelationshipSink {
 public:
  struct Partial {
    ObsId a, b;
    double degree;
    uint64_t dim_mask;
  };

  void OnFullContainment(ObsId a, ObsId b) override {
    full_.emplace_back(a, b);
  }
  void OnPartialContainment(ObsId a, ObsId b, double degree,
                            uint64_t dim_mask) override {
    partial_.push_back({a, b, degree, dim_mask});
  }
  void OnComplementarity(ObsId a, ObsId b) override {
    compl_.emplace_back(a, b);
  }

  const std::vector<std::pair<ObsId, ObsId>>& full() const { return full_; }
  const std::vector<Partial>& partial() const { return partial_; }
  const std::vector<std::pair<ObsId, ObsId>>& complementary() const {
    return compl_;
  }

  /// Sorts all three sets into canonical order for comparisons in tests.
  void Canonicalize();

 private:
  std::vector<std::pair<ObsId, ObsId>> full_;
  std::vector<Partial> partial_;
  std::vector<std::pair<ObsId, ObsId>> compl_;
};

/// \brief Counts relationships without storing them (benchmark mode).
class CountingSink : public RelationshipSink {
 public:
  void OnFullContainment(ObsId, ObsId) override { ++full_; }
  void OnPartialContainment(ObsId, ObsId, double, uint64_t) override {
    ++partial_;
  }
  void OnComplementarity(ObsId, ObsId) override { ++compl_; }

  std::size_t full() const { return full_; }
  std::size_t partial() const { return partial_; }
  std::size_t complementary() const { return compl_; }

 private:
  std::size_t full_ = 0;
  std::size_t partial_ = 0;
  std::size_t compl_ = 0;
};

}  // namespace core
}  // namespace rdfcube

#endif  // RDFCUBE_CORE_RELATIONSHIP_H_
