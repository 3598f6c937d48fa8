// ObservationSet: all observations from all input datasets, dictionary- and
// code-encoded over a CubeSpace. This is the set O of the paper's problem
// statement.

#ifndef RDFCUBE_QB_OBSERVATION_SET_H_
#define RDFCUBE_QB_OBSERVATION_SET_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hierarchy/code_list.h"
#include "qb/cube_space.h"
#include "base/result.h"

namespace rdfcube {
namespace qb {

/// Global dense index of an observation across all datasets.
using ObsId = uint32_t;
/// Dense index of a dataset.
using DatasetId = uint32_t;

/// \brief One observation, fully encoded.
struct Observation {
  /// IRI of the observation resource (diagnostics / serialization).
  std::string iri;
  /// Owning dataset.
  DatasetId dataset = 0;
  /// Per-global-dimension code value; kNoCode means the dimension is absent
  /// from the observation's schema, which the paper interprets as the code
  /// list root (`ALL` — no specialization; §3.1).
  std::vector<hierarchy::CodeId> dims;
  /// Bitmask over MeasureId of the measures this observation instantiates.
  uint64_t measure_mask = 0;
  /// Measured values, parallel to the set bits of measure_mask (sorted by
  /// MeasureId).
  std::vector<std::pair<MeasureId, double>> values;
};

/// \brief Metadata of one source dataset (paper Def. 1: D_i = (O_i, S_i)).
struct DatasetMeta {
  std::string iri;
  /// Dimensions declared in the dataset's schema S_i (as a bitmask over
  /// DimId; the corpus has at most 64 global dimensions).
  uint64_t dim_mask = 0;
  /// Measures declared in S_i.
  uint64_t measure_mask = 0;
  /// Observations belonging to this dataset.
  std::vector<ObsId> observations;
};

/// \brief The encoded multi-dataset observation collection.
class ObservationSet {
 public:
  /// The set does not own the space; the space must outlive it.
  explicit ObservationSet(const CubeSpace* space) : space_(space) {}

  const CubeSpace& space() const { return *space_; }

  /// Registers a dataset with its schema (dimension and measure sets).
  [[nodiscard]] Result<DatasetId> AddDataset(const std::string& iri,
                               const std::vector<DimId>& dims,
                               const std::vector<MeasureId>& measures);

  /// Adds an observation to `dataset`, taking over `iri`. Every dimension
  /// key must belong to the dataset schema; schema dimensions absent from
  /// `dims` are encoded as the code-list root. Measures must belong to the
  /// dataset schema.
  [[nodiscard]] Result<ObsId> AddObservation(
      DatasetId dataset, std::string iri,
      const std::vector<std::pair<DimId, hierarchy::CodeId>>& dims,
      const std::vector<std::pair<MeasureId, double>>& measures);

  /// Makes room for `n` observations in all, so that adding that many grows
  /// no array. The reservation is clamped to `limit`, the most observations
  /// the caller can still supply: a decoder passes what its remaining bytes
  /// can encode, so a forged count cannot size the set.
  void Reserve(std::size_t n, std::size_t limit);

  std::size_t size() const { return observations_.size(); }
  std::size_t num_datasets() const { return datasets_.size(); }

  const Observation& obs(ObsId i) const { return observations_[i]; }
  const DatasetMeta& dataset(DatasetId d) const { return datasets_[d]; }

  /// The value of dimension `d` for observation `i`, mapping an absent
  /// dimension to the root (paper §3.1 padding). This is the h_i^j accessor
  /// every algorithm uses.
  hierarchy::CodeId ValueOrRoot(ObsId i, DimId d) const {
    const hierarchy::CodeId c = observations_[i].dims[d];
    return c == hierarchy::kNoCode ? space_->code_list(d).root() : c;
  }

  /// Level of ValueOrRoot(i, d) in the dimension hierarchy.
  uint32_t LevelOf(ObsId i, DimId d) const {
    return space_->code_list(d).level(ValueOrRoot(i, d));
  }

  /// True iff observations i and j share at least one measure (Def. 4
  /// condition (3)).
  bool SharesMeasure(ObsId i, ObsId j) const {
    return (observations_[i].measure_mask & observations_[j].measure_mask) != 0;
  }

 private:
  const CubeSpace* space_;
  std::vector<DatasetMeta> datasets_;
  std::vector<Observation> observations_;
};

}  // namespace qb
}  // namespace rdfcube

#endif  // RDFCUBE_QB_OBSERVATION_SET_H_
