#include "qb/observation_set.h"

#include "hierarchy/code_list.h"

#include <algorithm>

namespace rdfcube {
namespace qb {

Result<DatasetId> ObservationSet::AddDataset(
    const std::string& iri, const std::vector<DimId>& dims,
    const std::vector<MeasureId>& measures) {
  if (space_->num_dimensions() > 64) {
    return Status::ResourceExhausted("at most 64 global dimensions supported");
  }
  DatasetMeta meta;
  meta.iri = iri;
  for (DimId d : dims) {
    if (d >= space_->num_dimensions()) {
      return Status::InvalidArgument("unknown dimension id in dataset schema");
    }
    meta.dim_mask |= (uint64_t{1} << d);
  }
  for (MeasureId m : measures) {
    if (m >= space_->num_measures()) {
      return Status::InvalidArgument("unknown measure id in dataset schema");
    }
    meta.measure_mask |= (uint64_t{1} << m);
  }
  const DatasetId id = static_cast<DatasetId>(datasets_.size());
  datasets_.push_back(std::move(meta));
  return id;
}

void ObservationSet::Reserve(std::size_t n, std::size_t limit) {
  observations_.reserve(n < limit ? n : limit);
}

Result<ObsId> ObservationSet::AddObservation(
    DatasetId dataset, std::string iri,
    const std::vector<std::pair<DimId, hierarchy::CodeId>>& dims,
    const std::vector<std::pair<MeasureId, double>>& measures) {
  if (dataset >= datasets_.size()) {
    return Status::InvalidArgument("unknown dataset id");
  }
  DatasetMeta& meta = datasets_[dataset];
  Observation o;
  o.dataset = dataset;
  o.dims.assign(space_->num_dimensions(), hierarchy::kNoCode);
  for (const auto& [d, code] : dims) {
    if (d >= space_->num_dimensions()) {
      return Status::InvalidArgument("unknown dimension id on observation " +
                                     iri);
    }
    if ((meta.dim_mask & (uint64_t{1} << d)) == 0) {
      return Status::InvalidArgument("dimension " + space_->dimension_iri(d) +
                                     " not in schema of dataset " + meta.iri);
    }
    if (code >= space_->code_list(d).size()) {
      return Status::InvalidArgument("code id out of range for dimension " +
                                     space_->dimension_iri(d));
    }
    o.dims[d] = code;
  }
  for (const auto& measure : measures) {
    const MeasureId m = measure.first;
    if (m >= space_->num_measures()) {
      return Status::InvalidArgument("unknown measure id on observation " + iri);
    }
    if ((meta.measure_mask & (uint64_t{1} << m)) == 0) {
      return Status::InvalidArgument("measure " + space_->measure_iri(m) +
                                     " not in schema of dataset " + meta.iri);
    }
    if (o.measure_mask & (uint64_t{1} << m)) {
      return Status::InvalidArgument("duplicate measure on observation " + iri);
    }
    o.measure_mask |= (uint64_t{1} << m);
  }
  o.values = measures;
  std::sort(o.values.begin(), o.values.end());
  o.iri = std::move(iri);
  const ObsId id = static_cast<ObsId>(observations_.size());
  observations_.push_back(std::move(o));
  meta.observations.push_back(id);
  return id;
}

}  // namespace qb
}  // namespace rdfcube
