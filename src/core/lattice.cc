#include "core/lattice.h"

#include "base/hot.h"
#include "hierarchy/code_list.h"
#include "qb/cube_space.h"
#include "qb/observation_set.h"

#include <algorithm>

namespace rdfcube {
namespace core {

std::string CubeSignature::ToString() const {
  std::string out;
  out.reserve(levels.size());
  for (uint32_t l : levels) {
    if (l < 10) {
      out.push_back(static_cast<char>('0' + l));
    } else {
      out.push_back('(');
      out += std::to_string(l);
      out.push_back(')');
    }
  }
  return out;
}

Lattice::Lattice(const qb::ObservationSet& obs) {
  cube_of_.reserve(obs.size());
  for (qb::ObsId i = 0; i < obs.size(); ++i) {
    AddObservation(obs, i);
  }
}

CubeId Lattice::AddObservation(const qb::ObservationSet& obs, qb::ObsId i) {
  const std::size_t k = obs.space().num_dimensions();
  CubeSignature sig;
  sig.levels.resize(k);
  for (qb::DimId d = 0; d < k; ++d) {
    sig.levels[d] = obs.LevelOf(i, d);
  }
  auto [it, inserted] =
      index_.emplace(sig, static_cast<CubeId>(signatures_.size()));
  if (inserted) {
    signatures_.push_back(std::move(sig));
    members_.emplace_back();
  }
  const CubeId cube = it->second;
  members_[cube].push_back(i);
  if (cube_of_.size() <= i) cube_of_.resize(i + 1, 0);
  cube_of_[i] = cube;
  return cube;
}

void Lattice::RemoveObservation(qb::ObsId i) {
  const CubeId cube = cube_of_[i];
  auto& v = members_[cube];
  v.erase(std::remove(v.begin(), v.end(), i), v.end());
}

CubeChildrenIndex::CubeChildrenIndex(const Lattice& lattice) {
  const std::size_t c = lattice.num_cubes();
  all_dom_.resize(c);
  any_dom_.resize(c);
  for (CubeId j = 0; j < c; ++j) {
    const CubeSignature& sj = lattice.signature(j);
    for (CubeId k = 0; k < c; ++k) {
      const CubeSignature& sk = lattice.signature(k);
      if (sj.DominatesAll(sk)) {
        all_dom_[j].push_back(k);
        any_dom_[j].push_back(k);
      } else if (sj.DominatesAny(sk)) {
        any_dom_[j].push_back(k);
      }
    }
  }
}

RDFCUBE_COLD MemberTable::MemberTable(const qb::ObservationSet& obs,
                                      const Lattice& lattice)
    : num_dims_(obs.space().num_dimensions()) {
  const std::size_t c = lattice.num_cubes();
  std::size_t rows = 0;
  for (CubeId cube = 0; cube < c; ++cube) rows += lattice.members(cube).size();
  std::vector<hierarchy::EulerLabels> dim_labels;
  dim_labels.reserve(num_dims_);
  for (qb::DimId d = 0; d < num_dims_; ++d) {
    dim_labels.push_back(obs.space().code_list(d).euler_labels());
  }
  auto mask_of = [&obs](qb::ObsId i) { return obs.obs(i).measure_mask; };
  // Members in cube-major order, grouped by measure mask with ObsId order
  // within a group; counting the groups lets groups_ be sized once.
  cube_rows_.reserve(c + 1);
  cube_rows_.push_back(0);
  ids_.reserve(rows);
  std::size_t num_groups = 0;
  for (CubeId cube = 0; cube < c; ++cube) {
    const std::vector<qb::ObsId>& members = lattice.members(cube);
    const auto first = ids_.insert(ids_.end(), members.begin(), members.end());
    std::sort(first, ids_.end(), [&mask_of](qb::ObsId x, qb::ObsId y) {
      const uint64_t mx = mask_of(x), my = mask_of(y);
      return mx != my ? mx < my : x < y;
    });
    for (auto it = first; it != ids_.end(); ++it) {
      if (it == first || mask_of(*it) != mask_of(*(it - 1))) ++num_groups;
    }
    cube_rows_.push_back(static_cast<uint32_t>(ids_.size()));
  }
  // One pass over the rows: group bounds and labels.
  groups_.reserve(num_groups);
  cube_groups_.reserve(c + 1);
  cube_groups_.push_back(0);
  labels_.resize(rows * num_dims_);
  for (CubeId cube = 0; cube < c; ++cube) {
    for (uint32_t row = cube_rows_[cube]; row < cube_rows_[cube + 1]; ++row) {
      const qb::ObsId id = ids_[row];
      const uint64_t mask = mask_of(id);
      if (groups_.size() == cube_groups_.back() ||
          groups_.back().measure_mask != mask) {
        groups_.push_back({row, row, mask});
      }
      ++groups_.back().end;
      DimLabel* out = labels_.data() + std::size_t{row} * num_dims_;
      for (qb::DimId d = 0; d < num_dims_; ++d) {
        const hierarchy::CodeId code = obs.ValueOrRoot(id, d);
        out[d] = {dim_labels[d].pre[code], dim_labels[d].post[code]};
      }
    }
    cube_groups_.push_back(static_cast<uint32_t>(groups_.size()));
  }
}

}  // namespace core
}  // namespace rdfcube
