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
  CubeSignature sig;
  for (qb::ObsId i = 0; i < obs.size(); ++i) {
    Add(obs, i, &sig);
  }
}

CubeId Lattice::AddObservation(const qb::ObservationSet& obs, qb::ObsId i) {
  CubeSignature sig;
  return Add(obs, i, &sig);
}

CubeId Lattice::Add(const qb::ObservationSet& obs, qb::ObsId i,
                    CubeSignature* sig) {
  const std::size_t k = obs.space().num_dimensions();
  sig->levels.resize(k);
  for (qb::DimId d = 0; d < k; ++d) {
    sig->levels[d] = obs.LevelOf(i, d);
  }
  CubeId cube;
  const auto it = index_.find(*sig);
  if (it != index_.end()) {
    cube = it->second;
  } else {
    cube = static_cast<CubeId>(signatures_.size());
    index_.emplace(*sig, cube);
    signatures_.push_back(*sig);
    members_.emplace_back();
  }
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
  cube_sizes_.resize(c);
  std::size_t rows = 0;
  for (CubeId cube = 0; cube < c; ++cube) {
    cube_sizes_[cube] = static_cast<uint32_t>(lattice.members(cube).size());
    rows += cube_sizes_[cube];
  }
  // Each member's mask slot, in cube-major member order. Neighbouring
  // members mostly share a mask, so the hash lookup runs per change only.
  std::vector<uint64_t> masks;
  std::unordered_map<uint64_t, uint32_t> slot_of;
  std::vector<uint32_t> member_slot(rows);
  std::size_t m = 0;
  for (CubeId cube = 0; cube < c; ++cube) {
    for (qb::ObsId id : lattice.members(cube)) {
      const uint64_t mask = obs.obs(id).measure_mask;
      if (m == 0 || mask != masks[member_slot[m - 1]]) {
        const auto [it, inserted] = slot_of.try_emplace(
            mask, static_cast<uint32_t>(masks.size()));
        if (inserted) masks.push_back(mask);
        member_slot[m] = it->second;
      } else {
        member_slot[m] = member_slot[m - 1];
      }
      ++m;
    }
  }
  // A slot's run is its mask's rank; run r's rows start at next[r].
  std::vector<uint32_t> by_mask(masks.size());
  for (uint32_t s = 0; s < by_mask.size(); ++s) by_mask[s] = s;
  std::sort(by_mask.begin(), by_mask.end(),
            [&masks](uint32_t x, uint32_t y) { return masks[x] < masks[y]; });
  std::vector<uint32_t> run_of(masks.size());
  for (uint32_t r = 0; r < by_mask.size(); ++r) run_of[by_mask[r]] = r;
  std::vector<uint32_t> next(masks.size() + 1, 0);
  for (uint32_t slot : member_slot) ++next[run_of[slot] + 1];
  runs_.resize(masks.size());
  for (uint32_t r = 0; r < runs_.size(); ++r) {
    next[r + 1] += next[r];
    runs_[r] = {masks[by_mask[r]], next[r], next[r + 1], 0, 0};
  }
  // The bucket pass: cube-major members land in (mask, cube, ObsId) order.
  ids_.resize(rows);
  std::vector<CubeId> row_cube(rows);
  m = 0;
  for (CubeId cube = 0; cube < c; ++cube) {
    for (qb::ObsId id : lattice.members(cube)) {
      const uint32_t row = next[run_of[member_slot[m++]]]++;
      ids_[row] = id;
      row_cube[row] = cube;
    }
  }
  // Groups in row order, then the same groups cube-major (a counting sort
  // by cube keeps each cube's masks ascending).
  auto starts_group = [&row_cube](const MaskRun& run, uint32_t row) {
    return row == run.begin || row_cube[row] != row_cube[row - 1];
  };
  std::size_t num_groups = 0;
  for (const MaskRun& run : runs_) {
    for (uint32_t row = run.begin; row < run.end; ++row) {
      num_groups += starts_group(run, row) ? 1 : 0;
    }
  }
  run_groups_.reserve(num_groups);
  cube_group_offsets_.assign(c + 1, 0);
  for (uint32_t r = 0; r < runs_.size(); ++r) {
    MaskRun& run = runs_[r];
    run.first_group = static_cast<uint32_t>(run_groups_.size());
    for (uint32_t row = run.begin; row < run.end; ++row) {
      if (starts_group(run, row)) {
        run_groups_.push_back({row, row, run.measure_mask, row_cube[row], r});
        ++cube_group_offsets_[row_cube[row] + 1];
      }
      ++run_groups_.back().end;
    }
    run.end_group = static_cast<uint32_t>(run_groups_.size());
  }
  for (CubeId cube = 0; cube < c; ++cube) {
    cube_group_offsets_[cube + 1] += cube_group_offsets_[cube];
  }
  cube_groups_.resize(run_groups_.size());
  std::vector<uint32_t> fill(cube_group_offsets_.begin(),
                             cube_group_offsets_.end() - 1);
  for (const Group& g : run_groups_) cube_groups_[fill[g.cube]++] = g;
  // Labels, one column at a time.
  std::vector<const hierarchy::CodeId*> values(rows);
  for (uint32_t row = 0; row < rows; ++row) {
    values[row] = obs.obs(ids_[row]).dims.data();
  }
  pre_.resize(num_dims_ * rows);
  post_.resize(num_dims_ * rows);
  for (qb::DimId d = 0; d < num_dims_; ++d) {
    const hierarchy::CodeList& list = obs.space().code_list(d);
    const hierarchy::EulerLabels labels = list.euler_labels();
    const hierarchy::CodeId root = list.root();
    uint32_t* const pre = pre_.data() + std::size_t{d} * rows;
    uint32_t* const post = post_.data() + std::size_t{d} * rows;
    for (uint32_t row = 0; row < rows; ++row) {
      const hierarchy::CodeId value = values[row][d];
      const hierarchy::CodeId code = value == hierarchy::kNoCode ? root : value;
      pre[row] = labels.pre[code];
      post[row] = labels.post[code];
    }
  }
}

}  // namespace core
}  // namespace rdfcube
