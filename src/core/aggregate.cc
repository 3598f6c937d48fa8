#include "core/aggregate.h"

#include "hierarchy/code_list.h"
#include "qb/cube_space.h"
#include "qb/observation_set.h"

#include <algorithm>
#include <limits>

namespace rdfcube {
namespace core {

namespace {

// a's padded coordinate contains b's on every dimension.
bool Contains(const qb::ObservationSet& obs,
              const std::vector<hierarchy::CodeId>& coord, qb::ObsId b) {
  const qb::CubeSpace& space = obs.space();
  for (qb::DimId d = 0; d < space.num_dimensions(); ++d) {
    if (!space.code_list(d).IsAncestorOrSelf(coord[d],
                                             obs.ValueOrRoot(b, d))) {
      return false;
    }
  }
  return true;
}

bool ObsContainsStrict(const qb::ObservationSet& obs, qb::ObsId a,
                       qb::ObsId b) {
  const qb::CubeSpace& space = obs.space();
  bool strict = false;
  for (qb::DimId d = 0; d < space.num_dimensions(); ++d) {
    const hierarchy::CodeId va = obs.ValueOrRoot(a, d);
    const hierarchy::CodeId vb = obs.ValueOrRoot(b, d);
    if (!space.code_list(d).IsAncestorOrSelf(va, vb)) return false;
    if (va != vb) strict = true;
  }
  return strict;
}

}  // namespace

Result<RollUpResult> RollUp(
    const qb::ObservationSet& obs, const Lattice& lattice,
    const std::vector<std::pair<qb::DimId, hierarchy::CodeId>>& target,
    AggregateFn fn, bool leaves_only) {
  const qb::CubeSpace& space = obs.space();
  RollUpResult result;
  result.coordinate.resize(space.num_dimensions());
  for (qb::DimId d = 0; d < space.num_dimensions(); ++d) {
    result.coordinate[d] = space.code_list(d).root();
  }
  for (const auto& [dim, code] : target) {
    if (dim >= space.num_dimensions()) {
      return Status::InvalidArgument("roll-up target: unknown dimension id");
    }
    if (code >= space.code_list(dim).size()) {
      return Status::InvalidArgument("roll-up target: code id out of range");
    }
    result.coordinate[dim] = code;
  }

  // Candidate cubes: level signature componentwise >= the target's levels.
  CubeSignature target_sig;
  target_sig.levels.resize(space.num_dimensions());
  for (qb::DimId d = 0; d < space.num_dimensions(); ++d) {
    target_sig.levels[d] = space.code_list(d).level(result.coordinate[d]);
  }
  for (CubeId c = 0; c < lattice.num_cubes(); ++c) {
    if (!target_sig.DominatesAll(lattice.signature(c))) continue;
    for (qb::ObsId o : lattice.members(c)) {
      if (Contains(obs, result.coordinate, o)) result.contained.push_back(o);
    }
  }
  std::sort(result.contained.begin(), result.contained.end());

  // Drop in-scope aggregates of in-scope finer rows.
  std::vector<qb::ObsId> contributors = result.contained;
  if (leaves_only) {
    std::vector<qb::ObsId> kept;
    for (qb::ObsId a : contributors) {
      bool is_aggregate = false;
      for (qb::ObsId b : contributors) {
        if (a == b) continue;
        if (obs.obs(a).dataset == obs.obs(b).dataset &&
            obs.SharesMeasure(a, b) && ObsContainsStrict(obs, a, b)) {
          is_aggregate = true;
          break;
        }
      }
      if (!is_aggregate) kept.push_back(a);
    }
    contributors.swap(kept);
  }

  // Aggregate per measure.
  for (qb::MeasureId m = 0; m < space.num_measures(); ++m) {
    double acc = 0.0;
    double min_v = std::numeric_limits<double>::infinity();
    double max_v = -std::numeric_limits<double>::infinity();
    std::size_t count = 0;
    for (qb::ObsId o : contributors) {
      for (const auto& [measure, value] : obs.obs(o).values) {
        if (measure != m) continue;
        acc += value;
        min_v = std::min(min_v, value);
        max_v = std::max(max_v, value);
        ++count;
      }
    }
    if (count == 0) continue;
    double out = 0.0;
    switch (fn) {
      case AggregateFn::kSum:
        out = acc;
        break;
      case AggregateFn::kAverage:
        out = acc / static_cast<double>(count);
        break;
      case AggregateFn::kMin:
        out = min_v;
        break;
      case AggregateFn::kMax:
        out = max_v;
        break;
      case AggregateFn::kCount:
        out = static_cast<double>(count);
        break;
    }
    result.measures.push_back({m, out, count});
  }
  return result;
}

}  // namespace core
}  // namespace rdfcube
