// The multidimensional level lattice of §3.3 (Fig. 4): every observation maps
// to the cube identified by the vector of its dimension-value levels.

#ifndef RDFCUBE_CORE_LATTICE_H_
#define RDFCUBE_CORE_LATTICE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "qb/observation_set.h"

namespace rdfcube {
namespace core {

/// Dense index of a cube (lattice node) present in the input.
using CubeId = uint32_t;

/// \brief A cube's level signature: levels[d] = hierarchy level of the
/// observation's value for dimension d (root = 0), the type
/// CodeList::level returns, so deep hierarchies never wrap.
struct CubeSignature {
  std::vector<uint32_t> levels;

  bool operator==(const CubeSignature& o) const { return levels == o.levels; }

  /// True iff this cube can contain `o` dimension-wise: every level <= the
  /// other's level. Necessary condition for full containment between any
  /// observations of the two cubes (an ancestor value always sits at a
  /// shallower-or-equal level).
  bool DominatesAll(const CubeSignature& o) const {
    for (std::size_t d = 0; d < levels.size(); ++d) {
      if (levels[d] > o.levels[d]) return false;
    }
    return true;
  }

  /// True iff at least one dimension has level <= the other's: necessary
  /// condition for partial containment ("at least one dimension inclusion").
  bool DominatesAny(const CubeSignature& o) const {
    for (std::size_t d = 0; d < levels.size(); ++d) {
      if (levels[d] <= o.levels[d]) return true;
    }
    return false;
  }

  std::string ToString() const;
};

/// \brief Hash functor over cube signatures (FNV-1a of the level vector).
struct CubeSignatureHash {
  std::size_t operator()(const CubeSignature& s) const {
    std::size_t h = 1469598103934665603ull;
    for (uint32_t l : s.levels) {
      h ^= l;
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// \brief The populated lattice: the distinct cubes present in the input and
/// the observations of each (Algorithm 4 steps i+ii).
///
/// Construction is a single pass over the observations — the linear step the
/// paper credits for cubeMasking's speed.
class Lattice {
 public:
  /// Empty lattice; populate with AddObservation (incremental use).
  Lattice() = default;

  /// Builds the lattice over every observation in `obs` in one pass.
  explicit Lattice(const qb::ObservationSet& obs);

  std::size_t num_cubes() const { return signatures_.size(); }
  const CubeSignature& signature(CubeId c) const { return signatures_[c]; }
  const std::vector<qb::ObsId>& members(CubeId c) const { return members_[c]; }

  /// Cube of a single observation.
  CubeId cube_of(qb::ObsId i) const { return cube_of_[i]; }

  /// Adds one observation (used by the incremental engine); returns its
  /// cube, creating the lattice node when new.
  CubeId AddObservation(const qb::ObservationSet& obs, qb::ObsId i);

  /// Removes an observation from its cube (the node stays, possibly empty).
  void RemoveObservation(qb::ObsId i);

 private:
  // AddObservation with the caller's signature buffer, which it overwrites:
  // the signature is copied only when it names a new cube.
  CubeId Add(const qb::ObservationSet& obs, qb::ObsId i, CubeSignature* sig);

  std::unordered_map<CubeSignature, CubeId, CubeSignatureHash> index_;
  std::vector<CubeSignature> signatures_;
  std::vector<std::vector<qb::ObsId>> members_;
  std::vector<CubeId> cube_of_;
};

/// \brief Pre-fetched per-cube comparable-cube lists (the paper's "children"
/// of a cube, §3.3 / Fig. 5(g)).
///
/// Building the index costs one O(#cubes^2) lattice iteration; once built it
/// lets every relationship pass enumerate exactly the comparable cube pairs
/// without re-scanning the full lattice — the paper's conditional
/// optimization ("by pre-fetching and storing all children of each cube in
/// memory"), whose build cost is amortized over the relationship types and
/// over repeated runs on the same lattice.
class CubeChildrenIndex {
 public:
  /// Builds both the all-dominated (full containment / complementarity) and
  /// any-dominated (partial containment) lists for every cube.
  explicit CubeChildrenIndex(const Lattice& lattice);

  /// Cubes whose every level is >= cube c's (candidates c can fully
  /// contain), including c itself.
  const std::vector<CubeId>& all_dominated(CubeId c) const {
    return all_dom_[c];
  }

  /// Cubes comparable to c on at least one dimension (partial candidates).
  const std::vector<CubeId>& any_dominated(CubeId c) const {
    return any_dom_[c];
  }

  std::size_t num_cubes() const { return all_dom_.size(); }

 private:
  std::vector<std::vector<CubeId>> all_dom_;
  std::vector<std::vector<CubeId>> any_dom_;
};

/// \brief One member's root-padded Euler-tour label on one dimension: the
/// hierarchy::EulerLabels entry of its value (the root's when absent).
struct DimLabel {
  uint32_t pre;
  uint32_t post;
};

/// \brief cubeMasking's plain-data view of a lattice (DESIGN.md §5): one row
/// per member, ordered by measure mask, then cube, then ObsId, with the
/// members' root-padded labels stored column by column.
///
/// A group is one cube's rows with one measure mask; a mask run is one
/// mask's groups placed back to back in cube order. So the members of every
/// cube comparable to an outer cube that share a measure with one of its
/// groups lie in a few long row ranges, whose labels a pass reads one
/// dimension column at a time (Def. 4 condition 3 skips whole runs). Built
/// once per lattice from its members (a partition-local lattice packs only
/// its partition) and only read after, so one table serves any number of
/// concurrent outer-cube ranges.
class MemberTable {
 public:
  /// Rows [begin, end) of cube `cube` whose members share `measure_mask`,
  /// which lie in runs()[run].
  struct Group {
    uint32_t begin;
    uint32_t end;
    uint64_t measure_mask;
    CubeId cube;
    uint32_t run;
  };

  /// The rows [begin, end) of every member with `measure_mask`: the groups
  /// [first_group, end_group) of run_groups(), in cube order.
  struct MaskRun {
    uint64_t measure_mask;
    uint32_t begin;
    uint32_t end;
    uint32_t first_group;
    uint32_t end_group;
  };

  /// Packs the members of `lattice`, whose observations live in `obs`, with
  /// one bucket pass over them (no comparison sort: a lattice's members
  /// already ascend by ObsId). Any later change to the lattice invalidates
  /// the table.
  MemberTable(const qb::ObservationSet& obs, const Lattice& lattice);

  std::size_t num_dims() const { return num_dims_; }
  std::size_t num_cubes() const { return cube_sizes_.size(); }
  std::size_t num_rows() const { return ids_.size(); }
  std::size_t cube_size(CubeId c) const { return cube_sizes_[c]; }

  /// The groups of cube c, measure masks ascending.
  std::span<const Group> groups(CubeId c) const {
    return {cube_groups_.data() + cube_group_offsets_[c],
            cube_groups_.data() + cube_group_offsets_[c + 1]};
  }

  /// The mask runs, measure masks ascending; together they tile the rows.
  std::span<const MaskRun> runs() const { return runs_; }

  /// The groups of `run`, in row order (cube order).
  std::span<const Group> run_groups(const MaskRun& run) const {
    return {run_groups_.data() + run.first_group,
            run_groups_.data() + run.end_group};
  }

  /// Groups over all runs (an upper bound on the row ranges of any walk).
  std::size_t num_groups() const { return run_groups_.size(); }

  qb::ObsId id(uint32_t row) const { return ids_[row]; }

  /// Every row's ObsId, in row order.
  const qb::ObsId* ids() const { return ids_.data(); }

  /// Dimension d's pre labels, one entry per row.
  const uint32_t* pre(qb::DimId d) const {
    return pre_.data() + std::size_t{d} * ids_.size();
  }

  /// Dimension d's post labels, one entry per row.
  const uint32_t* post(qb::DimId d) const {
    return post_.data() + std::size_t{d} * ids_.size();
  }

  /// Row `row`'s label on dimension d.
  DimLabel label(qb::DimId d, uint32_t row) const {
    return {pre(d)[row], post(d)[row]};
  }

 private:
  std::size_t num_dims_;
  std::vector<uint32_t> cube_sizes_;
  std::vector<uint32_t> cube_group_offsets_;  // num_cubes + 1 into cube_groups_
  std::vector<Group> cube_groups_;            // cube-major
  std::vector<Group> run_groups_;             // row order
  std::vector<MaskRun> runs_;
  std::vector<qb::ObsId> ids_;                // row -> ObsId
  std::vector<uint32_t> pre_;                 // column-major, num_dims_ columns
  std::vector<uint32_t> post_;
};

}  // namespace core
}  // namespace rdfcube

#endif  // RDFCUBE_CORE_LATTICE_H_
