#include "core/cube_masking.h"

#include <algorithm>
#include <vector>

#include "base/hot.h"
#include "core/pair_kernel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qb/cube_space.h"
#include "qb/observation_set.h"

namespace rdfcube {
namespace core {

// The `obs` parameter name shadows namespace rdfcube::obs inside function
// bodies; alias the observability namespace for instrumentation sites.
namespace obx = ::rdfcube::obs;

namespace {

constexpr std::size_t kDeadlineStride = 4096;

// Adds the difference between `after` and `before` to the global
// rdfcube_masking_* counters. Callers snapshot the (possibly accumulating,
// caller-owned) stats struct on entry so repeated runs never double-count.
void FlushMaskingCounters(const CubeMaskingStats& before,
                          const CubeMaskingStats& after) {
  static obs::Counter& checked =
      obs::DefaultCounter("rdfcube_masking_cube_pairs_checked_total",
                          "Lattice cube pairs tested for comparability");
  static obs::Counter& comparable =
      obs::DefaultCounter("rdfcube_masking_cube_pairs_comparable_total",
                          "Cube pairs whose signatures were comparable");
  static obs::Counter& pruned =
      obs::DefaultCounter("rdfcube_masking_cube_pairs_pruned_total",
                          "Cube pairs discarded by signature masking");
  static obs::Counter& compared =
      obs::DefaultCounter("rdfcube_masking_obs_pairs_compared_total",
                          "Observation pairs actually evaluated");
  static obs::Counter& emitted =
      obs::DefaultCounter("rdfcube_masking_relationships_emitted_total",
                          "Relationships handed to the sink");
  const std::size_t d_checked = after.cube_pairs_checked -
                                before.cube_pairs_checked;
  const std::size_t d_comparable = after.cube_pairs_comparable -
                                   before.cube_pairs_comparable;
  checked.Increment(d_checked);
  comparable.Increment(d_comparable);
  if (d_checked > d_comparable) pruned.Increment(d_checked - d_comparable);
  compared.Increment(after.observation_pairs_compared -
                     before.observation_pairs_compared);
  emitted.Increment(after.relationships_emitted -
                    before.relationships_emitted);
}

// Shared state of one run.
struct Run {
  Run(const qb::ObservationSet& obs_in, const Lattice& lattice_in,
      const CubeMaskingOptions& options_in, RelationshipSink* sink_in,
      CubeMaskingStats* stats_in, const CubeChildrenIndex* children_in)
      : obs_(obs_in),
        lattice(lattice_in),
        options(options_in),
        sink(sink_in),
        stats(stats_in),
        children(children_in) {}

  const qb::ObservationSet& obs_;
  const Lattice& lattice;
  const CubeMaskingOptions& options;
  RelationshipSink* sink;
  CubeMaskingStats* stats;
  const CubeChildrenIndex* children;
  std::size_t since_deadline_check = 0;

  std::size_t num_dims() const { return obs_.space().num_dimensions(); }

  RDFCUBE_HOT Status CheckDeadline() {
    if (++since_deadline_check >= kDeadlineStride) {
      since_deadline_check = 0;
      if (options.deadline.Expired()) {
        return Status::TimedOut("cubeMasking exceeded its deadline");
      }
    }
    return Status::OK();
  }

  // Visits every ordered cube pair (j, k) with outer cube j in
  // [begin_cube, end_cube) where j's signature dominates k's (all dims when
  // `all_required`, any dim otherwise). With a pre-fetched children index,
  // iterates its lists directly instead of scanning.
  template <typename Fn>
  RDFCUBE_HOT Status ForComparableCubePairs(bool all_required, CubeId begin_cube,
                                            CubeId end_cube, Fn&& fn) {
    const std::size_t c = lattice.num_cubes();
    if (children != nullptr) {
      for (CubeId j = begin_cube; j < end_cube; ++j) {
        const std::vector<CubeId>& list = all_required
                                              ? children->all_dominated(j)
                                              : children->any_dominated(j);
        for (CubeId k : list) {
          if (stats != nullptr) ++stats->cube_pairs_comparable;
          RDFCUBE_RETURN_IF_ERROR(CheckDeadline());
          RDFCUBE_RETURN_IF_ERROR(fn(j, k));
        }
      }
      return Status::OK();
    }
    for (CubeId j = begin_cube; j < end_cube; ++j) {
      const CubeSignature& sj = lattice.signature(j);
      for (CubeId k = 0; k < c; ++k) {
        if (stats != nullptr) ++stats->cube_pairs_checked;
        RDFCUBE_RETURN_IF_ERROR(CheckDeadline());
        const CubeSignature& sk = lattice.signature(k);
        const bool comparable =
            all_required ? sj.DominatesAll(sk) : sj.DominatesAny(sk);
        if (!comparable) continue;
        if (stats != nullptr) ++stats->cube_pairs_comparable;
        RDFCUBE_RETURN_IF_ERROR(fn(j, k));
      }
    }
    return Status::OK();
  }

  // --- Per-type passes (prefetch_children == false) --------------------------
  // Each relationship type re-iterates the lattice and the observation pairs
  // independently, as in a literal reading of Algorithm 4 run once per type.

  RDFCUBE_HOT Status FullPass() {
    return ForComparableCubePairs(
        /*all_required=*/true, 0, static_cast<CubeId>(lattice.num_cubes()),
        [&](CubeId j, CubeId k) {
          for (qb::ObsId a : lattice.members(j)) {
            for (qb::ObsId b : lattice.members(k)) {
              if (a == b) continue;
              RDFCUBE_RETURN_IF_ERROR(CheckDeadline());
              if (stats != nullptr) ++stats->observation_pairs_compared;
              if (obs_.SharesMeasure(a, b) && DimsContain(obs_, a, b)) {
                if (stats != nullptr) ++stats->relationships_emitted;
                sink->OnFullContainment(a, b);
              }
            }
          }
          return Status::OK();
        });
  }

  RDFCUBE_HOT Status PartialPass() {
    const std::size_t kd = num_dims();
    const bool want_mask = options.selector.partial_dimension_map;
    return ForComparableCubePairs(
        /*all_required=*/false, 0, static_cast<CubeId>(lattice.num_cubes()),
        [&](CubeId j, CubeId k) {
          for (qb::ObsId a : lattice.members(j)) {
            for (qb::ObsId b : lattice.members(k)) {
              if (a == b) continue;
              RDFCUBE_RETURN_IF_ERROR(CheckDeadline());
              if (stats != nullptr) ++stats->observation_pairs_compared;
              if (!obs_.SharesMeasure(a, b)) continue;
              uint64_t mask = 0;
              const std::size_t count =
                  CountContainingDims(obs_, a, b, want_mask ? &mask : nullptr);
              if (count > 0 && count < kd) {
                if (stats != nullptr) ++stats->relationships_emitted;
                sink->OnPartialContainment(
                    a, b,
                    static_cast<double>(count) / static_cast<double>(kd),
                    mask);
              }
            }
          }
          return Status::OK();
        });
  }

  // Complementarity requires mutual full dimensional containment, which
  // forces identical level signatures: only within-cube pairs qualify.
  RDFCUBE_HOT Status ComplPass() {
    for (CubeId c = 0; c < lattice.num_cubes(); ++c) {
      const auto& ms = lattice.members(c);
      for (std::size_t x = 0; x < ms.size(); ++x) {
        for (std::size_t y = x + 1; y < ms.size(); ++y) {
          RDFCUBE_RETURN_IF_ERROR(CheckDeadline());
          if (stats != nullptr) ++stats->observation_pairs_compared;
          if (ValuesEqual(obs_, ms[x], ms[y])) {
            if (stats != nullptr) ++stats->relationships_emitted;
            sink->OnComplementarity(std::min(ms[x], ms[y]),
                                    std::max(ms[x], ms[y]));
          }
        }
      }
    }
    return Status::OK();
  }

  // --- Fused pass (prefetch_children == true) ---------------------------------
  // The Fig. 5(g) optimization: one lattice iteration is unavoidable for one
  // of the relationship types; with the per-cube comparable lists (children)
  // held in memory, that same iteration serves the other two types as well,
  // so every observation pair is evaluated exactly once for all selected
  // relationship types.
  RDFCUBE_HOT Status FusedPass(CubeId begin_cube, CubeId end_cube) {
    const RelationshipSelector& sel = options.selector;
    const std::size_t kd = num_dims();
    const bool want_mask = sel.partial_dimension_map;
    const bool need_counts = sel.partial_containment;
    return ForComparableCubePairs(
        /*all_required=*/!sel.partial_containment, begin_cube, end_cube,
        [&](CubeId j, CubeId k) {
          const bool same_cube = j == k;
          const bool all_dom =
              !sel.partial_containment ||
              lattice.signature(j).DominatesAll(lattice.signature(k));
          for (qb::ObsId a : lattice.members(j)) {
            for (qb::ObsId b : lattice.members(k)) {
              if (a == b) continue;
              RDFCUBE_RETURN_IF_ERROR(CheckDeadline());
              if (stats != nullptr) ++stats->observation_pairs_compared;
              const bool shares = obs_.SharesMeasure(a, b);
              if (shares && need_counts) {
                uint64_t mask = 0;
                const std::size_t count = CountContainingDims(
                    obs_, a, b, want_mask ? &mask : nullptr);
                if (count == kd) {
                  if (sel.full_containment) {
                    if (stats != nullptr) ++stats->relationships_emitted;
                    sink->OnFullContainment(a, b);
                  }
                } else if (count > 0 && sel.partial_containment) {
                  if (stats != nullptr) ++stats->relationships_emitted;
                  sink->OnPartialContainment(
                      a, b,
                      static_cast<double>(count) / static_cast<double>(kd),
                      mask);
                }
              } else if (shares && sel.full_containment && all_dom) {
                if (DimsContain(obs_, a, b)) {
                  if (stats != nullptr) ++stats->relationships_emitted;
                  sink->OnFullContainment(a, b);
                }
              }
              if (sel.complementarity && same_cube && a < b &&
                  ValuesEqual(obs_, a, b)) {
                if (stats != nullptr) ++stats->relationships_emitted;
                sink->OnComplementarity(a, b);
              }
            }
          }
          return Status::OK();
        });
  }
};

}  // namespace

Status RunCubeMasking(const qb::ObservationSet& obs, const Lattice& lattice,
                      const CubeMaskingOptions& options, RelationshipSink* sink,
                      CubeMaskingStats* stats, const CubeChildrenIndex* children) {
  CubeMaskingStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const CubeMaskingStats before = *stats;
  Run run(obs, lattice, options, sink, stats, children);
  stats->num_cubes = lattice.num_cubes();
  const RelationshipSelector& sel = options.selector;
  const int selected = (sel.full_containment ? 1 : 0) +
                       (sel.partial_containment ? 1 : 0) +
                       (sel.complementarity ? 1 : 0);
  Status status = Status::OK();
  if (options.prefetch_children && selected > 1) {
    obx::TraceSpan span("masking/fused_pass");
    status = run.FusedPass(0, static_cast<CubeId>(lattice.num_cubes()));
  } else {
    if (status.ok() && sel.partial_containment) {
      obx::TraceSpan span("masking/partial_pass");
      status = run.PartialPass();
    }
    if (status.ok() && sel.full_containment) {
      obx::TraceSpan span("masking/full_pass");
      status = run.FullPass();
    }
    if (status.ok() && sel.complementarity) {
      obx::TraceSpan span("masking/compl_pass");
      status = run.ComplPass();
    }
  }
  FlushMaskingCounters(before, *stats);  // flush even on timeout
  return status;
}

Status RunCubeMasking(const qb::ObservationSet& obs,
                      const CubeMaskingOptions& options, RelationshipSink* sink,
                      CubeMaskingStats* stats) {
  std::unique_ptr<const Lattice> lattice;
  {
    obx::TraceSpan span("masking/lattice_build");
    lattice = std::make_unique<const Lattice>(obs);
  }
  return RunCubeMasking(obs, *lattice, options, sink, stats);
}

Status RunCubeMaskingOuterRange(const qb::ObservationSet& obs,
                                const Lattice& lattice,
                                const CubeMaskingOptions& options,
                                CubeId begin_cube, CubeId end_cube,
                                RelationshipSink* sink, CubeMaskingStats* stats,
                                const CubeChildrenIndex* children) {
  if (end_cube > lattice.num_cubes() || begin_cube > end_cube) {
    return Status::OutOfRange("cube range outside the lattice");
  }
  CubeMaskingStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const CubeMaskingStats before = *stats;
  Run run(obs, lattice, options, sink, stats, children);
  stats->num_cubes = lattice.num_cubes();
  obx::TraceSpan span("masking/outer_range");
  const Status status = run.FusedPass(begin_cube, end_cube);
  FlushMaskingCounters(before, *stats);
  return status;
}

}  // namespace core
}  // namespace rdfcube
