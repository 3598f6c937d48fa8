#include "core/cube_masking.h"

#include <algorithm>
#include <array>
#include <memory>
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

// Shared state of one run. Every pass reads the members through `table`:
// for each comparable cube pair it sorts the dimensions once (PlanDims),
// skips member-group pairs without a shared measure, and tests only the
// dimensions the level signatures leave open.
struct Run {
  Run(const MemberTable& table_in, const Lattice& lattice_in,
      const CubeMaskingOptions& options_in, RelationshipSink* sink_in,
      CubeMaskingStats* stats_in, const CubeChildrenIndex* children_in)
      : table(table_in),
        lattice(lattice_in),
        options(options_in),
        sink(sink_in),
        stats(stats_in),
        children(children_in),
        kd(table_in.num_dims()),
        want_mask(options_in.selector.partial_dimension_map) {
    // Partial degree is count / kd, from the same expression as the
    // baseline's, so the emitted doubles are bit-identical. (An
    // observation-free set may have more than kMaxPlanDims dimensions.)
    for (std::size_t count = 1; count <= kd && count <= kMaxPlanDims; ++count) {
      degree[count] = static_cast<double>(count) / static_cast<double>(kd);
    }
  }

  const MemberTable& table;
  const Lattice& lattice;
  const CubeMaskingOptions& options;
  RelationshipSink* sink;
  CubeMaskingStats* stats;  // never null
  const CubeChildrenIndex* children;
  const std::size_t kd;
  const bool want_mask;
  std::array<double, kMaxPlanDims + 1> degree{};
  std::size_t deadline_steps = 0;

  // Counts `steps` (checked cube pairs, covered observation pairs) toward
  // the deadline cadence and says whether the deadline has passed. The
  // deadline is read before the steps that would carry the count past
  // kDeadlineStride, so as long as no call evaluates more than
  // kDeadlineStride pairs, no more than that run between reads. The
  // TimedOut Status is built on the cold path (DeadlineExceeded) only.
  RDFCUBE_HOT bool DeadlinePassed(std::size_t steps) {
    if (deadline_steps + steps > kDeadlineStride) {
      deadline_steps = 0;
      if (options.deadline.Expired()) return true;
    }
    deadline_steps += steps;
    return false;
  }

  RDFCUBE_COLD static Status DeadlineExceeded() {
    return Status::TimedOut("cubeMasking exceeded its deadline");
  }

  // Observation pairs a comparable cube pair covers: every ordered pair of
  // members but the self pairs, evaluated or skipped.
  std::size_t CoveredPairs(CubeId j, CubeId k) const {
    const std::size_t mj = table.cube_size(j);
    return mj * table.cube_size(k) - (j == k ? mj : 0);
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
          ++stats->cube_pairs_comparable;
          if (DeadlinePassed(1)) return DeadlineExceeded();
          RDFCUBE_RETURN_IF_ERROR(fn(j, k));
        }
      }
      return Status::OK();
    }
    for (CubeId j = begin_cube; j < end_cube; ++j) {
      const CubeSignature& sj = lattice.signature(j);
      for (CubeId k = 0; k < c; ++k) {
        ++stats->cube_pairs_checked;
        if (DeadlinePassed(1)) return DeadlineExceeded();
        const CubeSignature& sk = lattice.signature(k);
        const bool comparable =
            all_required ? sj.DominatesAll(sk) : sj.DominatesAny(sk);
        if (!comparable) continue;
        ++stats->cube_pairs_comparable;
        RDFCUBE_RETURN_IF_ERROR(fn(j, k));
      }
    }
    return Status::OK();
  }

  // Containment of outer row `ra` over inner rows [lo, hi), ra excluded;
  // returns how many relationships it emitted. kCount: count the
  // dimensions (partial containment, plus full when `full`); otherwise only
  // full containment is wanted and each pair stops at its first failing
  // dimension. kMask: report partial dimension masks (computing them costs
  // about a tenth of the loop, so runs without the map skip it). The plan
  // and the sink are copied into locals, so the virtual sink calls do not
  // force the loop to reload them.
  template <bool kCount, bool kMask>
  RDFCUBE_HOT std::size_t ContainRow(const DimPlan& plan, uint32_t ra,
                                     uint32_t lo, uint32_t hi, bool full) {
    const DimPlan dims = plan;
    RelationshipSink* const out = sink;
    const std::size_t k = kd;
    const DimLabel* const a = table.labels(ra);
    const qb::ObsId id_a = table.id(ra);
    std::size_t emitted = 0;
    for (uint32_t rb = lo; rb < hi; ++rb) {
      if (rb == ra) continue;
      const DimLabel* const b = table.labels(rb);
      if constexpr (kCount) {
        uint64_t mask = dims.always;
        const std::size_t count =
            dims.num_always + CountTestedDims(dims, a, b, &mask);
        if (count == k) {
          if (full) {
            ++emitted;
            out->OnFullContainment(id_a, table.id(rb));
          }
        } else if (count > 0) {
          ++emitted;
          out->OnPartialContainment(id_a, table.id(rb), degree[count],
                                    kMask ? mask : 0);
        }
      } else if (TestedDimsContain(dims, a, b)) {
        ++emitted;
        out->OnFullContainment(id_a, table.id(rb));
      }
    }
    return emitted;
  }

  // Containment of every member of outer cube j over every member of inner
  // cube k, self pairs excluded, skipping member-group pairs that share no
  // measure (Def. 4 condition 3).
  template <bool kCount>
  RDFCUBE_HOT Status ContainCubePair(CubeId j, CubeId k, bool full) {
    const DimPlan plan = PlanDims(lattice.signature(j), lattice.signature(k));
    if (!kCount && plan.never != 0) return Status::OK();
    for (const MemberTable::Group& gj : table.groups(j)) {
      for (const MemberTable::Group& gk : table.groups(k)) {
        if ((gj.measure_mask & gk.measure_mask) == 0) {
          if (DeadlinePassed(std::size_t{gj.end - gj.begin} *
                             (gk.end - gk.begin))) {
            return DeadlineExceeded();
          }
          continue;
        }
        for (uint32_t ra = gj.begin; ra < gj.end; ++ra) {
          for (uint32_t lo = gk.begin; lo < gk.end;) {
            const uint32_t hi = static_cast<uint32_t>(
                std::min<std::size_t>(gk.end, std::size_t{lo} + kDeadlineStride));
            if (DeadlinePassed(hi - lo)) return DeadlineExceeded();
            stats->relationships_emitted +=
                kCount && want_mask
                    ? ContainRow<kCount, true>(plan, ra, lo, hi, full)
                    : ContainRow<kCount, false>(plan, ra, lo, hi, full);
            lo = hi;
          }
        }
      }
    }
    return Status::OK();
  }

  // Complementarity requires mutual full dimensional containment, which
  // forces identical level signatures, so only pairs inside one cube
  // qualify. It has no measure gate, so the walk ignores the groups.
  RDFCUBE_HOT Status ComplCube(CubeId c) {
    const DimPlan plan = PlanDims(lattice.signature(c), lattice.signature(c));
    const uint32_t end = table.cube_end(c);
    for (uint32_t x = table.cube_begin(c); x < end; ++x) {
      const DimLabel* a = table.labels(x);
      for (uint32_t lo = x + 1; lo < end;) {
        const uint32_t hi = static_cast<uint32_t>(
            std::min<std::size_t>(end, std::size_t{lo} + kDeadlineStride));
        if (DeadlinePassed(hi - lo)) return DeadlineExceeded();
        for (uint32_t y = lo; y < hi; ++y) {
          if (TestedValuesEqual(plan, a, table.labels(y))) {
            ++stats->relationships_emitted;
            sink->OnComplementarity(std::min(table.id(x), table.id(y)),
                                    std::max(table.id(x), table.id(y)));
          }
        }
        lo = hi;
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
          stats->observation_pairs_compared += CoveredPairs(j, k);
          return ContainCubePair<false>(j, k, /*full=*/true);
        });
  }

  RDFCUBE_HOT Status PartialPass() {
    return ForComparableCubePairs(
        /*all_required=*/false, 0, static_cast<CubeId>(lattice.num_cubes()),
        [&](CubeId j, CubeId k) {
          stats->observation_pairs_compared += CoveredPairs(j, k);
          return ContainCubePair<true>(j, k, /*full=*/false);
        });
  }

  RDFCUBE_HOT Status ComplPass() {
    for (CubeId c = 0; c < lattice.num_cubes(); ++c) {
      const std::size_t m = table.cube_size(c);
      stats->observation_pairs_compared += m < 2 ? 0 : m * (m - 1) / 2;
      RDFCUBE_RETURN_IF_ERROR(ComplCube(c));
    }
    return Status::OK();
  }

  // --- Fused pass (prefetch_children == true) ---------------------------------
  // The Fig. 5(g) optimization: one lattice iteration is unavoidable for one
  // of the relationship types; with the per-cube comparable lists (children)
  // held in memory, that same iteration serves the other two types as well,
  // so every comparable cube pair is visited once for all selected
  // relationship types.
  RDFCUBE_HOT Status FusedPass(CubeId begin_cube, CubeId end_cube) {
    const RelationshipSelector& sel = options.selector;
    return ForComparableCubePairs(
        /*all_required=*/!sel.partial_containment, begin_cube, end_cube,
        [&](CubeId j, CubeId k) {
          stats->observation_pairs_compared += CoveredPairs(j, k);
          if (sel.partial_containment) {
            RDFCUBE_RETURN_IF_ERROR(
                ContainCubePair<true>(j, k, sel.full_containment));
          } else if (sel.full_containment) {
            RDFCUBE_RETURN_IF_ERROR(ContainCubePair<false>(j, k, true));
          }
          if (sel.complementarity && j == k) return ComplCube(j);
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
  obx::TraceSpan pack_span("masking/pack");
  const MemberTable table(obs, lattice);
  pack_span.End();
  Run run(table, lattice, options, sink, stats, children);
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
                                const MemberTable& table,
                                const CubeMaskingOptions& options,
                                CubeId begin_cube, CubeId end_cube,
                                RelationshipSink* sink, CubeMaskingStats* stats,
                                const CubeChildrenIndex* children) {
  if (end_cube > lattice.num_cubes() || begin_cube > end_cube) {
    return Status::OutOfRange("cube range outside the lattice");
  }
  if (table.num_cubes() != lattice.num_cubes() ||
      table.num_dims() != obs.space().num_dimensions()) {
    return Status::InvalidArgument("member table was packed from another lattice");
  }
  CubeMaskingStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const CubeMaskingStats before = *stats;
  Run run(table, lattice, options, sink, stats, children);
  stats->num_cubes = lattice.num_cubes();
  obx::TraceSpan span("masking/outer_range");
  const Status status = run.FusedPass(begin_cube, end_cube);
  FlushMaskingCounters(before, *stats);
  return status;
}

}  // namespace core
}  // namespace rdfcube
