#include "core/cube_masking.h"

#include <algorithm>
#include <memory>
#include <span>
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

// The deadline cadence in covered pairs, and the most rows one kernel call
// evaluates.
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

// Shared state of one run. Every pass walks outer cubes. For outer cube j
// it marks the inner cubes comparable to j (the §3.3 lattice pruning,
// counted in the funnel), then merges the marked cubes' groups that share
// a measure with one of j's groups (Def. 4 condition 3) into maximal row
// ranges (segments), run by run. Each of j's rows is then walked over the
// segments of every run that shares a measure with the row's group, one
// chunk of at most kDeadlineStride rows at a time, so an outer row's
// containments reach the sink in one stretch. Every buffer is sized here,
// once.
struct Run {
  RDFCUBE_COLD Run(const MemberTable& table_in, const Lattice& lattice_in,
                   const CubeMaskingOptions& options_in,
                   RelationshipSink* sink_in, CubeMaskingStats* stats_in,
                   const CubeChildrenIndex* children_in)
      : table(table_in),
        lattice(lattice_in),
        options(options_in),
        sink(sink_in),
        stats(stats_in),
        children(children_in),
        kd(table_in.num_dims()),
        want_mask(options_in.selector.partial_dimension_map),
        comparable(lattice_in.num_cubes(), 0),
        marked(lattice_in.num_cubes()),
        segments(table_in.num_groups()),
        run_segments(table_in.runs().size(), 0),
        active_runs(table_in.runs().size()),
        tested(kd),
        columns(kd),
        outer(kd),
        degree(kd + 1, 0.0),
        counts(kDeadlineStride),
        dim_masks(want_mask ? kDeadlineStride : 0),
        survivors(options_in.selector.full_containment ? kDeadlineStride
                                                       : 0) {
    // Partial degree is count / kd, from the same expression as the
    // baseline's, so the emitted doubles are bit-identical.
    for (std::size_t count = 1; count <= kd; ++count) {
      degree[count] = static_cast<double>(count) / static_cast<double>(kd);
    }
  }

  // A row range [begin, end) of one mask run.
  struct Segment {
    uint32_t begin;
    uint32_t end;
  };

  const MemberTable& table;
  const Lattice& lattice;
  const CubeMaskingOptions& options;
  RelationshipSink* sink;
  CubeMaskingStats* stats;  // never null
  const CubeChildrenIndex* children;
  const std::size_t kd;
  const bool want_mask;
  std::size_t deadline_steps = 0;
  std::vector<uint8_t> comparable;  // per inner cube, for the outer cube
  std::vector<CubeId> marked;       // the comparable cubes, ascending
  std::size_t num_marked = 0;
  // Run r's segments are the run_segments[r] entries from
  // segments[runs()[r].first_group] (a run holds at most one per group).
  // active_runs lists the runs holding any, for the outer cube.
  std::vector<Segment> segments;
  std::vector<uint32_t> run_segments;
  std::vector<uint32_t> active_runs;
  std::size_t num_active = 0;
  // The outer cube's non-root dimensions and their pre columns (its root
  // dimensions contain every value, so they are counted without a test).
  std::vector<qb::DimId> tested;
  std::vector<const uint32_t*> columns;
  std::size_t num_tested = 0;
  uint8_t root_count = 0;
  uint64_t root_mask = 0;
  std::vector<DimLabel> outer;  // the outer row's label on each tested[t]
  std::vector<double> degree;   // by containing-dimension count
  // Per chunk row: containing dimensions, and their bits under the
  // dimension map.
  std::vector<uint8_t> counts;
  std::vector<uint64_t> dim_masks;
  // Full-only passes: the chunk offsets the first tested dimension keeps.
  std::vector<uint32_t> survivors;

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

  // Marks the cubes comparable to outer cube j: j's signature dominates
  // theirs on every dimension when `all_required`, on one otherwise. With a
  // pre-fetched children index, reads its list instead of scanning the
  // lattice. Counts the funnel: the cube pairs checked and comparable, and
  // the observation pairs the comparable ones cover (every ordered pair of
  // members but the self pairs, evaluated or skipped).
  RDFCUBE_HOT Status MarkComparable(CubeId j, bool all_required) {
    std::size_t inner_members = 0;
    num_marked = 0;
    if (children != nullptr) {
      std::fill(comparable.begin(), comparable.end(), 0);
      for (CubeId k : all_required ? children->all_dominated(j)
                                   : children->any_dominated(j)) {
        ++stats->cube_pairs_comparable;
        if (DeadlinePassed(1)) return DeadlineExceeded();
        comparable[k] = 1;
        marked[num_marked++] = k;
        inner_members += table.cube_size(k);
      }
    } else {
      const CubeSignature& sj = lattice.signature(j);
      for (CubeId k = 0; k < lattice.num_cubes(); ++k) {
        ++stats->cube_pairs_checked;
        if (DeadlinePassed(1)) return DeadlineExceeded();
        const CubeSignature& sk = lattice.signature(k);
        const bool dominated =
            all_required ? sj.DominatesAll(sk) : sj.DominatesAny(sk);
        comparable[k] = dominated ? 1 : 0;
        if (!dominated) continue;
        ++stats->cube_pairs_comparable;
        marked[num_marked++] = k;
        inner_members += table.cube_size(k);
      }
    }
    const std::size_t mj = table.cube_size(j);
    stats->observation_pairs_compared +=
        mj * inner_members - (comparable[j] != 0 ? mj : 0);
    return Status::OK();
  }

  RDFCUBE_HOT void SetOuterCube(CubeId j) {
    const std::vector<uint32_t>& levels = lattice.signature(j).levels;
    num_tested = 0;
    root_count = 0;
    root_mask = 0;
    for (qb::DimId d = 0; d < kd; ++d) {
      if (levels[d] == 0) {
        ++root_count;
        root_mask |= uint64_t{1} << d;
      } else {
        tested[num_tested] = d;
        columns[num_tested] = table.pre(d);
        ++num_tested;
      }
    }
  }

  RDFCUBE_HOT void SetOuterRow(uint32_t ra) {
    for (std::size_t t = 0; t < num_tested; ++t) {
      outer[t] = table.label(tested[t], ra);
    }
  }

  // Merges the groups of the marked cubes that share a measure with
  // `measures` into maximal row ranges, each into its run's segments: a
  // group of an unmarked cube between two marked ones splits a range, and
  // no range crosses into another run. The marked cubes ascend, and within
  // a run so do their rows, so a group extends its run's last range exactly
  // when it starts where that range ends. Only the marked cubes' groups are
  // read.
  RDFCUBE_HOT void MergeComparable(uint64_t measures) {
    for (std::size_t i = 0; i < num_active; ++i) {
      run_segments[active_runs[i]] = 0;
    }
    num_active = 0;
    const std::span<const MemberTable::MaskRun> runs = table.runs();
    for (std::size_t i = 0; i < num_marked; ++i) {
      for (const MemberTable::Group& g : table.groups(marked[i])) {
        if ((g.measure_mask & measures) == 0) continue;
        Segment* const first = segments.data() + runs[g.run].first_group;
        uint32_t& n = run_segments[g.run];
        if (n == 0) {
          active_runs[num_active++] = g.run;
        } else if (first[n - 1].end == g.begin) {
          first[n - 1].end = g.end;
          continue;
        }
        first[n++] = {g.begin, g.end};
      }
    }
  }

  // Containment of outer row `ra` over rows [lo, hi), ra excluded: every
  // pair's containing dimensions are counted first, one column pass per
  // tested dimension, then the rows go to the sink as one chunk (two when
  // ra falls inside, since a chunk never holds its outer row): partial
  // containment, plus full when `full`. kMask: also mark partial dimension
  // masks (a second pass per column, so runs without the map skip it).
  // Returns how many relationships the sink reported.
  template <bool kMask>
  RDFCUBE_HOT std::size_t CountRows(uint32_t ra, uint32_t lo, uint32_t hi,
                                    bool full) {
    const std::size_t len = hi - lo;
    uint8_t* const count = counts.data();
    uint64_t* const mask = dim_masks.data();
    std::fill_n(count, len, root_count);
    if constexpr (kMask) std::fill_n(mask, len, root_mask);
    for (std::size_t t = 0; t < num_tested; ++t) {
      CountEnclosed(outer[t], columns[t] + lo, len, count);
      if constexpr (kMask) {
        MarkEnclosed(outer[t], tested[t], columns[t] + lo, len, mask);
      }
    }
    ContainmentChunk chunk{table.id(ra), table.ids() + lo, count,
                           kMask ? mask : nullptr, len, kd, degree.data(),
                           full};
    if (ra < lo || ra >= hi) return Report(chunk);
    const std::size_t self = ra - lo;
    chunk.size = self;
    const std::size_t before = Report(chunk);
    chunk.ids += self + 1;
    chunk.counts += self + 1;
    if constexpr (kMask) chunk.dim_masks += self + 1;
    chunk.size = len - self - 1;
    return before + Report(chunk);
  }

  // Hands a chunk to the sink unless it is empty; returns how many
  // relationships the sink reported.
  RDFCUBE_HOT std::size_t Report(const ContainmentChunk& chunk) {
    return chunk.size == 0 ? 0 : sink->OnContainmentChunk(chunk);
  }

  // Full containment only. A branch-free pass over the first tested column
  // keeps the rows it encloses (all of them when nothing is tested), then
  // each kept row stops at its first failing dimension. An early exit on
  // every row took 1.4-2.6x as long on fig5e's corpora.
  RDFCUBE_HOT std::size_t FullRows(uint32_t ra, uint32_t lo, uint32_t hi) {
    RelationshipSink* const out = sink;
    const DimLabel* const a = outer.data();
    const uint32_t* const* const cols = columns.data();
    const std::size_t n = num_tested;
    const std::size_t len = hi - lo;
    uint32_t* const kept = survivors.data();
    std::size_t m = 0;
    if (n == 0) {
      for (; m < len; ++m) kept[m] = static_cast<uint32_t>(m);
    } else {
      const DimLabel a0 = a[0];  // kept's stores could alias a[0]
      const uint32_t* const first = cols[0] + lo;
      for (std::size_t i = 0; i < len; ++i) {
        kept[m] = static_cast<uint32_t>(i);
        m += EnclosesPre(a0, first[i]) ? 1 : 0;
      }
    }
    const qb::ObsId id_a = table.id(ra);
    std::size_t emitted = 0;
    for (std::size_t s = 0; s < m; ++s) {
      const uint32_t rb = lo + kept[s];
      if (rb == ra) continue;
      std::size_t t = 1;  // the first pass tested t = 0 (n may be 0)
      while (t < n && EnclosesPre(a[t], cols[t][rb])) ++t;
      if (t >= n) {
        ++emitted;
        out->OnFullContainment(id_a, table.id(rb));
      }
    }
    return emitted;
  }

  // Containment of every member of outer cube j over every member of the
  // marked cubes, self pairs excluded, skipping the segments of mask runs
  // that share no measure with the outer row's group. Row-major: one outer
  // row meets all of its segments before the next row starts. `count`:
  // count every pair's containing dimensions (partial containment, plus
  // full when `full`); otherwise only full containment is wanted. Expects
  // MarkComparable(j), SetOuterCube(j).
  RDFCUBE_HOT Status ContainOuterCube(CubeId j, bool count, bool full) {
    const std::span<const MemberTable::Group> outer_groups = table.groups(j);
    uint64_t outer_measures = 0;
    for (const MemberTable::Group& g : outer_groups) {
      outer_measures |= g.measure_mask;
    }
    MergeComparable(outer_measures);
    const std::span<const MemberTable::MaskRun> runs = table.runs();
    for (const MemberTable::Group& g : outer_groups) {
      for (uint32_t ra = g.begin; ra < g.end; ++ra) {
        SetOuterRow(ra);
        for (std::size_t i = 0; i < num_active; ++i) {
          const uint32_t r = active_runs[i];
          if ((runs[r].measure_mask & g.measure_mask) == 0) continue;
          const Segment* const first = segments.data() + runs[r].first_group;
          for (const Segment* s = first; s < first + run_segments[r]; ++s) {
            const uint32_t end = s->end;
            for (uint32_t lo = s->begin; lo < end;) {
              const uint32_t hi = static_cast<uint32_t>(std::min<std::size_t>(
                  end, std::size_t{lo} + kDeadlineStride));
              if (DeadlinePassed(hi - lo)) return DeadlineExceeded();
              stats->relationships_emitted +=
                  !count      ? FullRows(ra, lo, hi)
                  : want_mask ? CountRows<true>(ra, lo, hi, full)
                              : CountRows<false>(ra, lo, hi, full);
              lo = hi;
            }
          }
        }
      }
    }
    return Status::OK();
  }

  // Complementarity of row x over rows [lo, hi): equal pre labels on the
  // cube's non-root dimensions (its members agree on the root ones, and a
  // label's pre names its code).
  RDFCUBE_HOT std::size_t EqualRows(uint32_t x, uint32_t lo, uint32_t hi) {
    RelationshipSink* const out = sink;
    const DimLabel* const a = outer.data();
    const uint32_t* const* const cols = columns.data();
    const std::size_t n = num_tested;
    const qb::ObsId id_x = table.id(x);
    std::size_t emitted = 0;
    for (uint32_t y = lo; y < hi; ++y) {
      std::size_t t = 0;
      while (t < n && cols[t][y] == a[t].pre) ++t;
      if (t == n) {
        ++emitted;
        const qb::ObsId id_y = table.id(y);
        out->OnComplementarity(std::min(id_x, id_y), std::max(id_x, id_y));
      }
    }
    return emitted;
  }

  // Complementarity requires mutual full dimensional containment, which
  // forces identical level signatures, so only pairs inside one cube
  // qualify. It has no measure gate, so the walk takes the cube's groups
  // pairwise. Expects SetOuterCube(c).
  RDFCUBE_HOT Status ComplCube(CubeId c) {
    const std::span<const MemberTable::Group> groups = table.groups(c);
    for (std::size_t gx = 0; gx < groups.size(); ++gx) {
      for (uint32_t x = groups[gx].begin; x < groups[gx].end; ++x) {
        SetOuterRow(x);
        for (std::size_t gy = gx; gy < groups.size(); ++gy) {
          const uint32_t end = groups[gy].end;
          for (uint32_t lo = gy == gx ? x + 1 : groups[gy].begin; lo < end;) {
            const uint32_t hi = static_cast<uint32_t>(std::min<std::size_t>(
                end, std::size_t{lo} + kDeadlineStride));
            if (DeadlinePassed(hi - lo)) return DeadlineExceeded();
            stats->relationships_emitted += EqualRows(x, lo, hi);
            lo = hi;
          }
        }
      }
    }
    return Status::OK();
  }

  // One lattice iteration over outer cubes [begin_cube, end_cube) for the
  // selected types: containment over the cubes comparable to each (on any
  // dimension when partial containment is selected, on every one
  // otherwise), then complementarity inside it. The fused pass of the
  // Fig. 5(g) optimization selects several types at once: one lattice
  // iteration is unavoidable for one of them, and with the per-cube
  // comparable lists held in memory it serves the others as well. The
  // per-type passes (prefetch_children == false) call it once per
  // containment type, as in a literal reading of Algorithm 4 run per type.
  RDFCUBE_HOT Status Pass(CubeId begin_cube, CubeId end_cube, bool partial,
                          bool full, bool compl_pairs) {
    for (CubeId j = begin_cube; j < end_cube; ++j) {
      RDFCUBE_RETURN_IF_ERROR(MarkComparable(j, /*all_required=*/!partial));
      SetOuterCube(j);
      if (partial || full) {
        RDFCUBE_RETURN_IF_ERROR(ContainOuterCube(j, partial, full));
      }
      if (compl_pairs && comparable[j] != 0) {
        RDFCUBE_RETURN_IF_ERROR(ComplCube(j));
      }
    }
    return Status::OK();
  }

  // The per-type complementarity pass needs no cube pairs: it covers each
  // cube's unordered member pairs once.
  RDFCUBE_HOT Status ComplPass() {
    for (CubeId c = 0; c < lattice.num_cubes(); ++c) {
      const std::size_t m = table.cube_size(c);
      stats->observation_pairs_compared += m < 2 ? 0 : m * (m - 1) / 2;
      SetOuterCube(c);
      RDFCUBE_RETURN_IF_ERROR(ComplCube(c));
    }
    return Status::OK();
  }
};

}  // namespace

namespace {

Status CheckTable(const qb::ObservationSet& obs, const Lattice& lattice,
                  const MemberTable& table) {
  if (table.num_cubes() != lattice.num_cubes() ||
      table.num_dims() != obs.space().num_dimensions()) {
    return Status::InvalidArgument(
        "member table was packed from another lattice");
  }
  return Status::OK();
}

}  // namespace

Status RunCubeMasking(const qb::ObservationSet& obs, const Lattice& lattice,
                      const MemberTable& table,
                      const CubeMaskingOptions& options, RelationshipSink* sink,
                      CubeMaskingStats* stats,
                      const CubeChildrenIndex* children) {
  RDFCUBE_RETURN_IF_ERROR(CheckTable(obs, lattice, table));
  CubeMaskingStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const CubeMaskingStats before = *stats;
  Run run(table, lattice, options, sink, stats, children);
  stats->num_cubes = lattice.num_cubes();
  const RelationshipSelector& sel = options.selector;
  const CubeId c = static_cast<CubeId>(lattice.num_cubes());
  const int selected = (sel.full_containment ? 1 : 0) +
                       (sel.partial_containment ? 1 : 0) +
                       (sel.complementarity ? 1 : 0);
  Status status = Status::OK();
  if (options.prefetch_children && selected > 1) {
    obx::TraceSpan span("masking/fused_pass");
    status = run.Pass(0, c, sel.partial_containment, sel.full_containment,
                      sel.complementarity);
  } else {
    if (status.ok() && sel.partial_containment) {
      obx::TraceSpan span("masking/partial_pass");
      status = run.Pass(0, c, /*partial=*/true, /*full=*/false, false);
    }
    if (status.ok() && sel.full_containment) {
      obx::TraceSpan span("masking/full_pass");
      status = run.Pass(0, c, /*partial=*/false, /*full=*/true, false);
    }
    if (status.ok() && sel.complementarity) {
      obx::TraceSpan span("masking/compl_pass");
      status = run.ComplPass();
    }
  }
  FlushMaskingCounters(before, *stats);  // flush even on timeout
  return status;
}

Status RunCubeMasking(const qb::ObservationSet& obs, const Lattice& lattice,
                      const CubeMaskingOptions& options, RelationshipSink* sink,
                      CubeMaskingStats* stats, const CubeChildrenIndex* children) {
  obx::TraceSpan pack_span("masking/pack");
  const MemberTable table(obs, lattice);
  pack_span.End();
  return RunCubeMasking(obs, lattice, table, options, sink, stats, children);
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
  RDFCUBE_RETURN_IF_ERROR(CheckTable(obs, lattice, table));
  CubeMaskingStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const CubeMaskingStats before = *stats;
  Run run(table, lattice, options, sink, stats, children);
  stats->num_cubes = lattice.num_cubes();
  obx::TraceSpan span("masking/outer_range");
  const RelationshipSelector& sel = options.selector;
  const Status status =
      run.Pass(begin_cube, end_cube, sel.partial_containment,
               sel.full_containment, sel.complementarity);
  FlushMaskingCounters(before, *stats);
  return status;
}

}  // namespace core
}  // namespace rdfcube
