// Tests for the lattice, its member table, cubeMasking (equivalence with the
// baseline — the paper's losslessness claim), the prefetch option, and the
// parallel, checkpointed and distributed runs built on the same passes.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/baseline.h"
#include "core/checkpoint.h"
#include "core/cube_masking.h"
#include "core/distributed.h"
#include "core/engine.h"
#include "core/occurrence_matrix.h"
#include "core/parallel_masking.h"
#include "tests/test_corpus.h"

namespace rdfcube {
namespace core {
namespace {

using testutil::MakeAllRootCorpus;
using testutil::MakeDeepChainCorpus;
using testutil::MakeDuplicateCoordinateCorpus;
using testutil::MakeRandomCorpus;
using testutil::MakeRunningExample;
using testutil::MakeWideCorpus;

// Canonical snapshot of a sink for set comparison.
struct Snapshot {
  std::set<std::pair<qb::ObsId, qb::ObsId>> full;
  std::set<std::pair<qb::ObsId, qb::ObsId>> compl_pairs;
  std::set<std::tuple<qb::ObsId, qb::ObsId, int>> partial;  // degree in 1/1000

  static Snapshot From(const CollectingSink& sink) {
    Snapshot s;
    for (const auto& p : sink.full()) s.full.insert(p);
    for (const auto& p : sink.complementary()) s.compl_pairs.insert(p);
    for (const auto& p : sink.partial()) {
      s.partial.insert({p.a, p.b, static_cast<int>(p.degree * 1000 + 0.5)});
    }
    return s;
  }
  bool operator==(const Snapshot& o) const {
    return full == o.full && compl_pairs == o.compl_pairs &&
           partial == o.partial;
  }
};

Snapshot RunBaselineSnapshot(const qb::ObservationSet& obs) {
  const OccurrenceMatrix om(obs);
  CollectingSink sink;
  BaselineOptions options;
  EXPECT_TRUE(RunBaseline(obs, om, options, &sink).ok());
  return Snapshot::From(sink);
}

Snapshot RunMaskingSnapshot(const qb::ObservationSet& obs, bool prefetch) {
  CollectingSink sink;
  CubeMaskingOptions options;
  options.prefetch_children = prefetch;
  EXPECT_TRUE(RunCubeMasking(obs, options, &sink).ok());
  return Snapshot::From(sink);
}

// --- Lattice ---------------------------------------------------------------------

TEST(LatticeTest, RunningExampleCubes) {
  qb::Corpus corpus = MakeRunningExample();
  const Lattice lattice(*corpus.observations);
  // Signatures: o11 (3,1,0), o12 (5,1,1), o13 (5,1,0), o21/o22 (2,1,0),
  // o31 (3,1,0), o32/o33/o34 (3,2,0), o35 (5,1,0)  ->  5 distinct cubes.
  EXPECT_EQ(lattice.num_cubes(), 5u);
  EXPECT_EQ(lattice.cube_of(testutil::kO11), lattice.cube_of(testutil::kO31));
  EXPECT_EQ(lattice.cube_of(testutil::kO21), lattice.cube_of(testutil::kO22));
  EXPECT_EQ(lattice.cube_of(testutil::kO13), lattice.cube_of(testutil::kO35));
  EXPECT_NE(lattice.cube_of(testutil::kO11), lattice.cube_of(testutil::kO12));
  EXPECT_EQ(lattice.cube_of(testutil::kO32), lattice.cube_of(testutil::kO34));
}

TEST(LatticeTest, SignatureDominance) {
  CubeSignature a{{1, 1, 0}};
  CubeSignature b{{2, 1, 0}};
  CubeSignature c{{0, 2, 1}};
  EXPECT_TRUE(a.DominatesAll(b));
  EXPECT_FALSE(b.DominatesAll(a));
  EXPECT_TRUE(a.DominatesAll(a));
  EXPECT_FALSE(a.DominatesAll(c));
  EXPECT_TRUE(a.DominatesAny(c));   // dim 0: 1 > 0? no: 1 <= ... dim1 1<=2 yes
  EXPECT_TRUE(c.DominatesAny(a));
}

TEST(LatticeTest, ToStringSignature) {
  CubeSignature s{{2, 1, 0}};
  EXPECT_EQ(s.ToString(), "210");
  CubeSignature deep{{12}};
  EXPECT_EQ(deep.ToString(), "(12)");
}

TEST(LatticeTest, DeepLevelsDoNotWrap) {
  qb::Corpus corpus = MakeDeepChainCorpus();
  const qb::ObservationSet& obs = *corpus.observations;
  const Lattice lattice(obs);
  for (qb::ObsId i = 0; i < obs.size(); ++i) {
    EXPECT_EQ(lattice.signature(lattice.cube_of(i)).levels[0],
              obs.LevelOf(i, 0))
        << obs.obs(i).iri;
  }
  // Depth 256 must not alias the root cube, nor depth 260 depth 4.
  EXPECT_NE(lattice.cube_of(3), lattice.cube_of(0));  // deep:o256, deep:o0
  EXPECT_EQ(lattice.signature(lattice.cube_of(4)).ToString(), "(260)1");
}

TEST(MemberTableTest, RowsAreGroupedPerCubeWithRootPaddedLabels) {
  // One cube of three measure groups; many small cubes; many cubes over
  // overlapping measure masks.
  qb::Corpus corpus = MakeAllRootCorpus(12);
  qb::Corpus deep = MakeDeepChainCorpus();
  qb::Corpus random = MakeRandomCorpus(3, 80);
  for (const qb::Corpus* c : {&corpus, &deep, &random}) {
    const qb::ObservationSet& obs = *c->observations;
    const Lattice lattice(obs);
    const MemberTable table(obs, lattice);
    ASSERT_EQ(table.num_cubes(), lattice.num_cubes());
    ASSERT_EQ(table.num_dims(), obs.space().num_dimensions());
    ASSERT_EQ(table.num_rows(), obs.size());
    auto mask_of = [&](uint32_t row) {
      return obs.obs(table.id(row)).measure_mask;
    };
    auto key_of = [&](uint32_t row) {
      return std::make_tuple(mask_of(row), lattice.cube_of(table.id(row)),
                             table.id(row));
    };
    // Rows ascend by (mask, cube, ObsId), with root-padded label columns.
    std::vector<qb::ObsId> seen;
    for (uint32_t row = 0; row < table.num_rows(); ++row) {
      seen.push_back(table.id(row));
      if (row > 0) {
        EXPECT_LT(key_of(row - 1), key_of(row));
      }
      for (qb::DimId d = 0; d < table.num_dims(); ++d) {
        const hierarchy::EulerLabels labels =
            obs.space().code_list(d).euler_labels();
        const hierarchy::CodeId code = obs.ValueOrRoot(table.id(row), d);
        EXPECT_EQ(table.pre(d)[row], labels.pre[code]);
        EXPECT_EQ(table.post(d)[row], labels.post[code]);
      }
    }
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), obs.size());
    for (qb::ObsId i = 0; i < obs.size(); ++i) EXPECT_EQ(seen[i], i);
    // Each mask run is contiguous: the runs tile the rows, masks ascending,
    // and each run's groups tile its rows in cube order.
    uint32_t next_row = 0;
    for (const MemberTable::MaskRun& run : table.runs()) {
      EXPECT_EQ(run.begin, next_row);
      EXPECT_LT(run.begin, run.end);
      if (run.begin > 0) {
        EXPECT_LT(mask_of(run.begin - 1), run.measure_mask);
      }
      uint32_t next = run.begin;
      for (const MemberTable::Group& g : table.run_groups(run)) {
        EXPECT_EQ(g.begin, next);
        EXPECT_EQ(g.measure_mask, run.measure_mask);
        if (next != run.begin) {
          EXPECT_LT(lattice.cube_of(table.id(next - 1)), g.cube);
        }
        next = g.end;
      }
      EXPECT_EQ(next, run.end);
      for (uint32_t row = run.begin; row < run.end; ++row) {
        EXPECT_EQ(mask_of(row), run.measure_mask);
      }
      next_row = run.end;
    }
    EXPECT_EQ(next_row, table.num_rows());
    // Each cube's groups cover exactly its members, masks ascending.
    for (CubeId cube = 0; cube < lattice.num_cubes(); ++cube) {
      ASSERT_EQ(table.cube_size(cube), lattice.members(cube).size());
      std::size_t covered = 0;
      uint64_t last_mask = 0;
      for (const MemberTable::Group& g : table.groups(cube)) {
        EXPECT_LT(g.begin, g.end);
        EXPECT_EQ(g.cube, cube);
        if (covered > 0) {
          EXPECT_GT(g.measure_mask, last_mask);
        }
        last_mask = g.measure_mask;
        covered += g.end - g.begin;
        for (uint32_t row = g.begin; row < g.end; ++row) {
          EXPECT_EQ(lattice.cube_of(table.id(row)), cube);
          EXPECT_EQ(mask_of(row), g.measure_mask);
        }
      }
      EXPECT_EQ(covered, lattice.members(cube).size());
    }
  }
}

TEST(MemberTableTest, PacksOnlyTheLatticeMembers) {
  // A partition-local lattice (as RunDistributedMasking builds) packs its
  // own members, not every observation of the set.
  qb::Corpus corpus = MakeRandomCorpus(5, 30);
  const qb::ObservationSet& obs = *corpus.observations;
  Lattice local;
  for (qb::ObsId i = 1; i < obs.size(); i += 2) local.AddObservation(obs, i);
  const MemberTable table(obs, local);
  std::size_t rows = 0;
  for (CubeId c = 0; c < table.num_cubes(); ++c) {
    rows += table.cube_size(c);
    for (const MemberTable::Group& g : table.groups(c)) {
      for (uint32_t row = g.begin; row < g.end; ++row) {
        EXPECT_EQ(table.id(row) % 2, 1u);
      }
    }
  }
  EXPECT_EQ(rows, obs.size() / 2);
}

TEST(LatticeTest, AddRemoveObservation) {
  qb::Corpus corpus = MakeRunningExample();
  Lattice lattice(*corpus.observations);
  const CubeId cube = lattice.cube_of(testutil::kO11);
  EXPECT_EQ(lattice.members(cube).size(), 2u);  // o11, o31
  lattice.RemoveObservation(testutil::kO11);
  EXPECT_EQ(lattice.members(cube).size(), 1u);
}

// --- cubeMasking equivalence ------------------------------------------------------

TEST(CubeMaskingTest, MatchesBaselineOnRunningExample) {
  qb::Corpus corpus = MakeRunningExample();
  const Snapshot base = RunBaselineSnapshot(*corpus.observations);
  EXPECT_EQ(RunMaskingSnapshot(*corpus.observations, true), base);
  EXPECT_EQ(RunMaskingSnapshot(*corpus.observations, false), base);
  EXPECT_FALSE(base.full.empty());
  EXPECT_FALSE(base.compl_pairs.empty());
}

TEST(CubeMaskingTest, StatsReportCubes) {
  qb::Corpus corpus = MakeRunningExample();
  CollectingSink sink;
  CubeMaskingStats stats;
  ASSERT_TRUE(RunCubeMasking(*corpus.observations, CubeMaskingOptions{}, &sink,
                             &stats)
                  .ok());
  EXPECT_EQ(stats.num_cubes, 5u);
  EXPECT_GT(stats.cube_pairs_checked, 0u);
  EXPECT_GT(stats.observation_pairs_compared, 0u);
  EXPECT_LE(stats.cube_pairs_comparable, stats.cube_pairs_checked);
}

TEST(CubeMaskingTest, PrunesComparisons) {
  // cubeMasking must compare strictly fewer observation pairs than the
  // baseline's n^2 when several incomparable cubes exist.
  qb::Corpus corpus = MakeRandomCorpus(3, 80);
  CountingSink sink;
  CubeMaskingStats stats;
  CubeMaskingOptions options;
  options.selector.partial_containment = false;  // strongest pruning case
  ASSERT_TRUE(
      RunCubeMasking(*corpus.observations, options, &sink, &stats).ok());
  const std::size_t n = corpus.observations->size();
  EXPECT_LT(stats.observation_pairs_compared, n * (n - 1));
}

TEST(CubeMaskingTest, DeadlineAborts) {
  qb::Corpus corpus = MakeRandomCorpus(11, 500);
  CollectingSink sink;
  CubeMaskingOptions options;
  options.deadline = Deadline(0.0);
  EXPECT_TRUE(RunCubeMasking(*corpus.observations, options, &sink).IsTimedOut());
}

// Property sweep: on random corpora, cubeMasking (both prefetch modes) and
// the parallel variant produce exactly the baseline's relationship sets.
class MaskingEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaskingEquivalenceTest, LosslessAcrossMethods) {
  qb::Corpus corpus = MakeRandomCorpus(GetParam(), 50 + GetParam() % 40);
  const qb::ObservationSet& obs = *corpus.observations;
  const Snapshot base = RunBaselineSnapshot(obs);
  EXPECT_EQ(RunMaskingSnapshot(obs, true), base) << "prefetch=true";
  EXPECT_EQ(RunMaskingSnapshot(obs, false), base) << "prefetch=false";

  const Lattice lattice(obs);
  CollectingSink parallel_sink;
  ParallelMaskingOptions par;
  par.num_threads = 3;
  ASSERT_TRUE(RunCubeMaskingParallel(obs, lattice, par, &parallel_sink).ok());
  EXPECT_EQ(Snapshot::From(parallel_sink), base) << "parallel";
}

TEST_P(MaskingEquivalenceTest, SelectorsAreConsistentProjections) {
  qb::Corpus corpus = MakeRandomCorpus(GetParam() * 131, 40);
  const qb::ObservationSet& obs = *corpus.observations;
  CollectingSink all_sink, full_sink, compl_sink;
  CubeMaskingOptions all_opts;
  ASSERT_TRUE(RunCubeMasking(obs, all_opts, &all_sink).ok());
  CubeMaskingOptions full_opts;
  full_opts.selector = RelationshipSelector::FullOnly();
  ASSERT_TRUE(RunCubeMasking(obs, full_opts, &full_sink).ok());
  CubeMaskingOptions compl_opts;
  compl_opts.selector = RelationshipSelector::ComplOnly();
  ASSERT_TRUE(RunCubeMasking(obs, compl_opts, &compl_sink).ok());
  const Snapshot all = Snapshot::From(all_sink);
  EXPECT_EQ(Snapshot::From(full_sink).full, all.full);
  EXPECT_EQ(Snapshot::From(compl_sink).compl_pairs, all.compl_pairs);
}

TEST_P(MaskingEquivalenceTest, ChildrenIndexPathIsEquivalent) {
  qb::Corpus corpus = MakeRandomCorpus(GetParam() * 7 + 3, 45);
  const qb::ObservationSet& obs = *corpus.observations;
  const Snapshot base = RunBaselineSnapshot(obs);
  const Lattice lattice(obs);
  const CubeChildrenIndex index(lattice);
  ASSERT_EQ(index.num_cubes(), lattice.num_cubes());
  for (bool prefetch : {false, true}) {
    CollectingSink sink;
    CubeMaskingOptions options;
    options.prefetch_children = prefetch;
    ASSERT_TRUE(
        RunCubeMasking(obs, lattice, options, &sink, nullptr, &index).ok());
    EXPECT_EQ(Snapshot::From(sink), base) << "prefetch=" << prefetch;
  }
  // Index invariants: all_dominated is a sublist of any_dominated and every
  // cube dominates itself.
  for (CubeId c = 0; c < index.num_cubes(); ++c) {
    EXPECT_LE(index.all_dominated(c).size(), index.any_dominated(c).size());
    EXPECT_NE(std::find(index.all_dominated(c).begin(),
                        index.all_dominated(c).end(), c),
              index.all_dominated(c).end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskingEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 26));

// --- Exact differential oracle with dimension maps --------------------------------
// Every cubeMasking path must emit exactly the baseline's records: the same
// pairs, bit-identical degrees and equal dimension masks, each once.

struct Records {
  std::vector<std::pair<qb::ObsId, qb::ObsId>> full;
  std::vector<std::pair<qb::ObsId, qb::ObsId>> compl_pairs;
  // (a, b, degree bits, dim_mask)
  std::vector<std::tuple<qb::ObsId, qb::ObsId, uint64_t, uint64_t>> partial;

  static Records From(const CollectingSink& sink) {
    Records r;
    r.full = sink.full();
    r.compl_pairs = sink.complementary();
    for (const auto& p : sink.partial()) {
      r.partial.emplace_back(p.a, p.b, std::bit_cast<uint64_t>(p.degree),
                             p.dim_mask);
    }
    std::sort(r.full.begin(), r.full.end());
    std::sort(r.compl_pairs.begin(), r.compl_pairs.end());
    std::sort(r.partial.begin(), r.partial.end());
    return r;
  }
  bool operator==(const Records& o) const {
    return full == o.full && compl_pairs == o.compl_pairs &&
           partial == o.partial;
  }
};

Records BaselineRecords(const qb::ObservationSet& obs,
                        const RelationshipSelector& sel) {
  CollectingSink sink;
  BaselineOptions options;
  options.selector = sel;
  EXPECT_TRUE(RunBaseline(obs, options, &sink).ok());
  return Records::From(sink);
}

// The records of every cubeMasking path, by path name.
std::vector<std::pair<std::string, Records>> MaskingPathRecords(
    const qb::ObservationSet& obs, const RelationshipSelector& sel) {
  std::vector<std::pair<std::string, Records>> out;
  const Lattice lattice(obs);
  const CubeChildrenIndex children(lattice);
  for (bool prefetch : {true, false}) {
    for (const CubeChildrenIndex* index : {static_cast<const CubeChildrenIndex*>(nullptr), &children}) {
      CollectingSink sink;
      CubeMaskingOptions options;
      options.selector = sel;
      options.prefetch_children = prefetch;
      EXPECT_TRUE(
          RunCubeMasking(obs, lattice, options, &sink, nullptr, index).ok());
      out.emplace_back(std::string(prefetch ? "fused" : "per-type") +
                           (index != nullptr ? "+children" : ""),
                       Records::From(sink));
    }
  }
  {
    CollectingSink sink;
    CubeMaskingOptions options;
    options.selector = sel;
    CheckpointOptions ckpt;
    ckpt.path = ::testing::TempDir() + "core_masking_exact_" +
                std::to_string(::getpid()) + ".ckpt";
    ckpt.interval_cubes = 2;
    EXPECT_TRUE(RunCubeMaskingCheckpointed(obs, options, ckpt, &sink).ok());
    out.emplace_back("checkpointed", Records::From(sink));
  }
  for (std::size_t threads : {1, 3}) {
    CollectingSink sink;
    ParallelMaskingOptions options;
    options.selector = sel;
    options.num_threads = threads;
    EXPECT_TRUE(RunCubeMaskingParallel(obs, lattice, options, &sink).ok());
    out.emplace_back("parallel/" + std::to_string(threads),
                     Records::From(sink));
  }
  {
    CollectingSink sink;
    DistributedOptions options;
    options.selector = sel;
    options.num_workers = 3;
    EXPECT_TRUE(RunDistributedMasking(obs, options, &sink).ok());
    out.emplace_back("distributed", Records::From(sink));
  }
  return out;
}

// Checks every path against the baseline under every selector shape, with
// the dimension map on wherever partial containment is selected. Returns
// the all-types baseline records for shape-specific assertions.
Records ExpectAllPathsMatchBaseline(const qb::ObservationSet& obs) {
  RelationshipSelector all;
  all.partial_dimension_map = true;
  RelationshipSelector partial_only = RelationshipSelector::PartialOnly();
  partial_only.partial_dimension_map = true;
  const RelationshipSelector selectors[] = {
      all, RelationshipSelector::FullOnly(), partial_only,
      RelationshipSelector::ComplOnly(), {true, false, true, false}};
  for (const RelationshipSelector& sel : selectors) {
    const Records base = BaselineRecords(obs, sel);
    for (const auto& [name, got] : MaskingPathRecords(obs, sel)) {
      EXPECT_TRUE(got == base)
          << name << " differs from the baseline; selector bits "
          << SelectorBits(sel) << ": full " << got.full.size() << " vs "
          << base.full.size() << ", partial " << got.partial.size() << " vs "
          << base.partial.size() << ", compl " << got.compl_pairs.size()
          << " vs " << base.compl_pairs.size();
    }
  }
  return BaselineRecords(obs, all);
}

class ExactOracleTest : public ::testing::TestWithParam<uint64_t> {};

// The corpus ExactOracleTest.RandomCorpora checks for `seed`.
qb::Corpus RandomOracleCorpus(uint64_t seed) {
  return MakeRandomCorpus(seed * 17 + 1, 40 + seed % 30, 3 + seed % 3);
}

TEST_P(ExactOracleTest, RandomCorpora) {
  qb::Corpus corpus = RandomOracleCorpus(GetParam());
  const Records base = ExpectAllPathsMatchBaseline(*corpus.observations);
  EXPECT_FALSE(base.partial.empty());
}

TEST_P(ExactOracleTest, DuplicateCoordinates) {
  qb::Corpus corpus = MakeDuplicateCoordinateCorpus(GetParam());
  const Records base = ExpectAllPathsMatchBaseline(*corpus.observations);
  EXPECT_FALSE(base.compl_pairs.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactOracleTest,
                         ::testing::Range<uint64_t>(1, 9));

// The random corpora above reach the two walk shapes a partial pass must get
// right: a mask run in which a cube not comparable to the outer cube sits
// between comparable ones (the run splits into two row ranges), and an
// outer group that shares measures with two or more mask runs.
TEST(ExactOracleShapesTest, RandomCorporaSplitRunsAndShareSeveralRuns) {
  bool split = false;
  bool several = false;
  for (uint64_t seed = 1; seed < 9; ++seed) {
    qb::Corpus corpus = RandomOracleCorpus(seed);
    const qb::ObservationSet& obs = *corpus.observations;
    const Lattice lattice(obs);
    const MemberTable table(obs, lattice);
    for (CubeId j = 0; j < lattice.num_cubes(); ++j) {
      const CubeSignature& sj = lattice.signature(j);
      for (const MemberTable::Group& outer : table.groups(j)) {
        std::size_t shared_runs = 0;
        for (const MemberTable::MaskRun& run : table.runs()) {
          if ((outer.measure_mask & run.measure_mask) == 0) continue;
          ++shared_runs;
          bool seen = false;
          bool gap = false;
          for (const MemberTable::Group& g : table.run_groups(run)) {
            const bool comparable = sj.DominatesAny(lattice.signature(g.cube));
            split = split || (comparable && gap);
            gap = gap || (seen && !comparable);
            seen = seen || comparable;
          }
        }
        several = several || shared_runs >= 2;
      }
    }
  }
  EXPECT_TRUE(split);
  EXPECT_TRUE(several);
}

TEST(ExactOracleShapesTest, SixtyFourDimensions) {
  qb::Corpus corpus = MakeWideCorpus(3);
  ASSERT_EQ(corpus.observations->space().num_dimensions(), 64u);
  const Records base = ExpectAllPathsMatchBaseline(*corpus.observations);
  const bool bit63 = std::any_of(
      base.partial.begin(), base.partial.end(),
      [](const auto& p) { return (std::get<3>(p) >> 63) != 0; });
  EXPECT_TRUE(bit63) << "no partial containment exercised dimension 63";
}

TEST(ExactOracleShapesTest, DeepChain) {
  qb::Corpus corpus = MakeDeepChainCorpus();
  const Records base = ExpectAllPathsMatchBaseline(*corpus.observations);
  // deep:o10 (id 1) contains deep:o260 (id 4): a pair an 8-bit level
  // signature used to prune.
  EXPECT_TRUE(std::binary_search(base.full.begin(), base.full.end(),
                                 std::make_pair(qb::ObsId{1}, qb::ObsId{4})));
  for (Method method : {Method::kBaseline, Method::kCubeMasking}) {
    CountingSink sink;
    EngineOptions options;
    options.method = method;
    ASSERT_TRUE(
        ComputeRelationships(*corpus.observations, options, &sink).ok());
    EXPECT_EQ(sink.full(), base.full.size()) << MethodName(method);
    EXPECT_EQ(sink.partial(), base.partial.size()) << MethodName(method);
    EXPECT_EQ(sink.complementary(), base.compl_pairs.size())
        << MethodName(method);
  }
}

TEST(ExactOracleShapesTest, AllRootObservations) {
  qb::Corpus corpus = MakeAllRootCorpus();
  const Records base = ExpectAllPathsMatchBaseline(*corpus.observations);
  const std::size_t n = corpus.observations->size();
  EXPECT_EQ(base.compl_pairs.size(), n * (n - 1) / 2);
  EXPECT_TRUE(base.partial.empty());
}

TEST(ExactOracleShapesTest, EmptyAndSingleObservation) {
  qb::Corpus empty = MakeAllRootCorpus(0);
  EXPECT_TRUE(ExpectAllPathsMatchBaseline(*empty.observations).full.empty());
  qb::Corpus single = MakeAllRootCorpus(1);
  EXPECT_TRUE(ExpectAllPathsMatchBaseline(*single.observations).full.empty());
}

// --- Funnel and deadline ----------------------------------------------------------

TEST(CubeMaskingFunnelTest, CoveredPairsCountMeasureDisjointGroups) {
  // The all-root corpus is one cube whose groups partly share no measure:
  // the funnel still counts every covered pair, the sink only the emitted.
  qb::Corpus corpus = MakeAllRootCorpus(30);
  const std::size_t n = corpus.observations->size();
  for (bool prefetch : {true, false}) {
    CountingSink sink;
    CubeMaskingStats stats;
    CubeMaskingOptions options;
    options.prefetch_children = prefetch;
    options.selector.partial_containment = false;
    ASSERT_TRUE(
        RunCubeMasking(*corpus.observations, options, &sink, &stats).ok());
    EXPECT_EQ(stats.cube_pairs_comparable, 1u);
    // Fused: n(n-1) ordered pairs once; per-type: the full pass's n(n-1)
    // plus the complementarity pass's n(n-1)/2.
    EXPECT_EQ(stats.observation_pairs_compared,
              prefetch ? n * (n - 1) : n * (n - 1) + n * (n - 1) / 2);
    EXPECT_EQ(stats.relationships_emitted, sink.full() + sink.complementary());
    EXPECT_LT(sink.full(), n * (n - 1));  // dataset 2 shares no measure
  }
}

TEST(CubeMaskingFunnelTest, DeadlineIsReadEvery4096PairsInsideACube) {
  // In the all-root corpus every pair sits in one cube pair, so the
  // deadline must be read inside it. In the one-dataset random corpus
  // every member shares one measure mask, so an outer row's comparable
  // inner rows form long runs across many small cubes, which must be cut
  // as well. Either way an expired deadline stops the run before it
  // evaluates (and so emits) more than 4,096 pairs.
  qb::Corpus one_cube = MakeAllRootCorpus(300);
  qb::Corpus small_cubes =
      MakeRandomCorpus(7, 600, /*num_dims=*/5, /*num_datasets=*/1);
  {
    const qb::ObservationSet& obs = *small_cubes.observations;
    const Lattice lattice(obs);
    const MemberTable table(obs, lattice);
    ASSERT_EQ(table.runs().size(), 1u);
    ASSERT_GE(lattice.num_cubes(), 50u);
    for (CubeId c = 0; c < lattice.num_cubes(); ++c) {
      ASSERT_LT(table.cube_size(c), 64u);
    }
    CountingSink sink;
    ASSERT_TRUE(RunCubeMasking(obs, CubeMaskingOptions{}, &sink).ok());
    ASSERT_GT(sink.full() + sink.partial() + sink.complementary(), 4096u);
  }
  for (const qb::Corpus* corpus : {&one_cube, &small_cubes}) {
    for (bool prefetch : {true, false}) {
      CountingSink sink;
      CubeMaskingOptions options;
      options.prefetch_children = prefetch;
      options.deadline = Deadline(0.0);
      EXPECT_TRUE(
          RunCubeMasking(*corpus->observations, options, &sink).IsTimedOut());
      EXPECT_LE(sink.full() + sink.partial() + sink.complementary(), 4096u);
    }
  }
}

// --- Emission contract ------------------------------------------------------------
// Within one containment pass, each container's containments reach the sink
// in one uninterrupted stretch (core/relationship.h); RelationshipSnapshot::
// Build writes its rows on that promise.

// Records every relationship in arrival order, as (kind, a, b, degree bits,
// mask), through the default chunk forwarding, and checks that no chunk
// holds its own outer observation.
class OrderSink : public RelationshipSink {
 public:
  using Record = std::tuple<char, qb::ObsId, qb::ObsId, uint64_t, uint64_t>;

  std::size_t OnContainmentChunk(const ContainmentChunk& chunk) override {
    for (std::size_t i = 0; i < chunk.size; ++i) {
      EXPECT_NE(chunk.ids[i], chunk.outer);
    }
    return RelationshipSink::OnContainmentChunk(chunk);
  }
  void OnFullContainment(qb::ObsId a, qb::ObsId b) override {
    records.emplace_back('F', a, b, 0, 0);
  }
  void OnPartialContainment(qb::ObsId a, qb::ObsId b, double degree,
                            uint64_t dim_mask) override {
    records.emplace_back('P', a, b, std::bit_cast<uint64_t>(degree),
                         dim_mask);
  }
  void OnComplementarity(qb::ObsId a, qb::ObsId b) override {
    records.emplace_back('C', a, b, 0, 0);
  }

  std::vector<Record> records;
};

// The containers whose containments resume after another container's
// began, and how many stretches there were.
std::pair<std::set<qb::ObsId>, std::size_t> SplitContainers(
    const std::vector<OrderSink::Record>& records) {
  std::set<qb::ObsId> closed;
  std::set<qb::ObsId> split;
  std::size_t stretches = 0;
  qb::ObsId current = 0;
  for (const OrderSink::Record& r : records) {
    if (std::get<0>(r) == 'C') continue;
    const qb::ObsId a = std::get<1>(r);
    if (stretches > 0 && a == current) continue;
    if (stretches > 0) closed.insert(current);
    if (closed.count(a) != 0) split.insert(a);
    current = a;
    ++stretches;
  }
  return {split, stretches};
}

// The exact oracle's corpora, by name.
std::vector<std::pair<std::string, qb::Corpus>> EmissionCorpora() {
  std::vector<std::pair<std::string, qb::Corpus>> out;
  for (uint64_t seed = 1; seed < 9; ++seed) {
    out.emplace_back("random/" + std::to_string(seed),
                     RandomOracleCorpus(seed));
    out.emplace_back("duplicates/" + std::to_string(seed),
                     MakeDuplicateCoordinateCorpus(seed));
  }
  out.emplace_back("64 dimensions", MakeWideCorpus(3));
  out.emplace_back("deep chain", MakeDeepChainCorpus());
  out.emplace_back("all root", MakeAllRootCorpus());
  out.emplace_back("empty", MakeAllRootCorpus(0));
  out.emplace_back("single", MakeAllRootCorpus(1));
  return out;
}

TEST(CubeMaskingEmissionTest, EachContainerIsOneStretch) {
  RelationshipSelector all_map;
  all_map.partial_dimension_map = true;
  RelationshipSelector partial_map = RelationshipSelector::PartialOnly();
  partial_map.partial_dimension_map = true;
  const RelationshipSelector selectors[] = {
      RelationshipSelector::All(), all_map, RelationshipSelector::FullOnly(),
      RelationshipSelector::PartialOnly(), partial_map};
  std::size_t most_stretches = 0;
  for (const auto& [name, corpus] : EmissionCorpora()) {
    const qb::ObservationSet& obs = *corpus.observations;
    const Lattice lattice(obs);
    const MemberTable table(obs, lattice);
    const CubeId c = static_cast<CubeId>(lattice.num_cubes());
    for (const RelationshipSelector& sel : selectors) {
      const std::string what =
          name + " selector " + std::to_string(SelectorBits(sel));
      CubeMaskingOptions options;
      options.selector = sel;
      OrderSink whole;
      CubeMaskingStats stats;
      ASSERT_TRUE(RunCubeMasking(obs, options, &whole, &stats).ok()) << what;
      // The funnel adds up what the sink's chunk calls report.
      EXPECT_EQ(stats.relationships_emitted, whole.records.size()) << what;
      const auto [split, stretches] = SplitContainers(whole.records);
      EXPECT_TRUE(split.empty())
          << what << ": " << split.size() << " containers in two stretches";
      most_stretches = std::max(most_stretches, stretches);
      // Split outer ranges, run one after another into one sink, emit
      // exactly what one range over every cube emits.
      OrderSink one_range;
      ASSERT_TRUE(RunCubeMaskingOuterRange(obs, lattice, table, options, 0, c,
                                           &one_range)
                      .ok());
      OrderSink ranges;
      for (CubeId begin = 0; begin < c; begin += 3) {
        const CubeId end = std::min<CubeId>(begin + 3, c);
        ASSERT_TRUE(RunCubeMaskingOuterRange(obs, lattice, table, options,
                                             begin, end, &ranges)
                        .ok());
      }
      EXPECT_EQ(ranges.records, one_range.records) << what;
      EXPECT_TRUE(SplitContainers(ranges.records).first.empty()) << what;
    }
  }
  EXPECT_GE(most_stretches, 40u);
}

TEST(CubeMaskingOuterRangeTest, RejectsATableOfAnotherLattice) {
  qb::Corpus a = MakeRandomCorpus(2, 30);
  qb::Corpus b = MakeAllRootCorpus(5);
  const Lattice lattice_a(*a.observations);
  const Lattice lattice_b(*b.observations);
  const MemberTable table_b(*b.observations, lattice_b);
  CountingSink sink;
  EXPECT_TRUE(RunCubeMaskingOuterRange(*a.observations, lattice_a, table_b,
                                       CubeMaskingOptions{}, 0, 1, &sink)
                  .IsInvalidArgument());
}

// --- Engine facade ------------------------------------------------------------------

TEST(EngineTest, AllMethodsAgreeOnFullAndCompl) {
  qb::Corpus corpus = MakeRunningExample();
  const qb::ObservationSet& obs = *corpus.observations;
  CollectingSink baseline_sink, masking_sink;
  EngineOptions options;
  options.method = Method::kBaseline;
  EngineReport report;
  ASSERT_TRUE(ComputeRelationships(obs, options, &baseline_sink, &report).ok());
  EXPECT_GE(report.elapsed_seconds, 0.0);
  options.method = Method::kCubeMasking;
  ASSERT_TRUE(ComputeRelationships(obs, options, &masking_sink, &report).ok());
  EXPECT_EQ(report.masking.num_cubes, 5u);
  EXPECT_EQ(Snapshot::From(baseline_sink), Snapshot::From(masking_sink));
}

TEST(EngineTest, ClusteringIsSubsetOfBaseline) {
  qb::Corpus corpus = MakeRandomCorpus(21, 120);
  const qb::ObservationSet& obs = *corpus.observations;
  const Snapshot base = RunBaselineSnapshot(obs);
  CollectingSink cluster_sink;
  EngineOptions options;
  options.method = Method::kClustering;
  options.cluster_sample_fraction = 0.25;
  EngineReport report;
  ASSERT_TRUE(ComputeRelationships(obs, options, &cluster_sink, &report).ok());
  EXPECT_GT(report.cluster.num_clusters, 0u);
  const Snapshot clustered = Snapshot::From(cluster_sink);
  for (const auto& p : clustered.full) EXPECT_TRUE(base.full.count(p));
  for (const auto& p : clustered.compl_pairs) {
    EXPECT_TRUE(base.compl_pairs.count(p));
  }
  for (const auto& p : clustered.partial) EXPECT_TRUE(base.partial.count(p));
}

TEST(EngineTest, MethodNames) {
  EXPECT_STREQ(MethodName(Method::kBaseline), "baseline");
  EXPECT_STREQ(MethodName(Method::kClustering), "clustering");
  EXPECT_STREQ(MethodName(Method::kCubeMasking), "cubeMasking");
  EXPECT_STREQ(MethodName(Method::kHybrid), "hybrid");
}

TEST(EngineTest, HybridThroughFacade) {
  qb::Corpus corpus = MakeRandomCorpus(41, 80);
  const qb::ObservationSet& obs = *corpus.observations;
  const Snapshot base = RunBaselineSnapshot(obs);
  CollectingSink sink;
  EngineOptions options;
  options.method = Method::kHybrid;
  EngineReport report;
  ASSERT_TRUE(ComputeRelationships(obs, options, &sink, &report).ok());
  const Snapshot hybrid = Snapshot::From(sink);
  EXPECT_EQ(hybrid.full, base.full);            // exact stage
  EXPECT_EQ(hybrid.compl_pairs, base.compl_pairs);
  for (const auto& p : hybrid.partial) {        // lossy stage: subset
    EXPECT_TRUE(base.partial.count(p));
  }
  EXPECT_GT(report.masking.num_cubes, 0u);
  EXPECT_GT(report.cluster.num_clusters, 0u);
}

TEST(EngineTest, DeadlinePropagates) {
  qb::Corpus corpus = MakeRandomCorpus(5, 600);
  for (Method method : {Method::kBaseline, Method::kClustering,
                        Method::kCubeMasking, Method::kHybrid}) {
    CollectingSink sink;
    EngineOptions options;
    options.method = method;
    options.deadline = Deadline(1e-9);
    EXPECT_TRUE(
        ComputeRelationships(*corpus.observations, options, &sink).IsTimedOut())
        << MethodName(method);
  }
}

}  // namespace
}  // namespace core
}  // namespace rdfcube
