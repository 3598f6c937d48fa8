// Shared fixtures: the paper's running example (Figures 1-2) and small
// random corpora for property tests.

#ifndef RDFCUBE_TESTS_TEST_CORPUS_H_
#define RDFCUBE_TESTS_TEST_CORPUS_H_

#include <cstdint>
#include <string>

#include "qb/corpus.h"
#include "util/random.h"

namespace rdfcube {
namespace testutil {

// Dimension / measure IRIs of the running example.
inline constexpr char kRefArea[] = "ex:refArea";
inline constexpr char kRefPeriod[] = "ex:refPeriod";
inline constexpr char kSex[] = "ex:sex";
inline constexpr char kPopulation[] = "ex:population";
inline constexpr char kUnemployment[] = "ex:unemployment";
inline constexpr char kPoverty[] = "ex:poverty";

/// Builds the motivating example of the paper (Figures 1-2):
///
///   refArea:   World -> {Europe -> {Greece -> {Athens, Ioannina},
///              Italy -> {Rome}}, America -> {US -> {TX -> {Austin}}}}
///   refPeriod: AllTime -> {2001, 2011 -> {Jan11, Feb11}}
///   sex:       Total -> {Female, Male}
///
///   D1 (refArea, refPeriod, sex; population):      o11, o12, o13
///   D2 (refArea, refPeriod; unemployment+poverty): o21, o22
///   D3 (refArea, refPeriod; unemployment):         o31..o35
///
/// Observation ids (in insertion order): o11=0, o12=1, o13=2, o21=3, o22=4,
/// o31=5, o32=6, o33=7, o34=8, o35=9.
qb::Corpus MakeRunningExample();

/// Observation ids of the running example, for readable assertions.
enum RunningExampleIds : uint32_t {
  kO11 = 0,
  kO12 = 1,
  kO13 = 2,
  kO21 = 3,
  kO22 = 4,
  kO31 = 5,
  kO32 = 6,
  kO33 = 7,
  kO34 = 8,
  kO35 = 9,
};

/// Builds a randomized corpus for property tests: `num_dims` dimensions with
/// random trees (fanout 2-4, depth <= 3), `num_datasets` datasets over random
/// schema subsets with overlapping measures, `num_obs` observations with
/// values at random levels. Deterministic in `seed`.
qb::Corpus MakeRandomCorpus(uint64_t seed, std::size_t num_obs = 60,
                            std::size_t num_dims = 3,
                            std::size_t num_datasets = 3);

/// Adversarial shapes for the exact differential tests. Every one mixes
/// datasets that share a measure with one that shares none, so a cube holds
/// members whose measure sets are disjoint.
///
/// A 300-level chain hierarchy (deeper than any 8-bit level) plus a small
/// side dimension: observations sit at depths 0, 10, 255, 256, 260, 299 and
/// 300 of the chain. Among them, "deep:o10" (depth 10) fully contains
/// "deep:o260" (depth 260) of the same dataset.
qb::Corpus MakeDeepChainCorpus();

/// 64 dimensions (the ObservationSet ceiling, so partial dimension masks
/// reach bit 63) with shallow random trees; dataset 0 declares all 64.
qb::Corpus MakeWideCorpus(uint64_t seed, std::size_t num_obs = 40);

/// Observations that give no dimension value at all: every one is
/// root-padded on every dimension, so they form a single cube.
qb::Corpus MakeAllRootCorpus(std::size_t num_obs = 30);

/// Observations drawn from a handful of coordinate tuples, so many share
/// identical coordinates within and across datasets.
qb::Corpus MakeDuplicateCoordinateCorpus(uint64_t seed,
                                         std::size_t num_obs = 60);

}  // namespace testutil
}  // namespace rdfcube

#endif  // RDFCUBE_TESTS_TEST_CORPUS_H_
