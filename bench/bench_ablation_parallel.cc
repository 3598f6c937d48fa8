// Ablation (paper §6 future work, implemented here): parallel cubeMasking —
// the outer cubes split into contiguous ranges balanced by covered pairs,
// each range run by RunCubeMaskingOuterRange on a thread pool — against the
// sequential run, across thread counts.
//
// Note: speedup is bounded by the host's core count, and the parallel run
// pays for a children index and for buffering every relationship in
// per-range sinks before the merge.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/cube_masking.h"
#include "core/parallel_masking.h"

namespace {

using namespace rdfcube;

void BM_Sequential(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const qb::Corpus& corpus = benchutil::RealWorldPrefix(n);
  const qb::ObservationSet& observations = *corpus.observations;
  const core::Lattice lattice(observations);
  for (auto _ : state) {
    core::CountingSink sink;
    core::CubeMaskingOptions options;
    options.selector.partial_containment = false;  // full + compl
    const Status st = core::RunCubeMasking(observations, lattice, options, &sink);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(sink.full());
  }
  state.counters["observations"] = static_cast<double>(n);
  state.counters["threads"] = 1;
}

void BM_Parallel(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  const qb::Corpus& corpus = benchutil::RealWorldPrefix(n);
  const qb::ObservationSet& observations = *corpus.observations;
  const core::Lattice lattice(observations);
  for (auto _ : state) {
    core::CountingSink sink;
    core::ParallelMaskingOptions options;
    options.num_threads = threads;
    options.selector.partial_containment = false;
    const Status st = core::RunCubeMaskingParallel(observations, lattice, options, &sink);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(sink.full());
  }
  state.counters["observations"] = static_cast<double>(n);
  state.counters["threads"] = static_cast<double>(threads);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = rdfcube::benchutil::LargeMode() ? 50000 : 10000;
  benchmark::RegisterBenchmark("masking/sequential", BM_Sequential)
      ->Arg(static_cast<long>(n))
      ->Unit(benchmark::kMillisecond)
      ->Iterations(3);
  for (long threads : {1, 2, 4}) {
    benchmark::RegisterBenchmark("masking/parallel", BM_Parallel)
        ->Args({static_cast<long>(n), threads})
        ->Unit(benchmark::kMillisecond)
        ->Iterations(3);
  }
  return rdfcube::benchutil::RunBenchMain("ablation_parallel", argc, argv);
}
