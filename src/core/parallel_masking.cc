#include "core/parallel_masking.h"

#include <vector>

#include "obs/trace.h"
#include "qb/observation_set.h"
#include "util/thread_pool.h"

namespace rdfcube {
namespace core {

namespace obx = ::rdfcube::obs;

namespace {

// Splits the outer cubes into at most `parts` contiguous ranges of about
// equal work, counted as the observation pairs each outer cube's comparable
// pairs cover. Returns the range boundaries, from 0 to the cube count.
std::vector<CubeId> SplitByCoveredPairs(const MemberTable& table,
                                        const CubeChildrenIndex& children,
                                        bool any_dominated, std::size_t parts) {
  const CubeId c = static_cast<CubeId>(table.num_cubes());
  std::vector<std::size_t> work(c);
  std::size_t total = 0;
  for (CubeId j = 0; j < c; ++j) {
    std::size_t inner = 0;
    for (CubeId k : any_dominated ? children.any_dominated(j)
                                  : children.all_dominated(j)) {
      inner += table.cube_size(k);
    }
    work[j] = table.cube_size(j) * inner + 1;  // +1: the cube pair scan
    total += work[j];
  }
  std::vector<CubeId> bounds = {0};
  std::size_t done = 0;
  for (CubeId j = 0; j < c; ++j) {
    done += work[j];
    if (bounds.size() < parts && done * parts >= total * bounds.size()) {
      bounds.push_back(j + 1);
    }
  }
  if (bounds.back() != c) bounds.push_back(c);
  return bounds;
}

}  // namespace

Status RunCubeMaskingParallel(const qb::ObservationSet& obs,
                              const Lattice& lattice,
                              const ParallelMaskingOptions& options,
                              RelationshipSink* sink) {
  const std::size_t threads = options.num_threads == 0 ? 1 : options.num_threads;
  obx::TraceSpan prepare_span("parallel_masking/prepare");
  const MemberTable table(obs, lattice);
  const CubeChildrenIndex children(lattice);
  const std::vector<CubeId> bounds = SplitByCoveredPairs(
      table, children, options.selector.partial_containment, threads);
  prepare_span.End();

  const std::size_t ranges = bounds.size() - 1;
  std::vector<CollectingSink> parts(ranges);
  CubeMaskingOptions masking;
  masking.selector = options.selector;
  {
    obx::TraceSpan span("parallel_masking/ranges");
    ThreadPool pool(threads);
    RDFCUBE_RETURN_IF_ERROR(TryParallelFor(&pool, ranges, [&](std::size_t r) {
      obx::TraceSpan range_span("parallel_masking/range");
      return RunCubeMaskingOuterRange(obs, lattice, table, masking, bounds[r],
                                      bounds[r + 1], &parts[r], nullptr,
                                      &children);
    }));
  }
  obx::TraceSpan merge_span("parallel_masking/merge");
  for (const CollectingSink& part : parts) {
    for (const auto& [a, b] : part.full()) sink->OnFullContainment(a, b);
    for (const auto& p : part.partial()) {
      sink->OnPartialContainment(p.a, p.b, p.degree, p.dim_mask);
    }
    for (const auto& [a, b] : part.complementary()) {
      sink->OnComplementarity(a, b);
    }
  }
  return Status::OK();
}

}  // namespace core
}  // namespace rdfcube
