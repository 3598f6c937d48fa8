// Engine: one entry point over the three native computation methods.

#ifndef RDFCUBE_CORE_ENGINE_H_
#define RDFCUBE_CORE_ENGINE_H_

#include <string>

#include "core/clustering_method.h"
#include "core/cube_masking.h"
#include "core/hybrid.h"
#include "core/relationship.h"
#include "obs/report.h"
#include "qb/observation_set.h"
#include "base/status.h"
#include "base/stopwatch.h"

namespace rdfcube {
namespace core {

/// The paper's three proposed methods plus the §6 hybrid. (The SPARQL- and
/// rule-based comparison approaches live in src/sparql and src/rules and are
/// invoked through their own engines; they are baselines *against* this
/// system, not part of it.)
enum class Method {
  kBaseline,
  kClustering,
  kCubeMasking,
  /// §6 hybrid: exact cubeMasking for full containment + complementarity,
  /// clustering approximation for partial containment. The selector's
  /// partial_containment flag controls whether the lossy stage runs.
  kHybrid,
};

const char* MethodName(Method method);

/// \brief Method selection and shared parameters for Engine::Run.
struct EngineOptions {
  Method method = Method::kCubeMasking;
  RelationshipSelector selector;
  /// Wall-clock limit for the run. The default-constructed Deadline never
  /// expires. This is the single deadline type used across the codebase
  /// (benches, SPARQL/rule engines, distributed/checkpointed runs).
  Deadline deadline;
  /// Clustering-specific knobs (ignored by other methods).
  ClusterAlgorithm cluster_algorithm = ClusterAlgorithm::kXMeans;
  double cluster_sample_fraction = 0.10;
  uint64_t seed = 42;
  /// cubeMasking-specific knob (Fig. 5(g)).
  bool prefetch_children = true;
};

/// \brief Post-run report.
struct EngineReport {
  double elapsed_seconds = 0.0;
  CubeMaskingStats masking;       // filled by kCubeMasking / kHybrid
  ClusteringMethodStats cluster;  // filled by kClustering / kHybrid
};

/// \brief Computes containment/complementarity relationships over `obs` with
/// the selected method, streaming results into `sink`.
[[nodiscard]] Status ComputeRelationships(const qb::ObservationSet& obs,
                            const EngineOptions& options,
                            RelationshipSink* sink,
                            EngineReport* report = nullptr);

/// \brief Flattens an EngineReport into an obs::RunReport (wall clock plus
/// per-method scalar stats). The dependency points core → obs so the
/// observability layer itself stays engine-agnostic.
void FillRunReport(const EngineReport& report, obs::RunReport* out);

}  // namespace core
}  // namespace rdfcube

#endif  // RDFCUBE_CORE_ENGINE_H_
