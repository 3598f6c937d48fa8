#include "core/engine.h"

#include <memory>
#include <string>

#include "core/baseline.h"
#include "core/occurrence_matrix.h"
#include "obs/trace.h"
#include "qb/observation_set.h"

namespace rdfcube {
namespace core {

namespace obx = ::rdfcube::obs;

const char* MethodName(Method method) {
  switch (method) {
    case Method::kBaseline:
      return "baseline";
    case Method::kClustering:
      return "clustering";
    case Method::kCubeMasking:
      return "cubeMasking";
    case Method::kHybrid:
      return "hybrid";
  }
  return "?";
}

Status ComputeRelationships(const qb::ObservationSet& obs,
                            const EngineOptions& options,
                            RelationshipSink* sink, EngineReport* report) {
  Stopwatch watch;
  const Deadline& deadline = options.deadline;
  Status status;
  switch (options.method) {
    case Method::kBaseline: {
      std::unique_ptr<const OccurrenceMatrix> om;
      {
        obx::TraceSpan span("engine/occurrence_matrix");
        om = std::make_unique<const OccurrenceMatrix>(obs);
      }
      BaselineOptions bo;
      bo.selector = options.selector;
      bo.deadline = deadline;
      obx::TraceSpan span("engine/baseline");
      status = RunBaseline(obs, *om, bo, sink);
      break;
    }
    case Method::kClustering: {
      std::unique_ptr<const OccurrenceMatrix> om;
      {
        obx::TraceSpan span("engine/occurrence_matrix");
        om = std::make_unique<const OccurrenceMatrix>(obs);
      }
      ClusteringMethodOptions co;
      co.selector = options.selector;
      co.deadline = deadline;
      co.algorithm = options.cluster_algorithm;
      co.sample_fraction = options.cluster_sample_fraction;
      co.seed = options.seed;
      {
        obx::TraceSpan span("engine/clustering");
        status = RunClusteringMethod(obs, *om, co, sink,
                                     report ? &report->cluster : nullptr);
      }
      break;
    }
    case Method::kCubeMasking: {
      CubeMaskingOptions mo;
      mo.selector = options.selector;
      mo.deadline = deadline;
      mo.prefetch_children = options.prefetch_children;
      {
        obx::TraceSpan span("engine/cube_masking");
        status = RunCubeMasking(obs, mo, sink,
                                report ? &report->masking : nullptr);
      }
      break;
    }
    case Method::kHybrid: {
      HybridOptions ho;
      ho.deadline = deadline;
      ho.cluster_algorithm = options.cluster_algorithm;
      ho.cluster_sample_fraction = options.cluster_sample_fraction;
      ho.seed = options.seed;
      ho.partial_dimension_map = options.selector.partial_dimension_map;
      ho.compute_partial = options.selector.partial_containment;
      HybridStats hstats;
      {
        obx::TraceSpan span("engine/hybrid");
        status = RunHybrid(obs, ho, sink, &hstats);
      }
      if (report != nullptr) {
        report->masking = hstats.masking;
        report->cluster = hstats.cluster;
      }
      break;
    }
  }
  if (report != nullptr) report->elapsed_seconds = watch.ElapsedSeconds();
  return status;
}

void FillRunReport(const EngineReport& report, obs::RunReport* out) {
  out->set_wall_seconds(report.elapsed_seconds);
  out->AddStat("masking.num_cubes",
               static_cast<double>(report.masking.num_cubes));
  out->AddStat("masking.cube_pairs_checked",
               static_cast<double>(report.masking.cube_pairs_checked));
  out->AddStat("masking.cube_pairs_comparable",
               static_cast<double>(report.masking.cube_pairs_comparable));
  out->AddStat("masking.observation_pairs_compared",
               static_cast<double>(report.masking.observation_pairs_compared));
  out->AddStat("masking.relationships_emitted",
               static_cast<double>(report.masking.relationships_emitted));
  out->AddStat("cluster.sample_size",
               static_cast<double>(report.cluster.sample_size));
  out->AddStat("cluster.num_clusters",
               static_cast<double>(report.cluster.num_clusters));
  out->AddStat("cluster.largest_cluster",
               static_cast<double>(report.cluster.largest_cluster));
}

}  // namespace core
}  // namespace rdfcube
