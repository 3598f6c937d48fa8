// Umbrella header: the full public API of the rdfcube library.
//
// Quick tour (see examples/quickstart.cpp for runnable code):
//   1. Build or load a corpus:
//        qb::CorpusBuilder / qb::LoadCorpusFromRdf / qb::ImportCsvDataset /
//        datagen::GenerateRealWorldCorpus.
//   2. Compute relationships:
//        core::ComputeRelationships(obs, options, &sink)  — baseline,
//        clustering, or cubeMasking (the paper's three methods).
//   3. Consume results through a core::RelationshipSink.
//   4. Extras: core::ComputeSkyline, core::IncrementalEngine,
//      core::RunCubeMaskingParallel, sparql::/rules:: comparison engines.

#ifndef RDFCUBE_RDFCUBE_H_
#define RDFCUBE_RDFCUBE_H_

// Every public header under src/ must appear here (tools/rdfcube_lint
// enforces it); internal-only headers opt out with an "rdfcube:internal"
// marker comment near their top.
#include "align/matcher.h"                 // IWYU pragma: export
#include "base/blocking.h"                 // IWYU pragma: export
#include "base/hot.h"                      // IWYU pragma: export
#include "base/result.h"                   // IWYU pragma: export
#include "base/status.h"                   // IWYU pragma: export
#include "base/stopwatch.h"                // IWYU pragma: export
#include "base/thread_annotations.h"       // IWYU pragma: export
#include "base/untrusted.h"                // IWYU pragma: export
#include "cluster/agglomerative.h"         // IWYU pragma: export
#include "cluster/canopy.h"                // IWYU pragma: export
#include "cluster/kmeans.h"                // IWYU pragma: export
#include "cluster/metric.h"                // IWYU pragma: export
#include "cluster/xmeans.h"                // IWYU pragma: export
#include "core/aggregate.h"                // IWYU pragma: export
#include "core/baseline.h"                 // IWYU pragma: export
#include "core/checkpoint.h"               // IWYU pragma: export
#include "core/containment_matrix.h"       // IWYU pragma: export
#include "core/cube_masking.h"             // IWYU pragma: export
#include "core/distributed.h"              // IWYU pragma: export
#include "core/explorer.h"                 // IWYU pragma: export
#include "core/hybrid.h"                   // IWYU pragma: export
#include "core/clustering_method.h"        // IWYU pragma: export
#include "core/engine.h"                   // IWYU pragma: export
#include "core/incremental.h"              // IWYU pragma: export
#include "core/lattice.h"                  // IWYU pragma: export
#include "core/occurrence_matrix.h"        // IWYU pragma: export
#include "core/parallel_masking.h"         // IWYU pragma: export
#include "core/relatedness.h"              // IWYU pragma: export
#include "core/relationship.h"             // IWYU pragma: export
#include "core/relationship_rdf.h"         // IWYU pragma: export
#include "core/sparse_matrix.h"            // IWYU pragma: export
#include "core/skyline.h"                  // IWYU pragma: export
#include "core/snapshot.h"                 // IWYU pragma: export
#include "datagen/perturb.h"               // IWYU pragma: export
#include "datagen/realworld.h"             // IWYU pragma: export
#include "datagen/synthetic.h"             // IWYU pragma: export
#include "hierarchy/code_list.h"           // IWYU pragma: export
#include "hierarchy/skos_loader.h"         // IWYU pragma: export
#include "obs/log.h"                       // IWYU pragma: export
#include "obs/metrics.h"                   // IWYU pragma: export
#include "obs/report.h"                    // IWYU pragma: export
#include "obs/trace.h"                     // IWYU pragma: export
#include "qb/binary_io.h"                  // IWYU pragma: export
#include "qb/corpus.h"                     // IWYU pragma: export
#include "qb/csv_importer.h"               // IWYU pragma: export
#include "qb/cube_space.h"                 // IWYU pragma: export
#include "qb/exporter.h"                   // IWYU pragma: export
#include "qb/loader.h"                     // IWYU pragma: export
#include "qb/observation_set.h"            // IWYU pragma: export
#include "qb/slice.h"                      // IWYU pragma: export
#include "qb/validate.h"                   // IWYU pragma: export
#include "rdf/dictionary.h"                // IWYU pragma: export
#include "rdf/term.h"                      // IWYU pragma: export
#include "rdf/triple_store.h"              // IWYU pragma: export
#include "rdf/turtle_parser.h"             // IWYU pragma: export
#include "rdf/turtle_writer.h"             // IWYU pragma: export
#include "rdf/vocab.h"                     // IWYU pragma: export
#include "rules/engine.h"                  // IWYU pragma: export
#include "rules/paper_rules.h"             // IWYU pragma: export
#include "rules/rule.h"                    // IWYU pragma: export
#include "server/client.h"                 // IWYU pragma: export
#include "server/protocol.h"               // IWYU pragma: export
#include "server/server.h"                 // IWYU pragma: export
#include "server/slowlog.h"                // IWYU pragma: export
#include "server/snapshot_store.h"         // IWYU pragma: export
#include "sparql/ast.h"                    // IWYU pragma: export
#include "sparql/engine.h"                 // IWYU pragma: export
#include "sparql/paper_queries.h"          // IWYU pragma: export
#include "sparql/parser.h"                 // IWYU pragma: export
#include "util/bitvector.h"                // IWYU pragma: export
#include "util/csv.h"                      // IWYU pragma: export
#include "util/fault.h"                    // IWYU pragma: export
#include "util/random.h"                   // IWYU pragma: export
#include "util/result.h"                   // IWYU pragma: export
#include "util/safe_math.h"                // IWYU pragma: export
#include "util/status.h"                   // IWYU pragma: export
#include "util/stopwatch.h"                // IWYU pragma: export
#include "util/string_util.h"              // IWYU pragma: export
#include "util/thread_annotations.h"       // IWYU pragma: export
#include "util/thread_pool.h"              // IWYU pragma: export

#endif  // RDFCUBE_RDFCUBE_H_
