// The three workloads (see NOTES.md for why each exists). Each fills
// `report` with its op classes and metrics: the end-to-end metrics in a
// timed run, the per-layer metrics in a traced one.

#ifndef RDFCUBE_PERFBENCH_WORKLOADS_H_
#define RDFCUBE_PERFBENCH_WORKLOADS_H_

#include "perfbench/common.h"

namespace perfbench {

/// Batch: decode a fresh 2,000-observation corpus and compute all three
/// relationship types with the default engine.
void RunRelate(const Args& args, Report* report);

/// Reads: point lookups and page scans against a served snapshot.
void RunServe(const Args& args, Report* report);

/// Writes beside reads: copy-on-write reloads of a served snapshot, each
/// followed by a page scan of the refreshed data.
void RunRefresh(const Args& args, Report* report);

}  // namespace perfbench

#endif  // RDFCUBE_PERFBENCH_WORKLOADS_H_
