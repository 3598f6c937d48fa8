// Traced-run support (`--trace 1`): bench-side spans around each public call
// into a layer, the per-layer metrics derived from them, the conservation
// checks, and the layer probe that gives every traced run a reading for every
// layer, including the layers its own ops do not reach.
//
// In timed runs (`--trace 0`) every Span is a no-op and the collector stays
// off.

#ifndef RDFCUBE_PERFBENCH_LAYERS_H_
#define RDFCUBE_PERFBENCH_LAYERS_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/cube_masking.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfbench/common.h"

namespace perfbench {

/// \brief Every value a traced run records, keyed by layer call: span
/// durations in ms plus the counts read next to them.
class Ledger {
 public:
  static Ledger& Get();
  void Add(const std::string& key, double value) {
    values_[key].push_back(value);
  }
  std::vector<double> Values(const std::string& key) const;
  double Median(const std::string& key) const;
  double Sum(const std::string& key) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// \brief Times one public call in a traced run: an obs::TraceSpan for the
/// Chrome trace and the conservation checks, plus a steady-clock duration
/// in the Ledger (full precision; spans carry whole microseconds). A no-op
/// object when `traced` is false.
class Span {
 public:
  Span(bool traced, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool traced_;
  Clock::time_point start_{};
  std::optional<rdfcube::obs::TraceSpan> span_;
};

/// \brief Brackets a traced run: snapshots the server metrics at the start,
/// and at Finish turns spans, counters and the Ledger into the per-layer
/// metrics and checks the conservation laws.
class TracedRun {
 public:
  TracedRun();
  /// Starts span collection; ops before this call form the untraced half.
  void EnableCollector();
  /// Call after every server in the run has stopped. `untraced` and
  /// `traced` are the primary op's latencies in the two halves.
  void Finish(const Args& args, const std::vector<double>& untraced,
              const std::vector<double>& traced, Report* report);

 private:
  rdfcube::obs::MetricsSnapshot before_;
};

/// Calls every layer's public entry points over `ext_bytes` (whose first
/// `base_n` observations form the base of a copy-on-write refresh), inside
/// Spans, and records what the per-layer metrics need. Used by every traced
/// run after its own ops.
void ProbeLayers(const std::string& ext_bytes, std::size_t base_n,
                 uint64_t seed, Report* report);

/// Records one cubeMasking run's funnel counts in the Ledger and checks
/// that the funnel narrows and that `emitted` equals what the sink saw.
void RecordFunnel(const core::CubeMaskingStats& stats, uint64_t sink_count,
                  Report* report);

}  // namespace perfbench

#endif  // RDFCUBE_PERFBENCH_LAYERS_H_
