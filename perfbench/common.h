// Shared pieces of the end-to-end benchmark: command-line arguments, op-class
// latency samples, the run report printed as the final JSON line, answer
// fingerprints, and the seeded input helpers every workload uses.
//
// Everything here is bench-side code. The program under test is reached only
// through its public headers (qb, core, datagen, server, obs).

#ifndef RDFCUBE_PERFBENCH_COMMON_H_
#define RDFCUBE_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "base/result.h"
#include "core/relationship.h"
#include "qb/corpus.h"

namespace perfbench {

namespace core = rdfcube::core;
namespace qb = rdfcube::qb;

using Clock = std::chrono::steady_clock;

/// Records in one page: what a page scan asks for, and the record whose
/// arrival ends relate's first page. Far below the 1 MiB frame cap.
inline constexpr uint32_t kPageLimit = 2000;

/// Milliseconds between two steady-clock points.
inline double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// \brief One instant on two clocks: the steady clock, and the CPU time the
/// whole process (every thread, user and system) has used so far. CPU time
/// leaves out time the host takes a vCPU away and time spent waiting for a
/// wake-up, so it holds still when a shared host gets busy.
struct Instant {
  Clock::time_point wall;
  double cpu_ms = 0;
  static Instant Now();
};

/// \brief What an interval took on each clock, in ms.
struct Took {
  double wall_ms = 0;
  double cpu_ms = 0;
};

inline Took Between(const Instant& from, const Instant& to) {
  return Took{Ms(from.wall, to.wall), to.cpu_ms - from.cpu_ms};
}
inline Took Since(const Instant& from) { return Between(from, Instant::Now()); }

/// \brief Parsed command line:
/// `--workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]`.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its Chrome trace JSON (empty: not written).
  std::string trace_out;
};

/// SplitMix64 finalizer: the bench's only source of randomness, so the
/// inputs a seed produces never depend on the program's own RNG code.
uint64_t Mix64(uint64_t x);

/// \brief Deterministic stream of uniform draws derived from one seed.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix64(state_ += 0x9e3779b97f4a7c15ull); }
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// Number of timed ops for a run of `seconds` at the workload's nominal
/// rate: fixed by the arguments alone, never by how fast this run goes.
std::size_t OpCount(double seconds, double ops_per_second);

/// Nearest-rank quantile of `samples` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> samples, double q);

/// The highest of p50/p75/p90/p95/p99/p99.9 with at least ten of `n`
/// samples beyond it. Shown on each class's summary line, not gated.
double TailPercentile(std::size_t n);

/// Quantile of every gated op-class metric (`<class>_cpu_p90_ms`). On a
/// shared host an op runs at one of two speeds, with its core's neighbours
/// quiet or busy, and the share of a run spent at each moves from run to
/// run: the median moves with it, the 90th percentile stays at the busy
/// speed (NOTES.md, "Steadiness").
inline constexpr double kGatedQuantile = 0.9;

/// \brief One class of operations: how many were attempted and failed, and
/// what each one that succeeded took.
struct OpClass {
  std::string name;
  /// Counted in the final line's attempted/failed. The known-defect class is
  /// not (see NOTES.md, "server-cap scans").
  bool counted = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> ms;      // wall clock
  std::vector<double> cpu_ms;  // process CPU time
  void Add(const Took& took) {
    ms.push_back(took.wall_ms);
    cpu_ms.push_back(took.cpu_ms);
  }
};

/// \brief A run's outcome: answer verdict, op classes and named metrics.
class Report {
 public:
  /// Records an answer mismatch or a broken conservation law; the run then
  /// reports correct=false and exits non-zero.
  void Mismatch(const std::string& what);
  bool correct() const { return mismatches_ == 0; }

  /// The class named `name`, created on first use. References stay valid
  /// while the Report lives.
  OpClass& Class(const std::string& name, bool counted = true);
  void Set(const std::string& name, double value, const std::string& unit);
  /// `<prefix>_cpu_p90_ms` over `cls`'s CPU times.
  void SetLatency(const std::string& prefix, const OpClass& cls);

  /// Prints one summary line per op class, then the final JSON line.
  void Print() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  uint64_t mismatches_ = 0;
  std::deque<OpClass> classes_;
  std::map<std::string, Metric> metrics_;
};

/// ru_maxrss of this process in MiB.
double PeakRssMb();

/// Heap bytes currently allocated (mallinfo2), for per-structure sizes.
double HeapBytes();

/// \brief Order-independent digest of a relationship set: the count plus a
/// sum of per-record hashes over (type, a, b, degree).
struct Fingerprint {
  uint64_t count = 0;
  uint64_t sum = 0;
  bool operator==(const Fingerprint&) const = default;
  std::string ToString() const;
};

/// Packs one relationship record into a 64-bit key: 2-bit type, 21-bit ids,
/// degree quantized to 20 bits (0 for full containment / complementarity).
uint64_t RecordKey(char type, qb::ObsId a, qb::ObsId b, double degree);

/// \brief Sink that folds every relationship into a Fingerprint; optionally
/// notes the time the `page_size`-th record arrived and keeps every key.
class FingerprintSink : public core::RelationshipSink {
 public:
  explicit FingerprintSink(std::size_t page_size = 0, bool keep_keys = false)
      : page_size_(page_size), keep_keys_(keep_keys) {}
  void OnFullContainment(qb::ObsId a, qb::ObsId b) override;
  void OnPartialContainment(qb::ObsId a, qb::ObsId b, double degree,
                            uint64_t dim_mask) override;
  void OnComplementarity(qb::ObsId a, qb::ObsId b) override;

  const Fingerprint& fingerprint() const { return fp_; }
  /// When the page_size-th record arrived (zero when it never did).
  const Instant& page_full_at() const { return page_full_at_; }
  /// Every key seen, when constructed with keep_keys (unsorted).
  std::vector<uint64_t>& keys() { return keys_; }

 private:
  void Add(uint64_t key);
  std::size_t page_size_;
  bool keep_keys_;
  Fingerprint fp_;
  Instant page_full_at_{};
  std::vector<uint64_t> keys_;
};

/// Realworld-shaped corpus of `n` observations for `seed`, serialized: the
/// form every workload hands to the program.
rdfcube::Result<std::string> GenerateCorpusBytes(std::size_t n, uint64_t seed);

/// Serialized corpus holding observations `ids` of `source` (in that order)
/// over the same schema space: how the bench builds a base corpus and its
/// extensions from one generated pool.
rdfcube::Result<std::string> SubCorpusBytes(const std::string& source,
                                            const std::vector<qb::ObsId>& ids);

/// Fingerprint of what ComputeRelationships finds in `bytes`, with the
/// baseline method when `baseline` is set, else the default (cubeMasking);
/// the sorted keys too when `keys` is non-null. Runs outside timed regions.
rdfcube::Result<Fingerprint> OracleFingerprint(const std::string& bytes,
                                               bool baseline,
                                               std::vector<uint64_t>* keys);

}  // namespace perfbench

#endif  // RDFCUBE_PERFBENCH_COMMON_H_
