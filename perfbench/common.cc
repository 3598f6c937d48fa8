#include "perfbench/common.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "core/engine.h"
#include "datagen/realworld.h"
#include "qb/binary_io.h"

namespace perfbench {

using rdfcube::Result;
using rdfcube::Status;

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

Instant Instant::Now() {
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  return Instant{Clock::now(), static_cast<double>(cpu.tv_sec) * 1e3 +
                                   static_cast<double>(cpu.tv_nsec) / 1e6};
}

std::size_t OpCount(double seconds, double ops_per_second) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(seconds * ops_per_second)));
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double TailPercentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  }
  return 50.0;
}

// --- Report ------------------------------------------------------------------

void Report::Mismatch(const std::string& what) {
  ++mismatches_;
  // Only the first few are worth reading; the count says the rest.
  if (mismatches_ <= 5) std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
}

OpClass& Report::Class(const std::string& name, bool counted) {
  for (OpClass& c : classes_) {
    if (c.name == name) return c;
  }
  classes_.push_back(OpClass{name, counted, 0, 0, {}, {}});
  return classes_.back();
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::SetLatency(const std::string& prefix, const OpClass& cls) {
  Set(prefix + "_cpu_p90_ms", Quantile(cls.cpu_ms, kGatedQuantile), "ms");
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Report::Print() const {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const OpClass& c : classes_) {
    std::printf("class %-10s attempted %6llu failed %4llu", c.name.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
    if (!c.ms.empty()) {
      std::printf("  wall p50 %.4f p90 %.4f", Quantile(c.ms, 0.5),
                  Quantile(c.ms, kGatedQuantile));
      const double tail = TailPercentile(c.ms.size());
      if (tail > 90) {
        std::printf(" p%g %.4f", tail, Quantile(c.ms, tail / 100));
      }
      std::printf("  cpu p50 %.4f p90 %.4f ms  (n=%zu)",
                  Quantile(c.cpu_ms, 0.5), Quantile(c.cpu_ms, kGatedQuantile),
                  c.ms.size());
    }
    if (!c.counted) std::printf("  [known defect, not counted]");
    std::printf("\n");
    if (c.counted) {
      attempted += c.attempted;
      failed += c.failed;
    }
  }
  if (mismatches_ > 0) {
    std::printf("answer mismatches: %llu\n",
                static_cast<unsigned long long>(mismatches_));
  }
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

// --- Fingerprints ------------------------------------------------------------

std::string Fingerprint::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu/%016llx",
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(sum));
  return buf;
}

uint64_t RecordKey(char type, qb::ObsId a, qb::ObsId b, double degree) {
  const uint64_t kind = type == 'F' ? 1 : type == 'P' ? 2 : 3;
  const uint64_t q =
      type == 'P' ? static_cast<uint64_t>(std::llround(degree * 1048575.0)) : 0;
  return kind << 62 | (static_cast<uint64_t>(a) & 0x1fffff) << 41 |
         (static_cast<uint64_t>(b) & 0x1fffff) << 20 | (q & 0xfffff);
}

void FingerprintSink::Add(uint64_t key) {
  ++fp_.count;
  fp_.sum += Mix64(key);
  if (fp_.count == page_size_) page_full_at_ = Instant::Now();
  if (keep_keys_) keys_.push_back(key);
}

void FingerprintSink::OnFullContainment(qb::ObsId a, qb::ObsId b) {
  Add(RecordKey('F', a, b, 0.0));
}

void FingerprintSink::OnPartialContainment(qb::ObsId a, qb::ObsId b,
                                           double degree, uint64_t) {
  Add(RecordKey('P', a, b, degree));
}

void FingerprintSink::OnComplementarity(qb::ObsId a, qb::ObsId b) {
  Add(RecordKey('C', a, b, 0.0));
}

// --- Inputs ------------------------------------------------------------------

Result<std::string> GenerateCorpusBytes(std::size_t n, uint64_t seed) {
  Result<qb::Corpus> corpus =
      rdfcube::datagen::GenerateRealWorldPrefix(n, seed);
  if (!corpus.ok()) return corpus.status();
  return qb::SerializeCorpus(corpus.value());
}

Result<std::string> SubCorpusBytes(const std::string& source,
                                   const std::vector<qb::ObsId>& ids) {
  Result<qb::Corpus> decoded = qb::DeserializeCorpus(source);
  if (!decoded.ok()) return decoded.status();
  qb::Corpus corpus = std::move(decoded).value();
  const qb::ObservationSet& from = *corpus.observations;
  auto to = std::make_unique<qb::ObservationSet>(corpus.space.get());
  for (qb::DatasetId d = 0; d < from.num_datasets(); ++d) {
    const qb::DatasetMeta& meta = from.dataset(d);
    std::vector<qb::DimId> dims;
    std::vector<qb::MeasureId> measures;
    for (uint32_t bit = 0; bit < 64; ++bit) {
      if (meta.dim_mask >> bit & 1) dims.push_back(bit);
      if (meta.measure_mask >> bit & 1) measures.push_back(bit);
    }
    Result<qb::DatasetId> added = to->AddDataset(meta.iri, dims, measures);
    if (!added.ok()) return added.status();
  }
  for (qb::ObsId id : ids) {
    const qb::Observation& o = from.obs(id);
    std::vector<std::pair<qb::DimId, rdfcube::hierarchy::CodeId>> dims;
    for (qb::DimId d = 0; d < o.dims.size(); ++d) {
      if (o.dims[d] != rdfcube::hierarchy::kNoCode) {
        dims.emplace_back(d, o.dims[d]);
      }
    }
    Result<qb::ObsId> added =
        to->AddObservation(o.dataset, o.iri, dims, o.values);
    if (!added.ok()) return added.status();
  }
  corpus.observations = std::move(to);
  return qb::SerializeCorpus(corpus);
}

Result<Fingerprint> OracleFingerprint(const std::string& bytes, bool baseline,
                                      std::vector<uint64_t>* keys) {
  Result<qb::Corpus> corpus = qb::DeserializeCorpus(bytes);
  if (!corpus.ok()) return corpus.status();
  core::EngineOptions options;
  if (baseline) options.method = core::Method::kBaseline;
  FingerprintSink sink(0, keys != nullptr);
  const Status st = core::ComputeRelationships(*corpus.value().observations,
                                               options, &sink);
  if (!st.ok()) return st;
  if (keys != nullptr) {
    *keys = std::move(sink.keys());
    std::sort(keys->begin(), keys->end());
  }
  return sink.fingerprint();
}

}  // namespace perfbench
