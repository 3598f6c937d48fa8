#include "core/snapshot.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <tuple>
#include <utility>

#include "base/hot.h"
#include "base/untrusted.h"
#include "core/checkpoint.h"
#include "core/cube_masking.h"
#include "core/pair_kernel.h"
#include "core/snapshot_io.h"
#include "hierarchy/code_list.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qb/binary_io.h"
#include "qb/cube_space.h"
#include "util/fault.h"
#include "util/safe_math.h"

namespace rdfcube {
namespace core {

namespace {

using Rows = RelationshipSnapshot::Rows;
using RowSet = RelationshipSnapshot::RowSet;
using snapshot::ByteReader;
using snapshot::PutU32;
using snapshot::PutU64;
using snapshot::PutU8;

// Records a scan emits between two deadline checks.
constexpr std::size_t kDeadlineStride = 4096;

Status Corrupt(const char* what) {
  return Status::ParseError(std::string("corrupt snapshot: ") + what);
}

// Inverse of SelectorBits (checkpoint.h).
RelationshipSelector SelectorFromBits(uint32_t bits) {
  RelationshipSelector s;
  s.full_containment = (bits & 1u) != 0;
  s.partial_containment = (bits & 2u) != 0;
  s.complementarity = (bits & 4u) != 0;
  s.partial_dimension_map = (bits & 8u) != 0;
  return s;
}

// Failure-path formatting lives off the hot path: RDFCUBE_COLD stops the
// hot-path gate's transitive fact propagation here (DESIGN.md §5g).
RDFCUBE_COLD Status PointLookupNotFound(qb::ObsId id) {
  return Status::NotFound("observation id " + std::to_string(id) +
                          " is not in the snapshot");
}

// Deadline gate shared by the point lookups: they copy one row, so expiry is
// only honored at entry rather than mid-copy.
RDFCUBE_HOT Status CheckPointQuery(qb::ObsId id, std::size_t num_obs,
                                   const Deadline& deadline) {
  if (deadline.Expired()) {
    return Status::TimedOut("deadline expired before lookup");
  }
  if (id >= num_obs) {
    return PointLookupNotFound(id);
  }
  static obs::Counter& lookups = obs::DefaultCounter(
      "rdfcube_core_snapshot_point_lookups_total",
      "Point lookups answered from a relationship snapshot");
  lookups.Increment();
  return Status::OK();
}

// A build's fault point, consulted once per observation it covers.
Status CheckBuildFault(qb::ObsId i) {
  if (FaultTriggered(kFaultSnapshotBuild)) {
    return Status::Internal("injected snapshot build failure at observation " +
                            std::to_string(i));
  }
  return Status::OK();
}

void CountObservations(std::size_t n) {
  static obs::Counter& covered = obs::DefaultCounter(
      "rdfcube_core_snapshot_observations_total",
      "Observations integrated into relationship snapshots");
  covered.Increment(n);
}

// --- Freezing ----------------------------------------------------------------

struct PairEntry {
  qb::ObsId a;
  qb::ObsId b;
};

struct PartialEntry {
  qb::ObsId a;
  qb::ObsId b;
  uint32_t count;  // containing dimensions
};

// One part of a row set (frozen rows or a tail) as the read paths take it:
// raw pointers, hoisted out of row loops, and the rows it covers (rows past
// them are empty).
struct Part {
  const uint64_t* offsets;
  const qb::ObsId* ids;
  const uint8_t* counts;  // null when the part carries none
  std::size_t rows;

  uint64_t begin(std::size_t r) const { return r < rows ? offsets[r] : 0; }
  uint64_t end(std::size_t r) const { return r < rows ? offsets[r + 1] : 0; }
  uint64_t size(std::size_t r) const { return end(r) - begin(r); }
};

Part PartOf(const Rows& rows) {
  return {rows.offsets.data(), rows.ids.data(),
          rows.counts.empty() ? nullptr : rows.counts.data(),
          rows.offsets.empty() ? 0 : rows.offsets.size() - 1};
}

// A row set's frozen rows, then its tail.
std::array<Part, 2> PartsOf(const RowSet& set) {
  return {PartOf(*set.frozen), PartOf(set.tail)};
}

// Counting sort into CSR rows over `n` observations: row r is the rows of
// `prefix` at r, part after part (a part is empty past its rows), then the
// entries for r, each output entry written once. `for_each(place)` must
// call place(row, partner, count) once per entry, identically on both of
// its calls (count, then place); each row keeps its entries in call order.
// Rows come out ascending when every row's entries do and exceed the row's
// prefix.
template <typename ForEach>
Rows Scatter(std::size_t n, std::span<const Part> prefix, bool with_counts,
             ForEach&& for_each) {
  Rows out;
  out.offsets.assign(n + 1, 0);
  for_each([&out](qb::ObsId row, qb::ObsId, uint32_t) {
    ++out.offsets[row + 1];
  });
  for (std::size_t r = 0; r < n; ++r) {
    uint64_t len = 0;
    for (const Part& part : prefix) len += part.size(r);
    out.offsets[r + 1] += out.offsets[r] + len;
  }
  out.ids.resize(out.offsets[n]);
  if (with_counts) out.counts.resize(out.offsets[n]);
  std::vector<uint64_t> next(out.offsets.begin(), out.offsets.end() - 1);
  for (const Part& part : prefix) {
    for (std::size_t r = 0; r < std::min(n, part.rows); ++r) {
      const uint64_t from = part.offsets[r];
      const uint64_t len = part.offsets[r + 1] - from;
      std::copy_n(part.ids + from, len, out.ids.data() + next[r]);
      if (with_counts) {
        std::copy_n(part.counts + from, len, out.counts.data() + next[r]);
      }
      next[r] += len;
    }
  }
  for_each([&](qb::ObsId row, qb::ObsId partner, uint32_t count) {
    const uint64_t pos = next[row]++;
    out.ids[pos] = partner;
    if (with_counts) out.counts[pos] = static_cast<uint8_t>(count);
  });
  return out;
}

// Row r of the result lists every p whose row in `in` holds r. Walking `in`
// in row order leaves each result row ascending: the freeze primitive every
// build and load goes through.
Rows Transpose(const Rows& in, std::size_t n) {
  const bool with_counts = !in.counts.empty();
  return Scatter(n, {}, with_counts, [&](auto&& place) {
    for (std::size_t r = 0; r < n; ++r) {
      for (uint64_t pos = in.offsets[r]; pos < in.offsets[r + 1]; ++pos) {
        place(in.ids[pos], static_cast<qb::ObsId>(r),
              with_counts ? in.counts[pos] : 0u);
      }
    }
  });
}

// A row set of flat frozen rows and no tail.
RowSet Frozen(Rows rows) {
  return {std::make_shared<const Rows>(std::move(rows)), Rows{}};
}

// Storage that grows in blocks: each Take hands out consecutive entries
// that never move, so growth never copies what is already written.
template <typename T>
class Blocks {
 public:
  RDFCUBE_HOT T* Take(std::size_t len) {
    if (len > room_) Grow(len);
    T* const out = next_;
    next_ += len;
    room_ -= len;
    return out;
  }

  void Release() {
    std::vector<std::unique_ptr<T[]>>().swap(blocks_);
    next_ = nullptr;
    room_ = 0;
  }

 private:
  // A block holds kBlock entries, or one longer request. It is left
  // uninitialized: every entry handed out gets written.
  RDFCUBE_COLD void Grow(std::size_t len) {
    const std::size_t size = std::max(kBlock, len);
    blocks_.push_back(std::make_unique_for_overwrite<T[]>(size));
    next_ = blocks_.back().get();
    room_ = size;
  }

  static constexpr std::size_t kBlock = std::size_t{1} << 16;
  std::vector<std::unique_ptr<T[]>> blocks_;
  T* next_ = nullptr;
  std::size_t room_ = 0;
};

// Build's row writer (DESIGN.md §6). cubeMasking reports each container's
// containments in one stretch, so the writer holds one open row: it marks
// the row's partners in a count array and a bitmap over the observations,
// and when the container changes appends the row's full and partial
// partners, ascending, to block storage. Finish gathers the rows into
// ObsId-ordered CSR. Complementarity pairs, few, are kept as they come.
class RowWriter : public RelationshipSink {
 public:
  RDFCUBE_COLD RowWriter(std::size_t n, std::size_t num_dims)
      : k_(static_cast<uint8_t>(num_dims)),
        count_(n),
        bits_((n + 63) / 64, 0),
        written_(n, 0),
        full_(n),
        partial_(n) {}

  RDFCUBE_HOT std::size_t OnContainmentChunk(
      const ContainmentChunk& chunk) override {
    Open(chunk.outer);
    // Locals: the byte stores below may alias any member, so members would
    // be reloaded after each one.
    const qb::ObsId* const ids = chunk.ids;
    const uint8_t* const counts = chunk.counts;
    const std::size_t size = chunk.size;
    const bool full = chunk.full;
    const uint8_t k = k_;
    uint8_t* const count = count_.data();
    uint64_t* const bits = bits_.data();
    std::size_t marks = 0;
    std::size_t full_marks = 0;
    for (std::size_t i = 0; i < size; ++i) {
      const uint8_t c = counts[i];
      if (c == k ? !full : c == 0) continue;
      const qb::ObsId b = ids[i];
      count[b] = c;
      bits[b >> 6] |= uint64_t{1} << (b & 63);
      ++marks;
      full_marks += c == k ? 1 : 0;
    }
    marks_ += marks;
    full_marks_ += full_marks;
    return marks;
  }

  // Full-only passes report one relationship at a time.
  RDFCUBE_HOT void OnFullContainment(qb::ObsId a, qb::ObsId b) override {
    Open(a);
    count_[b] = k_;
    bits_[b >> 6] |= uint64_t{1} << (b & 63);
    ++marks_;
    ++full_marks_;
  }

  // The counting kernel reports partial containment in chunks only.
  void OnPartialContainment(qb::ObsId, qb::ObsId, double, uint64_t) override {
    Fail("partial containment reported outside a chunk");
  }

  void OnComplementarity(qb::ObsId a, qb::ObsId b) override {
    compl_upper_.push_back({a, b});
  }

  // Writes the open row, then gathers each row set into CSR, releasing its
  // block storage once gathered. Internal when a container's
  // containments arrived in two stretches or a partner came twice.
  RDFCUBE_COLD Status Finish(Rows* full, Rows* partial) {
    Close();
    RDFCUBE_RETURN_IF_ERROR(status_);
    *full = Gather(full_, false);
    full_ids_.Release();
    *partial = Gather(partial_, true);
    partial_ids_.Release();
    partial_counts_.Release();
    return Status::OK();
  }

  // Complementarity as reported: a < b, in any order.
  const std::vector<PairEntry>& compl_upper() const { return compl_upper_; }

 private:
  // Where one written row lives in block storage.
  struct RowRef {
    const qb::ObsId* ids = nullptr;
    const uint8_t* counts = nullptr;
    std::size_t size = 0;
  };

  static constexpr qb::ObsId kNoRow = std::numeric_limits<qb::ObsId>::max();

  RDFCUBE_HOT void Open(qb::ObsId a) {
    if (a == row_) return;
    Close();
    if (written_[a] != 0) Fail("a container's row reappeared after it ended");
    written_[a] = 1;
    row_ = a;
  }

  // Appends the open row's partners in ascending order and clears its
  // bits: one walk over the whole bitmap (n / 64 words) when the row has
  // any. Each stream's marks bound its partners, so the storage taken for
  // them cannot overflow; fewer partners than marks means one was
  // reported twice.
  RDFCUBE_HOT void Close() {
    if (row_ == kNoRow) return;
    const std::size_t num_full = full_marks_;
    const std::size_t num_partial = marks_ - full_marks_;
    qb::ObsId* const full_ids = full_ids_.Take(num_full);
    qb::ObsId* const partial_ids = partial_ids_.Take(num_partial);
    uint8_t* const partial_counts = partial_counts_.Take(num_partial);
    const uint8_t k = k_;
    const uint8_t* const count = count_.data();
    uint64_t* const words = bits_.data();
    const std::size_t num_words = marks_ == 0 ? 0 : bits_.size();
    std::size_t f = 0;
    std::size_t p = 0;
    for (std::size_t w = 0; w < num_words; ++w) {
      uint64_t bits = words[w];
      words[w] = 0;
      while (bits != 0) {
        const qb::ObsId b =
            static_cast<qb::ObsId>(w * 64 + std::countr_zero(bits));
        bits &= bits - 1;
        const uint8_t c = count[b];
        if (c == k) {
          full_ids[f++] = b;
        } else {
          partial_ids[p] = b;
          partial_counts[p++] = c;
        }
      }
    }
    if (f != num_full || p != num_partial) Fail("a partner reported twice");
    full_[row_] = {full_ids, nullptr, f};
    partial_[row_] = {partial_ids, partial_counts, p};
    row_ = kNoRow;
    marks_ = 0;
    full_marks_ = 0;
  }

  RDFCUBE_COLD void Fail(const char* what) {
    if (status_.ok()) {
      status_ = Status::Internal(std::string("snapshot build: ") + what);
    }
  }

  // Row r of the result is the row written for observation r (empty when
  // none was).
  RDFCUBE_COLD static Rows Gather(const std::vector<RowRef>& rows,
                                  bool with_counts) {
    uint64_t total = 0;
    for (const RowRef& row : rows) total += row.size;
    Rows out;
    out.offsets.reserve(rows.size() + 1);
    out.offsets.push_back(0);
    out.ids.reserve(total);
    if (with_counts) out.counts.reserve(total);
    for (const RowRef& row : rows) {
      out.ids.insert(out.ids.end(), row.ids, row.ids + row.size);
      if (with_counts) {
        out.counts.insert(out.counts.end(), row.counts,
                          row.counts + row.size);
      }
      out.offsets.push_back(out.ids.size());
    }
    return out;
  }

  const uint8_t k_;
  // The open row: its container, each marked partner's count (k_ for full
  // containment) and bit, and how many marks it has, full ones apart.
  qb::ObsId row_ = kNoRow;
  std::vector<uint8_t> count_;
  std::vector<uint64_t> bits_;
  std::size_t marks_ = 0;
  std::size_t full_marks_ = 0;
  // Written rows, by container.
  std::vector<uint8_t> written_;
  std::vector<RowRef> full_;
  std::vector<RowRef> partial_;
  Blocks<qb::ObsId> full_ids_;
  Blocks<qb::ObsId> partial_ids_;
  Blocks<uint8_t> partial_counts_;
  std::vector<PairEntry> compl_upper_;
  Status status_;
};

// The rows Build derives instead of storing: containers are the transpose
// of full containment, and complement rows hold both directions (the
// transposed upper pairs, then the upper pairs, which exceed the row).
// LoadFrom validates every stored row before calling this, so the sizes
// here are bounded by arrays already held in memory.
RDFCUBE_TAINT_BARRIER void DeriveRows(std::size_t n, const Rows& full,
                                      const Rows& compl_upper,
                                      Rows* containers, Rows* complements) {
  *containers = Transpose(full, n);
  const Rows lower = Transpose(compl_upper, n);
  const Part prefix[] = {PartOf(lower)};
  *complements = Scatter(n, prefix, false, [&](auto&& place) {
    for (std::size_t r = 0; r < n; ++r) {
      for (uint64_t pos = compl_upper.offsets[r];
           pos < compl_upper.offsets[r + 1]; ++pos) {
        place(static_cast<qb::ObsId>(r), compl_upper.ids[pos], 0u);
      }
    }
  });
}

// The relationships of a refresh's delta pairs, in evaluation order:
// appended y ascending outside, x < y ascending inside.
struct Delta {
  std::vector<PairEntry> full;
  std::vector<PartialEntry> partial;
  std::vector<PairEntry> compl_upper;  // a < b
};

// Evaluates every pair {x, y}, x < y, with y in [base_n, n) through the
// pair kernel's row forms over the corpus packed once (root-padded labels
// and measure masks): emits exactly what the fused pass emits for it.
Status EvaluateDelta(const qb::ObservationSet& observations,
                     const RelationshipSelector& sel, qb::ObsId base_n,
                     const Deadline& deadline, Delta* delta) {
  const std::size_t n = observations.size();
  const std::size_t k = observations.space().num_dimensions();
  std::vector<hierarchy::EulerLabels> euler;
  euler.reserve(k);
  for (qb::DimId d = 0; d < k; ++d) {
    euler.push_back(observations.space().code_list(d).euler_labels());
  }
  // One observation at a time, so each row of labels is written in order.
  std::vector<DimLabel> labels(n * k);
  std::vector<uint64_t> masks(n);
  for (qb::ObsId i = 0; i < n; ++i) {
    DimLabel* row = labels.data() + std::size_t{i} * k;
    for (qb::DimId d = 0; d < k; ++d) {
      const hierarchy::CodeId code = observations.ValueOrRoot(i, d);
      row[d] = {euler[d].pre[code], euler[d].post[code]};
    }
    masks[i] = observations.obs(i).measure_mask;
  }

  const DimPlan plan = AllDimsTested(k);
  const bool contain = sel.full_containment || sel.partial_containment;
  for (qb::ObsId y = base_n; y < n; ++y) {
    if (deadline.Expired()) {
      return Status::TimedOut(
          "snapshot refresh deadline expired at observation " +
          std::to_string(y));
    }
    RDFCUBE_RETURN_IF_ERROR(CheckBuildFault(y));
    const DimLabel* ly = labels.data() + std::size_t{y} * k;
    for (qb::ObsId x = 0; x < y; ++x) {
      const DimLabel* lx = labels.data() + std::size_t{x} * k;
      if (contain && (masks[x] & masks[y]) != 0) {
        const ContainingDims counts = CountTestedDimsBothWays(plan, lx, ly);
        for (const auto& [a, b, count] :
             {std::tuple{x, y, counts.ab}, std::tuple{y, x, counts.ba}}) {
          if (count == k) {
            if (sel.full_containment) delta->full.push_back({a, b});
          } else if (count > 0 && sel.partial_containment) {
            delta->partial.push_back({a, b, static_cast<uint32_t>(count)});
          }
        }
      }
      if (sel.complementarity && TestedValuesEqual(plan, lx, ly)) {
        delta->compl_upper.push_back({x, y});
      }
    }
  }
  return Status::OK();
}

// How a stored row set is shaped: plain pairs, pairs above their row
// (complementarity, a < b), or pairs with a containment count per entry.
enum class StoredRows { kPairs, kUpperPairs, kCounted };

// Stored form of one row set over `n` observations, its rows flattened
// (kUpperPairs keeps the partners above their row): entry count, n + 1
// offsets, the ids, then (kCounted) one count byte per entry.
void PutRows(std::string* out, const RowSet& set, std::size_t n,
             StoredRows shape) {
  const std::array<Part, 2> parts = PartsOf(set);
  // Where row r's stored stretch of `part` starts.
  auto first = [&](const Part& part, std::size_t r) {
    const uint64_t begin = part.begin(r);
    if (shape != StoredRows::kUpperPairs) return begin;
    const qb::ObsId* ids = part.ids;
    return static_cast<uint64_t>(
        std::upper_bound(ids + begin, ids + part.end(r),
                         static_cast<qb::ObsId>(r)) -
        ids);
  };
  std::vector<uint64_t> offsets;
  offsets.reserve(n + 1);
  offsets.push_back(0);
  for (std::size_t r = 0; r < n; ++r) {
    uint64_t len = 0;
    for (const Part& part : parts) len += part.end(r) - first(part, r);
    offsets.push_back(offsets.back() + len);
  }
  PutU64(out, offsets.back());
  for (uint64_t offset : offsets) PutU64(out, offset);
  for (std::size_t r = 0; r < n; ++r) {
    for (const Part& part : parts) {
      for (uint64_t pos = first(part, r); pos < part.end(r); ++pos) {
        PutU32(out, part.ids[pos]);
      }
    }
  }
  if (shape != StoredRows::kCounted) return;
  for (std::size_t r = 0; r < n; ++r) {
    for (const Part& part : parts) {
      for (uint64_t pos = part.begin(r); pos < part.end(r); ++pos) {
        PutU8(out, part.counts[pos]);
      }
    }
  }
}

// Reads one stored row set over `n` observations, clamping every length
// against the bytes present before sizing anything, then validates it:
// offsets start at 0, never decrease and end at the entry count; each row
// is strictly ascending with ids < n and no self pair (kUpperPairs: every
// id exceeds its row); kCounted entries have a count in [1, dims - 1],
// i.e. a degree in (0, 1).
Status ReadRows(ByteReader* r, std::size_t n, StoredRows shape,
                std::size_t dims, Rows* rows) {
  const bool counted = shape == StoredRows::kCounted;
  const bool upper = shape == StoredRows::kUpperPairs;
  uint64_t m;
  if (!r->GetU64(&m)) return Corrupt("row entry count");
  const Result<uint64_t> num_offsets = util::CheckedAdd<uint64_t>(n, 1);
  if (!num_offsets.ok()) return Corrupt("row offsets overflow");
  const Result<uint64_t> offset_bytes =
      util::CheckedMul<uint64_t>(num_offsets.value(), 8);
  const Result<uint64_t> entry_bytes =
      util::CheckedMul<uint64_t>(m, counted ? 5 : 4);
  if (!offset_bytes.ok() || !entry_bytes.ok()) {
    return Corrupt("row lengths overflow");
  }
  const Result<uint64_t> total =
      util::CheckedAdd(offset_bytes.value(), entry_bytes.value());
  if (!total.ok() || total.value() > r->Remaining()) {
    return Corrupt("row lengths exceed the file");
  }
  rows->offsets.resize(num_offsets.value());
  for (uint64_t& offset : rows->offsets) {
    if (!r->GetU64(&offset)) return Corrupt("row offsets");
  }
  if (rows->offsets.front() != 0 || rows->offsets.back() != m) {
    return Corrupt("row offsets do not span the entries");
  }
  // Monotone offsets ending at m keep every row inside the ids read next.
  for (std::size_t row = 0; row < n; ++row) {
    if (rows->offsets[row + 1] < rows->offsets[row]) {
      return Corrupt("row offsets decrease");
    }
  }
  rows->ids.resize(m);
  for (qb::ObsId& id : rows->ids) {
    if (!r->GetU32(&id)) return Corrupt("row ids");
  }
  for (std::size_t row = 0; row < n; ++row) {
    const uint64_t begin = rows->offsets[row];
    const uint64_t end = rows->offsets[row + 1];
    for (uint64_t pos = begin; pos < end; ++pos) {
      const qb::ObsId id = rows->ids[pos];
      if (id >= n || id == row || (upper && id < row)) {
        return Corrupt("row id out of range");
      }
      if (pos > begin && id <= rows->ids[pos - 1]) {
        return Corrupt("row ids not strictly ascending");
      }
    }
  }
  if (counted) {
    rows->counts.resize(m);
    for (uint8_t& count : rows->counts) {
      if (!r->GetU8(&count)) return Corrupt("partial degrees");
      if (count == 0 || count >= dims) {
        return Corrupt("partial degree outside (0, 1)");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<RelationshipSnapshot::Ptr> RelationshipSnapshot::Build(
    qb::Corpus corpus, const BuildOptions& options) {
  obs::TraceSpan span("core/snapshot_build");
  if (corpus.space == nullptr || corpus.observations == nullptr) {
    return Status::InvalidArgument("snapshot build needs a complete corpus");
  }
  // The kernel checks its deadline every few thousand pairs, which a tiny
  // corpus never reaches.
  if (options.deadline.Expired()) {
    return Status::TimedOut("snapshot build deadline expired on entry");
  }
  std::shared_ptr<RelationshipSnapshot> snap(new RelationshipSnapshot(
      std::move(corpus), options.selector, options.version));
  const qb::ObservationSet& observations = snap->observations();
  const std::size_t n = observations.size();
  for (qb::ObsId i = 0; i < n; ++i) {
    RDFCUBE_RETURN_IF_ERROR(CheckBuildFault(i));
  }

  RowWriter writer(n, observations.space().num_dimensions());
  CubeMaskingOptions masking;
  masking.selector = options.selector;
  masking.selector.partial_dimension_map = false;  // rows keep no masks
  masking.deadline = options.deadline;
  // The writer needs each container's containments in one stretch, which
  // only the fused pass gives when full and partial are both selected: the
  // per-type passes would report every container once per type.
  masking.prefetch_children = true;
  RDFCUBE_RETURN_IF_ERROR(RunCubeMasking(observations, masking, &writer));
  {
    obs::TraceSpan gather("core/snapshot_gather");
    Rows full, partial, containers, complements;
    RDFCUBE_RETURN_IF_ERROR(writer.Finish(&full, &partial));
    // Complementarity pairs come in any order: group them by partner, then
    // transpose, so every row comes out ascending.
    const Rows by_partner = Scatter(n, {}, false, [&](auto&& place) {
      for (const PairEntry& e : writer.compl_upper()) place(e.b, e.a, 0u);
    });
    DeriveRows(n, full, Transpose(by_partner, n), &containers, &complements);
    snap->full_ = Frozen(std::move(full));
    snap->partial_ = Frozen(std::move(partial));
    snap->containers_ = Frozen(std::move(containers));
    snap->compl_ = Frozen(std::move(complements));
  }
  CountObservations(n);
  static obs::Counter& builds = obs::DefaultCounter(
      "rdfcube_core_snapshot_builds_total",
      "Relationship snapshots built from scratch");
  builds.Increment();
  return Ptr(snap);
}

namespace {

// Whether `observations` extends the base snapshot's corpus (see
// BuildIncremental): compared directly, stopping at the first difference.
bool ExtendsBase(const RelationshipSnapshot& base,
                 const qb::ObservationSet& observations) {
  const qb::ObservationSet& old = base.observations();
  const qb::CubeSpace& old_space = old.space();
  const qb::CubeSpace& space = observations.space();
  const std::size_t k = space.num_dimensions();
  if (observations.size() < old.size() || k != old_space.num_dimensions() ||
      space.num_measures() != old_space.num_measures()) {
    return false;
  }
  // A code keeping its parent keeps its ancestors (parents precede their
  // children), so relationships among the base observations stand.
  for (qb::DimId d = 0; d < k; ++d) {
    const hierarchy::CodeList& was = old_space.code_list(d);
    const hierarchy::CodeList& now = space.code_list(d);
    if (now.size() < was.size()) return false;
    for (hierarchy::CodeId c = 0; c < was.size(); ++c) {
      if (now.parent(c) != was.parent(c)) return false;
    }
  }
  for (qb::ObsId i = 0; i < old.size(); ++i) {
    if (!SameObservation(old, observations, i)) return false;
  }
  return true;
}

// Row set `base` extended over `n` observations by the entries
// `for_each(place)` places (see Scatter), in one pass: the base's frozen
// rows are kept and the tail is written as the base's tail plus the new
// entries, unless that tail would hold more entries than the frozen rows
// under it; then everything is written into one flat frozen set instead.
// A row is two stretches either way; the fixed rule bounds the tail a
// refresh copies by the frozen rows, where without it every refresh in a
// chain copies everything appended since the last flat write (a chain of
// 120 reloads took twice the CPU, EXPERIMENTS.md "Fold or never fold").
template <typename ForEach>
RowSet Extend(const RowSet& base, std::size_t n, std::size_t added,
              bool with_counts, ForEach&& for_each) {
  const std::size_t tail = base.tail.ids.size() + added;
  if (tail > base.frozen->ids.size()) {
    static obs::Counter& folds = obs::DefaultCounter(
        "rdfcube_core_snapshot_folds_total",
        "Row sets a snapshot refresh wrote flat instead of as a tail");
    folds.Increment();
    const std::array<Part, 2> parts = PartsOf(base);
    return Frozen(Scatter(n, parts, with_counts, for_each));
  }
  if (tail == 0) return {base.frozen, Rows{}};
  const Part prefix[] = {PartOf(base.tail)};
  return {base.frozen, Scatter(n, prefix, with_counts, for_each)};
}

}  // namespace

Result<RelationshipSnapshot::Ptr> RelationshipSnapshot::BuildIncremental(
    const RelationshipSnapshot& base, qb::Corpus corpus,
    const BuildOptions& options) {
  if (corpus.space == nullptr || corpus.observations == nullptr) {
    return Status::InvalidArgument("snapshot refresh needs a complete corpus");
  }
  if (!ExtendsBase(base, *corpus.observations)) {
    return Status::FailedPrecondition(
        "refreshed corpus does not extend the base snapshot's corpus");
  }
  return Refresh(base, std::move(corpus), options);
}

Result<RelationshipSnapshot::Ptr> RelationshipSnapshot::BuildOrRefresh(
    const RelationshipSnapshot* base, qb::Corpus corpus,
    const BuildOptions& options) {
  if (base != nullptr && corpus.space != nullptr &&
      corpus.observations != nullptr &&
      ExtendsBase(*base, *corpus.observations)) {
    return Refresh(*base, std::move(corpus), options);
  }
  return Build(std::move(corpus), options);
}

Result<RelationshipSnapshot::Ptr> RelationshipSnapshot::Refresh(
    const RelationshipSnapshot& base, qb::Corpus corpus,
    const BuildOptions& options) {
  obs::TraceSpan span("core/snapshot_refresh");
  const qb::ObsId base_n = static_cast<qb::ObsId>(base.num_observations());
  std::shared_ptr<RelationshipSnapshot> snap(new RelationshipSnapshot(
      std::move(corpus), base.selector_, options.version));
  const qb::ObservationSet& observations = snap->observations();
  const std::size_t n = observations.size();

  // The delta: every pair with at least one appended observation. Appended
  // ids sort after every base id, so a row's delta partners exceed all its
  // base partners, and the evaluation order already leaves every row
  // ascending: each tail row is written once, its base tail first, then its
  // delta in that order.
  Delta delta;
  RDFCUBE_RETURN_IF_ERROR(EvaluateDelta(observations, snap->selector_,
                                        base_n, options.deadline, &delta));
  snap->full_ =
      Extend(base.full_, n, delta.full.size(), false, [&](auto&& place) {
        for (const PairEntry& e : delta.full) place(e.a, e.b, 0u);
      });
  snap->containers_ =
      Extend(base.containers_, n, delta.full.size(), false, [&](auto&& place) {
        for (const PairEntry& e : delta.full) place(e.b, e.a, 0u);
      });
  snap->partial_ =
      Extend(base.partial_, n, delta.partial.size(), true, [&](auto&& place) {
        for (const PartialEntry& e : delta.partial) place(e.a, e.b, e.count);
      });
  const std::size_t compl_added = 2 * delta.compl_upper.size();
  snap->compl_ =
      Extend(base.compl_, n, compl_added, false, [&](auto&& place) {
        for (const PairEntry& e : delta.compl_upper) {
          place(e.a, e.b, 0u);
          place(e.b, e.a, 0u);
        }
      });
  CountObservations(n - base_n);
  static obs::Counter& refreshes = obs::DefaultCounter(
      "rdfcube_core_snapshot_refreshes_total",
      "Relationship snapshots built incrementally from a base snapshot");
  refreshes.Increment();
  return Ptr(snap);
}

// Walks relationships after `after` in (kind, a, b) order, handing each to
// `emit` until `limit` have gone; sets *more when another one follows.
template <typename Emit>
RDFCUBE_HOT Status RelationshipSnapshot::Walk(const ScanCursor& after,
                                              std::size_t limit,
                                              const Deadline& deadline,
                                              Emit&& emit, bool* more) const {
  *more = false;
  if (deadline.Expired()) {
    return Status::TimedOut("deadline expired before scan");
  }
  const std::size_t n = num_observations();
  // Partial degrees by count, computed exactly as the kernel computes them.
  const double dims =
      static_cast<double>(observations().space().num_dimensions());
  std::array<double, 256> degree_of{};
  for (std::size_t c = 1; c < degree_of.size(); ++c) {
    degree_of[c] = static_cast<double>(c) / dims;
  }
  struct Pass {
    uint8_t kind;
    const RowSet* rows;
  };
  const Pass passes[] = {{'C', &compl_}, {'F', &full_}, {'P', &partial_}};
  std::size_t emitted = 0;
  std::size_t since_check = 0;
  bool expired = false;
  for (const Pass& pass : passes) {
    if (pass.kind < after.kind) continue;
    const uint8_t kind = pass.kind;
    const bool resume = kind == after.kind;
    // Each part's pointers live in locals: `emit` may store anywhere, which
    // would otherwise reload them after every record.
    const Part frozen = PartOf(*pass.rows->frozen);
    const Part tail = PartOf(pass.rows->tail);
    // Emits row `row`'s records in [first, last), a non-empty stretch of
    // the part whose ids and counts start at `ids` and `counts`; false once
    // the walk must stop (at the limit, or when the deadline expired).
    auto stretch = [&](const qb::ObsId* ids, const uint8_t* counts,
                       const qb::ObsId* first, const qb::ObsId* last,
                       std::size_t row) {
      // Complement rows hold both directions; scans report a < b.
      if (kind == 'C') {
        first = std::upper_bound(first, last, static_cast<qb::ObsId>(row));
      }
      if (resume && row == after.a) {
        first = std::upper_bound(first, last, after.b);
      }
      for (const qb::ObsId* it = first; it != last; ++it) {
        if (emitted == limit) {
          *more = true;
          return false;
        }
        if (++since_check == kDeadlineStride) {
          since_check = 0;
          if (deadline.Expired()) {
            expired = true;
            return false;
          }
        }
        const double degree = kind == 'P' ? degree_of[counts[it - ids]] : 0.0;
        emit(kind, static_cast<qb::ObsId>(row), *it, degree);
        ++emitted;
      }
      return true;
    };
    // Row `row` of `part`, skipped before any search when empty.
    auto part_row = [&](const Part& part, std::size_t row) {
      if (row >= part.rows) return true;
      const qb::ObsId* first = part.ids + part.offsets[row];
      const qb::ObsId* last = part.ids + part.offsets[row + 1];
      return first == last || stretch(part.ids, part.counts, first, last, row);
    };
    // Row `row` is two stretches: its frozen row, then its tail row.
    for (std::size_t row = resume ? after.a : 0; row < n; ++row) {
      if (!part_row(frozen, row) || !part_row(tail, row)) break;
    }
    if (*more || expired) break;
  }
  if (expired) return Status::TimedOut("deadline expired mid-scan");
  return Status::OK();
}

RDFCUBE_HOT Status RelationshipSnapshot::ScanPage(
    const ScanCursor& after, std::size_t limit, const Deadline& deadline,
    std::vector<ScanRecord>* out, bool* more) const {
  const std::size_t total = num_full() + num_partial() + num_complementary();
  out->reserve(out->size() + std::min(limit, total));
  return Walk(
      after, limit, deadline,
      [out](uint8_t kind, qb::ObsId a, qb::ObsId b, double degree) {
        out->push_back({kind, a, b, degree});
      },
      more);
}

RDFCUBE_HOT Status RelationshipSnapshot::ScanAll(
    RelationshipSink* sink, const Deadline& deadline) const {
  bool more = false;
  return Walk(
      ScanCursor{}, std::numeric_limits<std::size_t>::max(), deadline,
      [sink](uint8_t kind, qb::ObsId a, qb::ObsId b, double degree) {
        if (kind == 'C') {
          sink->OnComplementarity(a, b);
        } else if (kind == 'F') {
          sink->OnFullContainment(a, b);
        } else {
          sink->OnPartialContainment(a, b, degree, 0);
        }
      },
      &more);
}

namespace {

// Copies row `id` of `rows`: its frozen stretch, then its tail stretch.
RDFCUBE_HOT std::vector<qb::ObsId> CopyRow(const RowSet& rows, qb::ObsId id) {
  const std::array<Part, 2> parts = PartsOf(rows);
  std::vector<qb::ObsId> out;
  out.reserve(parts[0].size(id) + parts[1].size(id));
  for (const Part& part : parts) {
    out.insert(out.end(), part.ids + part.begin(id), part.ids + part.end(id));
  }
  return out;
}

}  // namespace

RDFCUBE_HOT Result<std::vector<qb::ObsId>> RelationshipSnapshot::Containers(
    qb::ObsId id, const Deadline& deadline) const {
  RDFCUBE_RETURN_IF_ERROR(CheckPointQuery(id, num_observations(), deadline));
  return CopyRow(containers_, id);
}

RDFCUBE_HOT Result<std::vector<qb::ObsId>> RelationshipSnapshot::Contained(
    qb::ObsId id, const Deadline& deadline) const {
  RDFCUBE_RETURN_IF_ERROR(CheckPointQuery(id, num_observations(), deadline));
  return CopyRow(full_, id);
}

RDFCUBE_HOT Result<std::vector<qb::ObsId>> RelationshipSnapshot::Complements(
    qb::ObsId id, const Deadline& deadline) const {
  RDFCUBE_RETURN_IF_ERROR(CheckPointQuery(id, num_observations(), deadline));
  return CopyRow(compl_, id);
}

RDFCUBE_HOT Result<std::vector<PartialMatch>>
RelationshipSnapshot::PartiallyContained(qb::ObsId id, double min_degree,
                                         const Deadline& deadline) const {
  RDFCUBE_RETURN_IF_ERROR(CheckPointQuery(id, num_observations(), deadline));
  const double dims =
      static_cast<double>(observations().space().num_dimensions());
  const std::array<Part, 2> parts = PartsOf(partial_);
  std::vector<PartialMatch> out;
  out.reserve(parts[0].size(id) + parts[1].size(id));
  for (const Part& part : parts) {
    for (uint64_t pos = part.begin(id); pos < part.end(id); ++pos) {
      const double degree = static_cast<double>(part.counts[pos]) / dims;
      if (degree >= min_degree) out.push_back({part.ids[pos], degree});
    }
  }
  return out;
}

namespace {

// `set`'s rows over `n` observations as one flat CSR.
Rows Flatten(const RowSet& set, std::size_t n, bool with_counts) {
  const std::array<Part, 2> parts = PartsOf(set);
  return Scatter(n, parts, with_counts, [](auto&&) {});
}

}  // namespace

bool RelationshipSnapshot::SameRelationships(
    const RelationshipSnapshot& other) const {
  const std::size_t n = num_observations();
  if (other.num_observations() != n) return false;
  auto same = [&](const RowSet& x, const RowSet& y, bool with_counts) {
    return Flatten(x, n, with_counts) == Flatten(y, n, with_counts);
  };
  return same(full_, other.full_, false) &&
         same(containers_, other.containers_, false) &&
         same(partial_, other.partial_, true) &&
         same(compl_, other.compl_, false);
}

uint64_t RelationshipSnapshot::fingerprint() const {
  return FingerprintObservations(observations());
}

Status RelationshipSnapshot::SaveTo(const std::string& path) const {
  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU64(&out, version_);
  PutU64(&out, fingerprint());
  PutU32(&out, SelectorBits(selector_));
  RDFCUBE_ASSIGN_OR_RETURN(std::string corpus_bytes,
                           qb::SerializeCorpus(corpus_));
  PutU64(&out, corpus_bytes.size());
  out += corpus_bytes;
  const std::size_t n = num_observations();
  PutRows(&out, full_, n, StoredRows::kPairs);
  PutRows(&out, partial_, n, StoredRows::kCounted);
  PutRows(&out, compl_, n, StoredRows::kUpperPairs);
  if (FaultTriggered(kFaultSnapshotSaveStage)) {
    // Model a crash mid-stage: a torn staging file appears beside the target
    // but the published path is never replaced (readers keep the old file).
    const std::string torn = path + ".tmp.injected";
    std::ofstream f(torn, std::ios::binary | std::ios::trunc);
    f.write(out.data(), static_cast<std::streamsize>(out.size() / 2));
    return Status::IOError("injected staging failure: " + torn);
  }
  return AtomicWriteFile(out, path);
}

RDFCUBE_TAINT_SOURCE Result<RelationshipSnapshot::Ptr>
RelationshipSnapshot::LoadFrom(const std::string& path) {
  std::string bytes;  // pre-initialized: gcc-12 maybe-uninitialized
  RDFCUBE_ASSIGN_OR_RETURN(bytes, ReadFileBytes(path));
  if (bytes.size() < sizeof(kSnapshotMagic) ||
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Corrupt("bad magic");
  }
  ByteReader r(bytes);
  {
    // Advance past the 8-byte magic (already validated above).
    uint64_t magic_bytes;
    if (!r.GetU64(&magic_bytes)) return Corrupt("truncated header");
  }
  uint64_t version, fingerprint;
  uint32_t selector_bits;
  if (!r.GetU64(&version)) return Corrupt("version");
  if (!r.GetU64(&fingerprint)) return Corrupt("fingerprint");
  if (!r.GetU32(&selector_bits)) return Corrupt("selector bits");
  if (selector_bits > 0xfu) return Corrupt("selector bits out of range");
  uint64_t len;
  std::string corpus_bytes;
  // Clamp the section length against the bytes actually present before
  // handing it to GetBytes: a forged 64-bit length must not be narrowed to
  // size_t (32-bit hosts) or charged against the allocator.
  if (!r.GetU64(&len) || len > r.Remaining() ||
      !r.GetBytes(static_cast<std::size_t>(len), &corpus_bytes)) {
    return Corrupt("corpus payload");
  }
  RDFCUBE_ASSIGN_OR_RETURN(qb::Corpus corpus,
                           qb::DeserializeCorpus(corpus_bytes));
  std::shared_ptr<RelationshipSnapshot> snap(new RelationshipSnapshot(
      std::move(corpus), SelectorFromBits(selector_bits), version));
  const qb::ObservationSet& observations = snap->observations();
  if (FingerprintObservations(observations) != fingerprint) {
    return Corrupt("corpus fingerprint mismatch");
  }
  const std::size_t n = observations.size();
  const std::size_t dims = observations.space().num_dimensions();
  Rows full, partial, compl_upper, containers, complements;
  RDFCUBE_RETURN_IF_ERROR(ReadRows(&r, n, StoredRows::kPairs, dims, &full));
  RDFCUBE_RETURN_IF_ERROR(
      ReadRows(&r, n, StoredRows::kCounted, dims, &partial));
  RDFCUBE_RETURN_IF_ERROR(
      ReadRows(&r, n, StoredRows::kUpperPairs, dims, &compl_upper));
  if (!r.AtEnd()) return Corrupt("trailing bytes");
  const RelationshipSelector& sel = snap->selector_;
  if ((!sel.full_containment && !full.ids.empty()) ||
      (!sel.partial_containment && !partial.ids.empty()) ||
      (!sel.complementarity && !compl_upper.ids.empty())) {
    return Corrupt("rows for a relationship type the selector excludes");
  }
  DeriveRows(n, full, compl_upper, &containers, &complements);
  snap->full_ = Frozen(std::move(full));
  snap->partial_ = Frozen(std::move(partial));
  snap->containers_ = Frozen(std::move(containers));
  snap->compl_ = Frozen(std::move(complements));
  static obs::Counter& loads = obs::DefaultCounter(
      "rdfcube_core_snapshot_loads_total",
      "Relationship snapshots loaded from disk");
  loads.Increment();
  return Ptr(snap);
}

}  // namespace core
}  // namespace rdfcube
