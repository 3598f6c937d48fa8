#include "core/incremental.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "base/hot.h"
#include "core/checkpoint.h"
#include "core/pair_kernel.h"
#include "core/snapshot_io.h"
#include "obs/metrics.h"
#include "qb/cube_space.h"
#include "qb/observation_set.h"

namespace rdfcube {
namespace core {

namespace {

obs::Counter& IncrementalAdds() {
  static obs::Counter& c = obs::DefaultCounter(
      "rdfcube_incremental_adds_total", "Observations integrated");
  return c;
}

obs::Counter& IncrementalRetires() {
  static obs::Counter& c = obs::DefaultCounter(
      "rdfcube_incremental_retires_total", "Observations retired");
  return c;
}

// Relationship-set growth per integrated observation (the paper-§6 delta).
obs::Histogram& DeltaRelationships() {
  static obs::Histogram& h = obs::DefaultHistogram(
      "rdfcube_incremental_delta_relationships",
      "Stored relationships added per OnObservationAdded",
      obs::ExponentialBuckets(1.0, 2.0, 14));  // 1 .. 8192
  return h;
}

Status CorruptSnapshot(const char* what) {
  return Status::ParseError(std::string("corrupt incremental snapshot: ") +
                            what);
}

}  // namespace

IncrementalEngine::IncrementalEngine(const qb::ObservationSet* obs,
                                     const RelationshipSelector& selector)
    : obs_(obs), selector_(selector) {}

Status IncrementalEngine::OnObservationAdded(qb::ObsId id) {
  if (id >= obs_->size()) {
    return Status::InvalidArgument("observation id not in the set");
  }
  if (id < live_.size() && live_[id]) {
    return Status::AlreadyExists("observation already integrated");
  }
  const std::size_t sets_before =
      full_.size() + partial_.size() + compl_.size();
  // Register in the lattice first so its cube exists.
  const CubeId my_cube = lattice_.AddObservation(*obs_, id);
  if (live_.size() <= id) live_.resize(id + 1, false);
  live_[id] = true;

  // Candidate partners: observations in cubes comparable to mine in either
  // direction (any-dominates covers the partial case, which subsumes the
  // full/compl candidates as well).
  const CubeSignature& mine = lattice_.signature(my_cube);
  for (CubeId c = 0; c < lattice_.num_cubes(); ++c) {
    const CubeSignature& other = lattice_.signature(c);
    const bool forward = selector_.partial_containment
                             ? mine.DominatesAny(other)
                             : mine.DominatesAll(other);
    const bool backward = selector_.partial_containment
                              ? other.DominatesAny(mine)
                              : other.DominatesAll(mine);
    if (!forward && !backward) continue;
    for (qb::ObsId partner : lattice_.members(c)) {
      if (partner == id || !live_[partner]) continue;
      Compare(id, partner);
    }
  }
  IncrementalAdds().Increment();
  DeltaRelationships().Observe(static_cast<double>(
      full_.size() + partial_.size() + compl_.size() - sets_before));
  return Status::OK();
}

Status IncrementalEngine::OnObservationRetired(qb::ObsId id) {
  if (id >= live_.size() || !live_[id]) {
    return Status::NotFound("observation is not live");
  }
  live_[id] = false;
  lattice_.RemoveObservation(id);
  auto it = partners_.find(id);
  if (it != partners_.end()) {
    for (qb::ObsId partner : it->second) {
      full_.erase(Key(id, partner));
      full_.erase(Key(partner, id));
      partial_.erase(Key(id, partner));
      partial_.erase(Key(partner, id));
      compl_.erase(Key(std::min(id, partner), std::max(id, partner)));
      // Drop the back-reference.
      auto pit = partners_.find(partner);
      if (pit != partners_.end()) {
        auto& v = pit->second;
        v.erase(std::remove(v.begin(), v.end(), id), v.end());
      }
    }
    partners_.erase(it);
  }
  IncrementalRetires().Increment();
  return Status::OK();
}

double IncrementalEngine::PartialDegree(qb::ObsId a, qb::ObsId b) const {
  auto it = partial_.find(Key(a, b));
  return it == partial_.end() ? 0.0 : it->second;
}

void IncrementalEngine::Link(qb::ObsId a, qb::ObsId b) {
  partners_[a].push_back(b);
  partners_[b].push_back(a);
}

void IncrementalEngine::Compare(qb::ObsId a, qb::ObsId b) {
  const std::size_t k = obs_->space().num_dimensions();
  const auto [count_ab, count_ba] = CountContainingDimsBothWays(*obs_, a, b);
  const bool shares = obs_->SharesMeasure(a, b);
  bool linked = false;
  auto link_once = [&] {
    if (!linked) {
      Link(a, b);
      linked = true;
    }
  };
  if (shares) {
    if (selector_.full_containment) {
      if (count_ab == k) {
        full_.insert(Key(a, b));
        link_once();
      }
      if (count_ba == k) {
        full_.insert(Key(b, a));
        link_once();
      }
    }
    if (selector_.partial_containment) {
      if (count_ab > 0 && count_ab < k) {
        partial_.emplace(Key(a, b),
                         static_cast<double>(count_ab) / static_cast<double>(k));
        link_once();
      }
      if (count_ba > 0 && count_ba < k) {
        partial_.emplace(Key(b, a),
                         static_cast<double>(count_ba) / static_cast<double>(k));
        link_once();
      }
    }
  }
  if (selector_.complementarity && count_ab == k && count_ba == k) {
    compl_.insert(Key(std::min(a, b), std::max(a, b)));
    link_once();
  }
}

void IncrementalEngine::Export(RelationshipSink* sink) const {
  for (uint64_t key : full_) {
    sink->OnFullContainment(static_cast<qb::ObsId>(key >> 32),
                            static_cast<qb::ObsId>(key & 0xffffffffu));
  }
  for (const auto& [key, degree] : partial_) {
    sink->OnPartialContainment(static_cast<qb::ObsId>(key >> 32),
                               static_cast<qb::ObsId>(key & 0xffffffffu),
                               degree, 0);
  }
  for (uint64_t key : compl_) {
    sink->OnComplementarity(static_cast<qb::ObsId>(key >> 32),
                            static_cast<qb::ObsId>(key & 0xffffffffu));
  }
}

RDFCUBE_HOT std::vector<qb::ObsId> IncrementalEngine::Containers(
    qb::ObsId id) const {
  std::vector<qb::ObsId> out;
  auto it = partners_.find(id);
  if (it == partners_.end()) return out;
  out.reserve(it->second.size());
  for (qb::ObsId partner : it->second) {
    if (full_.count(Key(partner, id)) != 0) out.push_back(partner);
  }
  std::sort(out.begin(), out.end());
  return out;
}

RDFCUBE_HOT std::vector<qb::ObsId> IncrementalEngine::Contained(
    qb::ObsId id) const {
  std::vector<qb::ObsId> out;
  auto it = partners_.find(id);
  if (it == partners_.end()) return out;
  out.reserve(it->second.size());
  for (qb::ObsId partner : it->second) {
    if (full_.count(Key(id, partner)) != 0) out.push_back(partner);
  }
  std::sort(out.begin(), out.end());
  return out;
}

RDFCUBE_HOT std::vector<qb::ObsId> IncrementalEngine::Complements(
    qb::ObsId id) const {
  std::vector<qb::ObsId> out;
  auto it = partners_.find(id);
  if (it == partners_.end()) return out;
  out.reserve(it->second.size());
  for (qb::ObsId partner : it->second) {
    if (compl_.count(Key(std::min(id, partner), std::max(id, partner))) != 0) {
      out.push_back(partner);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

RDFCUBE_HOT std::vector<PartialMatch> IncrementalEngine::PartiallyContained(
    qb::ObsId id, double min_degree) const {
  std::vector<PartialMatch> out;
  auto it = partners_.find(id);
  if (it == partners_.end()) return out;
  out.reserve(it->second.size());
  for (qb::ObsId partner : it->second) {
    auto pit = partial_.find(Key(id, partner));
    if (pit != partial_.end() && pit->second >= min_degree) {
      out.push_back({partner, pit->second});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const PartialMatch& a, const PartialMatch& b) {
              return a.other < b.other;
            });
  return out;
}

std::string IncrementalEngine::SerializeState() const {
  using snapshot::PutDouble;
  using snapshot::PutU32;
  using snapshot::PutU64;
  std::string out;
  out.append(kIncrementalMagic, sizeof(kIncrementalMagic));
  PutU32(&out, SelectorBits(selector_));

  std::vector<qb::ObsId> live_ids;
  for (qb::ObsId id = 0; id < live_.size(); ++id) {
    if (live_[id]) live_ids.push_back(id);
  }
  PutU64(&out, live_ids.size());
  for (qb::ObsId id : live_ids) PutU32(&out, id);

  // Hash-set iteration order is unspecified: serialize sorted so the same
  // state always produces the same bytes (the determinism tests rely on it).
  std::vector<uint64_t> keys(full_.begin(), full_.end());
  std::sort(keys.begin(), keys.end());
  PutU64(&out, keys.size());
  for (uint64_t key : keys) PutU64(&out, key);

  std::vector<std::pair<uint64_t, double>> partials(partial_.begin(),
                                                    partial_.end());
  std::sort(partials.begin(), partials.end());
  PutU64(&out, partials.size());
  for (const auto& [key, degree] : partials) {
    PutU64(&out, key);
    PutDouble(&out, degree);
  }

  keys.assign(compl_.begin(), compl_.end());
  std::sort(keys.begin(), keys.end());
  PutU64(&out, keys.size());
  for (uint64_t key : keys) PutU64(&out, key);
  return out;
}

Status IncrementalEngine::RestoreState(const std::string& bytes) {
  if (!live_.empty() || !full_.empty() || !partial_.empty() ||
      !compl_.empty() || !partners_.empty()) {
    return Status::FailedPrecondition(
        "RestoreState requires a freshly-constructed engine");
  }
  if (bytes.size() < sizeof(kIncrementalMagic) ||
      std::memcmp(bytes.data(), kIncrementalMagic,
                  sizeof(kIncrementalMagic)) != 0) {
    return CorruptSnapshot("bad magic");
  }
  snapshot::ByteReader r(bytes);
  {
    // Advance past the 8-byte magic (already validated above).
    uint64_t magic_bytes;
    if (!r.GetU64(&magic_bytes)) return CorruptSnapshot("truncated header");
  }
  uint32_t selector_bits;
  if (!r.GetU32(&selector_bits)) return CorruptSnapshot("selector bits");
  if (selector_bits != SelectorBits(selector_)) {
    return Status::FailedPrecondition(
        "snapshot was taken with a different relationship selector");
  }

  uint64_t count;
  if (!r.GetU64(&count)) return CorruptSnapshot("live count");
  if (count > r.Remaining() / 4) {
    return CorruptSnapshot("live count out of range");
  }
  uint32_t prev_id = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t id;
    if (!r.GetU32(&id)) return CorruptSnapshot("live id");
    if (i > 0 && id <= prev_id) return CorruptSnapshot("live ids not ascending");
    prev_id = id;
    if (id >= obs_->size()) return CorruptSnapshot("live id out of range");
    lattice_.AddObservation(*obs_, id);
    if (live_.size() <= id) live_.resize(id + 1, false);
    live_[id] = true;
  }

  auto valid_pair = [&](uint64_t key, bool ordered) {
    const qb::ObsId a = static_cast<qb::ObsId>(key >> 32);
    const qb::ObsId b = static_cast<qb::ObsId>(key & 0xffffffffu);
    if (a >= live_.size() || b >= live_.size() || !live_[a] || !live_[b] ||
        a == b) {
      return false;
    }
    return !ordered || a < b;
  };

  if (!r.GetU64(&count)) return CorruptSnapshot("full count");
  if (count > r.Remaining() / 8) {
    return CorruptSnapshot("full count out of range");
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t key;
    if (!r.GetU64(&key)) return CorruptSnapshot("full key");
    if (!valid_pair(key, /*ordered=*/false)) {
      return CorruptSnapshot("full key ids");
    }
    full_.insert(key);
  }

  if (!r.GetU64(&count)) return CorruptSnapshot("partial count");
  if (count > r.Remaining() / 16) {
    return CorruptSnapshot("partial count out of range");
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t key;
    double degree;
    if (!r.GetU64(&key) || !r.GetDouble(&degree)) {
      return CorruptSnapshot("partial record");
    }
    if (!valid_pair(key, /*ordered=*/false)) {
      return CorruptSnapshot("partial key ids");
    }
    // Degrees live strictly inside (0, 1); the negated form also rejects NaN.
    if (!(degree > 0.0 && degree < 1.0)) {
      return CorruptSnapshot("partial degree");
    }
    partial_.emplace(key, degree);
  }

  if (!r.GetU64(&count)) return CorruptSnapshot("complementarity count");
  if (count > r.Remaining() / 8) {
    return CorruptSnapshot("complementarity count out of range");
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t key;
    if (!r.GetU64(&key)) return CorruptSnapshot("complementarity key");
    if (!valid_pair(key, /*ordered=*/true)) {
      return CorruptSnapshot("complementarity key ids");
    }
    compl_.insert(key);
  }
  if (!r.AtEnd()) return CorruptSnapshot("trailing bytes");

  // Rebuild the partner index (needed for O(degree) retirement) from the
  // restored sets: one link per unordered pair, as Compare would have made.
  std::set<uint64_t> pairs;
  auto normalized = [](uint64_t key) {
    const qb::ObsId a = static_cast<qb::ObsId>(key >> 32);
    const qb::ObsId b = static_cast<qb::ObsId>(key & 0xffffffffu);
    return Key(std::min(a, b), std::max(a, b));
  };
  for (uint64_t key : full_) pairs.insert(normalized(key));
  for (const auto& [key, degree] : partial_) pairs.insert(normalized(key));
  for (uint64_t key : compl_) pairs.insert(normalized(key));
  for (uint64_t key : pairs) {
    Link(static_cast<qb::ObsId>(key >> 32),
         static_cast<qb::ObsId>(key & 0xffffffffu));
  }
  return Status::OK();
}

Status IncrementalEngine::SaveCheckpoint(const std::string& path) const {
  return AtomicWriteFile(SerializeState(), path);
}

Status IncrementalEngine::RestoreFromCheckpoint(const std::string& path) {
  RDFCUBE_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return RestoreState(bytes);
}

}  // namespace core
}  // namespace rdfcube
