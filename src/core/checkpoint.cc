#include "core/checkpoint.h"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "core/lattice.h"
#include "core/snapshot_io.h"
#include "obs/metrics.h"
#include "qb/cube_space.h"
#include "qb/observation_set.h"
#include "util/fault.h"

namespace rdfcube {
namespace core {

namespace {

using snapshot::ByteReader;
using snapshot::PutDouble;
using snapshot::PutU32;
using snapshot::PutU64;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Mix(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= kFnvPrime;
  }
}

Status Corrupt(const char* what) {
  return Status::ParseError(std::string("corrupt checkpoint: ") + what);
}

// Forwards every emission to the caller's sink while recording it in the
// checkpoint state, so a snapshot carries everything emitted so far.
class TeeSink : public RelationshipSink {
 public:
  TeeSink(MaskingCheckpoint* state, RelationshipSink* downstream)
      : state_(state), downstream_(downstream) {}

  void OnFullContainment(ObsId a, ObsId b) override {
    state_->full.emplace_back(a, b);
    downstream_->OnFullContainment(a, b);
  }
  void OnPartialContainment(ObsId a, ObsId b, double degree,
                            uint64_t dim_mask) override {
    state_->partial.push_back({a, b, degree, dim_mask});
    downstream_->OnPartialContainment(a, b, degree, dim_mask);
  }
  void OnComplementarity(ObsId a, ObsId b) override {
    state_->complementary.emplace_back(a, b);
    downstream_->OnComplementarity(a, b);
  }

 private:
  MaskingCheckpoint* state_;
  RelationshipSink* downstream_;
};

}  // namespace

uint64_t FingerprintObservations(const qb::ObservationSet& obs) {
  const qb::CubeSpace& space = obs.space();
  const qb::ObsId n = static_cast<qb::ObsId>(obs.size());
  uint64_t h = kFnvOffset;
  Mix(&h, n);
  Mix(&h, space.num_dimensions());
  Mix(&h, space.num_measures());
  for (qb::ObsId i = 0; i < n; ++i) {
    const qb::Observation& o = obs.obs(i);
    Mix(&h, o.dataset);
    for (qb::DimId d = 0; d < space.num_dimensions(); ++d) {
      Mix(&h, obs.ValueOrRoot(i, d));
    }
    Mix(&h, o.values.size());
    for (const auto& [m, value] : o.values) {
      Mix(&h, m);
      uint64_t bits;
      std::memcpy(&bits, &value, sizeof(bits));
      Mix(&h, bits);
    }
  }
  return h;
}

bool SameObservation(const qb::ObservationSet& a, const qb::ObservationSet& b,
                     qb::ObsId i) {
  const qb::Observation& x = a.obs(i);
  const qb::Observation& y = b.obs(i);
  if (x.dataset != y.dataset || x.values.size() != y.values.size()) {
    return false;
  }
  for (qb::DimId d = 0; d < a.space().num_dimensions(); ++d) {
    if (a.ValueOrRoot(i, d) != b.ValueOrRoot(i, d)) return false;
  }
  for (std::size_t v = 0; v < x.values.size(); ++v) {
    if (x.values[v].first != y.values[v].first ||
        std::bit_cast<uint64_t>(x.values[v].second) !=
            std::bit_cast<uint64_t>(y.values[v].second)) {
      return false;
    }
  }
  return true;
}

uint32_t SelectorBits(const RelationshipSelector& selector) {
  return (selector.full_containment ? 1u : 0u) |
         (selector.partial_containment ? 2u : 0u) |
         (selector.complementarity ? 4u : 0u) |
         (selector.partial_dimension_map ? 8u : 0u);
}

std::string SerializeMaskingCheckpoint(const MaskingCheckpoint& ckpt) {
  std::string out;
  out.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  PutU64(&out, ckpt.fingerprint);
  PutU32(&out, ckpt.selector_bits);
  PutU32(&out, ckpt.next_cube);
  PutU64(&out, ckpt.full.size());
  for (const auto& [a, b] : ckpt.full) {
    PutU32(&out, a);
    PutU32(&out, b);
  }
  PutU64(&out, ckpt.partial.size());
  for (const CollectingSink::Partial& p : ckpt.partial) {
    PutU32(&out, p.a);
    PutU32(&out, p.b);
    PutDouble(&out, p.degree);
    PutU64(&out, p.dim_mask);
  }
  PutU64(&out, ckpt.complementary.size());
  for (const auto& [a, b] : ckpt.complementary) {
    PutU32(&out, a);
    PutU32(&out, b);
  }
  return out;
}

Result<MaskingCheckpoint> DeserializeMaskingCheckpoint(
    const std::string& bytes) {
  if (bytes.size() < sizeof(kCheckpointMagic) ||
      std::memcmp(bytes.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
          0) {
    return Corrupt("bad magic");
  }
  ByteReader r(bytes);
  {
    // Advance past the 8-byte magic (already validated above).
    uint64_t magic_bytes;
    if (!r.GetU64(&magic_bytes)) return Corrupt("truncated header");
  }
  MaskingCheckpoint ckpt;
  if (!r.GetU64(&ckpt.fingerprint)) return Corrupt("fingerprint");
  if (!r.GetU32(&ckpt.selector_bits)) return Corrupt("selector bits");
  if (ckpt.selector_bits > 0xfu) return Corrupt("selector bits out of range");
  uint32_t next_cube;
  if (!r.GetU32(&next_cube)) return Corrupt("next cube");
  ckpt.next_cube = next_cube;

  uint64_t count;
  if (!r.GetU64(&count)) return Corrupt("full count");
  if (count > r.Remaining() / 8) return Corrupt("full count out of range");
  ckpt.full.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t a, b;
    if (!r.GetU32(&a) || !r.GetU32(&b)) return Corrupt("full pair");
    ckpt.full.emplace_back(a, b);
  }
  if (!r.GetU64(&count)) return Corrupt("partial count");
  if (count > r.Remaining() / 24) return Corrupt("partial count out of range");
  ckpt.partial.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    CollectingSink::Partial p;
    if (!r.GetU32(&p.a) || !r.GetU32(&p.b) || !r.GetDouble(&p.degree) ||
        !r.GetU64(&p.dim_mask)) {
      return Corrupt("partial record");
    }
    // Degrees live strictly inside (0, 1); the negated form also rejects NaN.
    if (!(p.degree > 0.0 && p.degree < 1.0)) return Corrupt("partial degree");
    ckpt.partial.push_back(p);
  }
  if (!r.GetU64(&count)) return Corrupt("complementarity count");
  if (count > r.Remaining() / 8) {
    return Corrupt("complementarity count out of range");
  }
  ckpt.complementary.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t a, b;
    if (!r.GetU32(&a) || !r.GetU32(&b)) return Corrupt("complementarity pair");
    if (a >= b) return Corrupt("complementarity pair not ordered");
    ckpt.complementary.emplace_back(a, b);
  }
  if (!r.AtEnd()) return Corrupt("trailing bytes");
  return ckpt;
}

Status AtomicWriteFile(const std::string& bytes, const std::string& path) {
  // The staging name must be unique per call: with a fixed `path + ".tmp"`,
  // two concurrent savers truncate each other's staging file and one renames
  // a half-written snapshot into place (caught by race_stress_test under
  // TSan). Readers still only ever see `path` via the atomic rename.
  static std::atomic<uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("cannot open snapshot for writing: " + tmp);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) return Status::IOError("snapshot write failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IOError("snapshot rename failed: " + ec.message());
  static obs::Counter& saves = obs::DefaultCounter(
      "rdfcube_checkpoint_saves_total", "Checkpoint snapshots written");
  static obs::Counter& bytes_written =
      obs::DefaultCounter("rdfcube_checkpoint_bytes_written_total",
                          "Checkpoint bytes written to disk");
  saves.Increment();
  bytes_written.Increment(bytes.size());
  return Status::OK();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return Status::IOError("snapshot path is a directory: " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open snapshot: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in && !in.eof()) return Status::IOError("snapshot read failed: " + path);
  std::string bytes = buf.str();
  static obs::Counter& restores = obs::DefaultCounter(
      "rdfcube_checkpoint_restores_total", "Checkpoint snapshots read back");
  static obs::Counter& bytes_read = obs::DefaultCounter(
      "rdfcube_checkpoint_bytes_read_total", "Checkpoint bytes read from disk");
  restores.Increment();
  bytes_read.Increment(bytes.size());
  return bytes;
}

Status SaveMaskingCheckpoint(const MaskingCheckpoint& ckpt,
                             const std::string& path) {
  return AtomicWriteFile(SerializeMaskingCheckpoint(ckpt), path);
}

Result<MaskingCheckpoint> LoadMaskingCheckpoint(const std::string& path) {
  RDFCUBE_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return DeserializeMaskingCheckpoint(bytes);
}

Status RunCubeMaskingCheckpointed(const qb::ObservationSet& obs,
                                  const CubeMaskingOptions& options,
                                  const CheckpointOptions& ckpt,
                                  RelationshipSink* sink,
                                  CubeMaskingStats* stats,
                                  CheckpointRunStats* run_stats) {
  if (ckpt.path.empty()) {
    return Status::InvalidArgument("checkpoint path is empty");
  }
  const Lattice lattice(obs);
  const CubeId num_cubes = static_cast<CubeId>(lattice.num_cubes());

  MaskingCheckpoint state;
  state.fingerprint = FingerprintObservations(obs);
  state.selector_bits = SelectorBits(options.selector);

  std::error_code ec;
  if (std::filesystem::exists(ckpt.path, ec)) {
    RDFCUBE_ASSIGN_OR_RETURN(MaskingCheckpoint loaded,
                             LoadMaskingCheckpoint(ckpt.path));
    if (loaded.fingerprint != state.fingerprint) {
      return Status::FailedPrecondition(
          "checkpoint was taken over a different observation set");
    }
    if (loaded.selector_bits != state.selector_bits) {
      return Status::FailedPrecondition(
          "checkpoint was taken with a different relationship selector");
    }
    if (loaded.next_cube > num_cubes) {
      return Corrupt("next cube out of range");
    }
    state = std::move(loaded);
    // Replay what the interrupted run had already emitted; the per-type
    // sequences continue exactly where the snapshot left them.
    for (const auto& [a, b] : state.full) sink->OnFullContainment(a, b);
    for (const CollectingSink::Partial& p : state.partial) {
      sink->OnPartialContainment(p.a, p.b, p.degree, p.dim_mask);
    }
    for (const auto& [a, b] : state.complementary) {
      sink->OnComplementarity(a, b);
    }
    if (run_stats != nullptr) {
      run_stats->resumed = true;
      run_stats->resumed_from = state.next_cube;
    }
  }

  // The fused pass is the resumable unit (see RunCubeMaskingOuterRange):
  // pack the member table once for all outer cubes, and pre-fetch the
  // children index once when asked to.
  const MemberTable table(obs, lattice);
  std::unique_ptr<CubeChildrenIndex> children;
  if (options.prefetch_children) {
    children = std::make_unique<CubeChildrenIndex>(lattice);
  }

  TeeSink tee(&state, sink);
  const std::size_t interval =
      ckpt.interval_cubes == 0 ? 1 : ckpt.interval_cubes;
  std::size_t since_checkpoint = 0;
  for (CubeId c = state.next_cube; c < num_cubes; ++c) {
    RDFCUBE_RETURN_IF_ERROR(RunCubeMaskingOuterRange(
        obs, lattice, table, options, c, c + 1, &tee, stats, children.get()));
    state.next_cube = c + 1;
    if (++since_checkpoint >= interval) {
      since_checkpoint = 0;
      RDFCUBE_RETURN_IF_ERROR(SaveMaskingCheckpoint(state, ckpt.path));
      if (run_stats != nullptr) ++run_stats->checkpoints_written;
    }
    if (FaultTriggered(kFaultCheckpointKill)) {
      // Models the process dying here: whatever checkpoint is on disk is
      // what a new run will resume from.
      return Status::Internal("injected kill after outer cube " +
                              std::to_string(c));
    }
  }
  if (ckpt.delete_on_success) {
    std::filesystem::remove(ckpt.path, ec);  // best effort
  }
  return Status::OK();
}

}  // namespace core
}  // namespace rdfcube
