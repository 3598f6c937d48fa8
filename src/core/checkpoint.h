// Checkpoint/resume for long cubeMasking batch runs.
//
// A checkpointed run computes the fused cubeMasking pass one outer cube at a
// time (RunCubeMaskingOuterRange) and periodically serializes its progress —
// the next outer cube to compute plus every relationship emitted so far — to
// a versioned binary snapshot (qb/binary_io wire idiom). A run killed
// mid-computation resumes from the snapshot: the checkpointed emissions are
// replayed into the fresh sink and computation continues from the recorded
// cube, so the resumed run's per-type emission sequences are identical to an
// uninterrupted run's (tested property). Work done after the last checkpoint
// and before the kill is simply recomputed.
//
// The snapshot records a fingerprint of the observation set and the selector
// so a checkpoint can never resume against different data or a different
// relationship selection (FailedPrecondition).

#ifndef RDFCUBE_CORE_CHECKPOINT_H_
#define RDFCUBE_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cube_masking.h"
#include "core/relationship.h"
#include "qb/observation_set.h"
#include "base/result.h"
#include "base/status.h"

namespace rdfcube {
namespace core {

/// Injection point (see util/fault.h) consulted once per completed outer
/// cube: a triggered fault aborts the run as if the process were killed,
/// leaving the last written checkpoint behind for a resume.
inline constexpr char kFaultCheckpointKill[] = "checkpoint.kill";

/// Magic + version written at the head of every masking checkpoint.
inline constexpr char kCheckpointMagic[8] = {'R', 'D', 'F', 'C',
                                             'K', 'P', 'T', '1'};

/// \brief Where and how often to checkpoint.
struct CheckpointOptions {
  /// Snapshot file. Written atomically (temp file + rename) so a kill during
  /// a checkpoint write can never leave a torn file behind.
  std::string path;
  /// Write a snapshot after every `interval_cubes` completed outer cubes.
  std::size_t interval_cubes = 8;
  /// Remove the snapshot when the run completes (a finished run needs no
  /// resume point).
  bool delete_on_success = true;
};

/// \brief What a checkpointed run did (resume provenance + write count).
struct CheckpointRunStats {
  /// True when an existing snapshot was loaded and replayed.
  bool resumed = false;
  /// First outer cube computed live (0 for a fresh run).
  CubeId resumed_from = 0;
  std::size_t checkpoints_written = 0;
};

/// \brief Serializable progress of a cubeMasking run.
struct MaskingCheckpoint {
  /// FingerprintObservations() of the observation set the run was over.
  uint64_t fingerprint = 0;
  /// SelectorBits() of the run's relationship selector.
  uint32_t selector_bits = 0;
  /// Outer cubes [0, next_cube) are fully computed and their emissions are
  /// recorded below.
  CubeId next_cube = 0;
  std::vector<std::pair<ObsId, ObsId>> full;
  std::vector<CollectingSink::Partial> partial;
  std::vector<std::pair<ObsId, ObsId>> complementary;
};

/// FNV-1a fingerprint of an observation set's content (dataset ids,
/// root-padded dimension values, measure values); two sets with any
/// differing observation fingerprint differently (with the usual 64-bit
/// collision caveat).
uint64_t FingerprintObservations(const qb::ObservationSet& obs);

/// Whether observation `i` is the same in `a` and `b` field by field, over
/// the fields FingerprintObservations hashes: dataset id, root-padded
/// dimension values, and measure ids with bit-identical values. The two
/// sets must have the same number of dimensions. Keep both covering the
/// same fields: a snapshot refresh decides with this what LoadFrom and a
/// checkpoint resume decide with the fingerprint.
bool SameObservation(const qb::ObservationSet& a, const qb::ObservationSet& b,
                     qb::ObsId i);

/// Packs a selector into the low four bits (full, partial, compl, dim-map).
uint32_t SelectorBits(const RelationshipSelector& selector);

/// Serializes `ckpt` to a versioned byte string.
std::string SerializeMaskingCheckpoint(const MaskingCheckpoint& ckpt);

/// Parses a byte string produced by SerializeMaskingCheckpoint. Fails with
/// ParseError on bad magic, truncation, impossible counts, or trailing
/// bytes.
[[nodiscard]] Result<MaskingCheckpoint> DeserializeMaskingCheckpoint(
    const std::string& bytes);

/// Atomically writes `bytes` to `path` via a temp file + rename, so a kill
/// mid-write can never leave a torn snapshot. IOError on any filesystem
/// failure. Shared by every snapshot writer (masking + incremental).
[[nodiscard]] Status AtomicWriteFile(const std::string& bytes, const std::string& path);

/// Reads the whole file at `path`. IOError when unreadable or a directory.
[[nodiscard]] Result<std::string> ReadFileBytes(const std::string& path);

/// Atomically writes `ckpt` to `path` (temp file + rename). IOError on any
/// filesystem failure.
[[nodiscard]] Status SaveMaskingCheckpoint(const MaskingCheckpoint& ckpt,
                             const std::string& path);

/// Loads a checkpoint from `path`. IOError when unreadable, ParseError when
/// corrupt.
[[nodiscard]] Result<MaskingCheckpoint> LoadMaskingCheckpoint(const std::string& path);

/// \brief Runs cubeMasking with periodic checkpoints, resuming from
/// `ckpt.path` when a snapshot is already there.
///
/// Emits into `sink` exactly what RunCubeMasking would (checkpointed
/// emissions are replayed first on a resume, in original per-type order).
/// Fails with FailedPrecondition when an existing snapshot was taken over a
/// different observation set or selector, and with Internal("injected kill
/// ...") when the kFaultCheckpointKill point fires. `stats` accounting
/// covers only the live (non-replayed) portion of a resumed run.
[[nodiscard]] Status RunCubeMaskingCheckpointed(const qb::ObservationSet& obs,
                                  const CubeMaskingOptions& options,
                                  const CheckpointOptions& ckpt,
                                  RelationshipSink* sink,
                                  CubeMaskingStats* stats = nullptr,
                                  CheckpointRunStats* run_stats = nullptr);

}  // namespace core
}  // namespace rdfcube

#endif  // RDFCUBE_CORE_CHECKPOINT_H_
