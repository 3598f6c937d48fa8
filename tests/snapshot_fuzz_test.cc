// Byte-mutation fuzz for RelationshipSnapshot::LoadFrom (DESIGN.md §5h):
// every single-byte corruption of a valid snapshot file must come back as a
// clean Status (ParseError/IOError) or, rarely, as a snapshot that still
// validates — never a crash, hang, or sanitizer report. The suite is wired
// into scripts/check_sanitizers.sh so the sweep also runs under ASan/UBSan,
// where an out-of-bounds read caused by a forged length field would abort.
// Targeted forgeries then aim at each check of the format-2 row validation.

#include "core/snapshot.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "qb/binary_io.h"
#include "tests/test_corpus.h"

namespace rdfcube {
namespace core {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(out)) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(static_cast<bool>(out)) << path;
}

class SnapshotFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RelationshipSnapshot::BuildOptions options;
    auto snap =
        RelationshipSnapshot::Build(testutil::MakeRunningExample(), options);
    ASSERT_TRUE(snap.ok()) << snap.status().message();
    path_ = TempPath("fuzz_snapshot.bin");
    ASSERT_TRUE((*snap)->SaveTo(path_).ok());
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), 32u);
  }

  // Loads `mutated` through the real file path and asserts the result is
  // either a clean error or a valid snapshot — the call must simply return.
  void ExpectCleanOutcome(const std::string& mutated,
                          const std::string& label) {
    const std::string path = TempPath("fuzz_snapshot_mut.bin");
    WriteAll(path, mutated);
    auto loaded = RelationshipSnapshot::LoadFrom(path);
    if (loaded.ok()) {
      // A mutation that survives every structural check must still hand back
      // a usable snapshot (the fingerprint makes this near-impossible, but
      // "ok" is an acceptable outcome for e.g. identity mutations).
      EXPECT_GT((*loaded)->observations().size(), 0u) << label;
    } else {
      EXPECT_FALSE(loaded.status().message().empty()) << label;
    }
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotFuzzTest, EveryByteFlippedLoadsCleanly) {
  for (std::size_t i = 0; i < bytes_.size(); ++i) {
    std::string mutated = bytes_;
    mutated[i] = static_cast<char>(static_cast<unsigned char>(mutated[i]) ^
                                   0xffu);
    ExpectCleanOutcome(mutated, "flip at byte " + std::to_string(i));
  }
}

TEST_F(SnapshotFuzzTest, EveryByteIncrementedLoadsCleanly) {
  for (std::size_t i = 0; i < bytes_.size(); ++i) {
    std::string mutated = bytes_;
    mutated[i] =
        static_cast<char>(static_cast<unsigned char>(mutated[i]) + 1u);
    ExpectCleanOutcome(mutated, "increment at byte " + std::to_string(i));
  }
}

TEST_F(SnapshotFuzzTest, EveryByteZeroedAndMaxedLoadsCleanly) {
  // 0x00 collapses length fields; 0xff inflates them — both directions of
  // the forged-length attack the section clamps in LoadFrom exist for.
  for (const unsigned char value : {0x00u, 0xffu}) {
    for (std::size_t i = 0; i < bytes_.size(); ++i) {
      std::string mutated = bytes_;
      mutated[i] = static_cast<char>(value);
      ExpectCleanOutcome(mutated, "set byte " + std::to_string(i) + " to " +
                                      std::to_string(value));
    }
  }
}

TEST_F(SnapshotFuzzTest, EveryTruncationLoadsCleanly) {
  for (std::size_t len = 0; len < bytes_.size(); ++len) {
    ExpectCleanOutcome(bytes_.substr(0, len),
                       "truncate to " + std::to_string(len));
  }
}

TEST_F(SnapshotFuzzTest, MagicMutationsAreRejected) {
  // Any corruption of the 8-byte magic must be rejected outright, never
  // interpreted as a (different) format.
  for (std::size_t i = 0; i < 8; ++i) {
    std::string mutated = bytes_;
    mutated[i] = static_cast<char>(static_cast<unsigned char>(mutated[i]) ^
                                   0x01u);
    const std::string path = TempPath("fuzz_snapshot_magic.bin");
    WriteAll(path, mutated);
    auto loaded = RelationshipSnapshot::LoadFrom(path);
    ASSERT_FALSE(loaded.ok()) << "magic byte " << i;
    EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos)
        << loaded.status().message();
  }
}

TEST_F(SnapshotFuzzTest, UntouchedFileRoundTrips) {
  auto loaded = RelationshipSnapshot::LoadFrom(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ((*loaded)->observations().size(), 10u);
}

// --- Targeted forgeries of the format-2 rows ---------------------------------

uint64_t GetU64At(const std::string& bytes, std::size_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

void PutU64At(std::string* bytes, std::size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + i] = static_cast<char>(v >> (8 * i));
  }
}

void PutU32At(std::string* bytes, std::size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[at + i] = static_cast<char>(v >> (8 * i));
  }
}

// Where one stored row set lives in the file.
struct RowsAt {
  std::size_t count;    // u64 entry count m
  std::size_t offsets;  // n + 1 u64 offsets
  std::size_t ids;      // m u32 ids
  std::size_t counts;   // m u8 counts (partial only)
  uint64_t m;
};

class SnapshotForgeryTest : public SnapshotFuzzTest {
 protected:
  void SetUp() override {
    SnapshotFuzzTest::SetUp();
    // Header: magic, version, fingerprint, selector bits, corpus section.
    constexpr std::size_t kSelectorAt = 8 + 8 + 8;
    selector_at_ = kSelectorAt;
    std::size_t at = kSelectorAt + 4;
    at += 8 + GetU64At(bytes_, at);
    for (RowsAt* rows : {&full_, &partial_, &compl_}) {
      rows->count = at;
      rows->m = GetU64At(bytes_, at);
      rows->offsets = at + 8;
      rows->ids = rows->offsets + 8 * (kN + 1);
      rows->counts = rows->ids + 4 * rows->m;
      at = rows->counts + (rows == &partial_ ? rows->m : 0);
    }
    ASSERT_EQ(at, bytes_.size());
    // The running example has relationships of every type.
    ASSERT_GT(full_.m, 0u);
    ASSERT_GT(partial_.m, 1u);
    ASSERT_GT(compl_.m, 0u);
  }

  // First row (and its offset) holding at least `len` entries.
  std::size_t RowWith(const RowsAt& rows, uint64_t len) const {
    for (std::size_t r = 0; r < kN; ++r) {
      const uint64_t begin = GetU64At(bytes_, rows.offsets + 8 * r);
      const uint64_t end = GetU64At(bytes_, rows.offsets + 8 * (r + 1));
      if (end - begin >= len) return r;
    }
    ADD_FAILURE() << "no row with " << len << " entries";
    return 0;
  }

  uint64_t Offset(const RowsAt& rows, std::size_t r) const {
    return GetU64At(bytes_, rows.offsets + 8 * r);
  }

  void ExpectParseError(const std::string& forged, const std::string& label) {
    const std::string path = TempPath("fuzz_snapshot_forged.bin");
    WriteAll(path, forged);
    auto loaded = RelationshipSnapshot::LoadFrom(path);
    ASSERT_FALSE(loaded.ok()) << label;
    EXPECT_TRUE(loaded.status().IsParseError())
        << label << ": " << loaded.status().ToString();
  }

  static constexpr std::size_t kN = 10;  // running-example observations
  std::size_t selector_at_ = 0;
  RowsAt full_{}, partial_{}, compl_{};
};

TEST_F(SnapshotForgeryTest, FormatOneHeaderIsRejected) {
  std::string forged = bytes_;
  forged[7] = '1';
  ExpectParseError(forged, "RDFSNAP1");
}

TEST_F(SnapshotForgeryTest, ForgedEntryCountsAreClampedBeforeSizing) {
  for (const RowsAt* rows : {&full_, &partial_, &compl_}) {
    // Small overshoots, a count whose entries would need terabytes, and
    // counts whose byte size overflows 64 bits.
    for (uint64_t m : {rows->m + 1, rows->m * 1000, uint64_t{1} << 40,
                       ~uint64_t{0}, ~uint64_t{0} / 4 + 1}) {
      std::string forged = bytes_;
      PutU64At(&forged, rows->count, m);
      ExpectParseError(forged, "entry count " + std::to_string(m));
      // With the last offset forged to match, only the clamp against the
      // bytes present stands between the count and the allocator.
      PutU64At(&forged, rows->offsets + 8 * kN, m);
      ExpectParseError(forged, "entry count and last offset " +
                                   std::to_string(m));
    }
  }
}

TEST_F(SnapshotForgeryTest, OffsetsMustBeMonotoneAndSpanTheEntries) {
  std::string forged = bytes_;
  PutU64At(&forged, full_.offsets, 1);  // offsets[0] != 0
  ExpectParseError(forged, "first offset");
  forged = bytes_;
  PutU64At(&forged, full_.offsets + 8 * kN, full_.m - 1);  // last != m
  ExpectParseError(forged, "last offset");
  // A row whose end precedes its start.
  const std::size_t r = RowWith(partial_, 2);
  forged = bytes_;
  PutU64At(&forged, partial_.offsets + 8 * (r + 1), Offset(partial_, r) - 1);
  ExpectParseError(forged, "decreasing offsets");
  // An offset past the entry count, with the last one still spanning them:
  // rows must not be read before every offset is checked.
  forged = bytes_;
  PutU64At(&forged, full_.offsets + 8, full_.m + 100);
  ExpectParseError(forged, "offset past the entries");
}

TEST_F(SnapshotForgeryTest, RowIdsMustBeAscendingInRangeAndNotSelf) {
  const std::size_t r = RowWith(partial_, 2);
  const std::size_t first = partial_.ids + 4 * Offset(partial_, r);
  std::string forged = bytes_;
  std::memcpy(&forged[first], &bytes_[first + 4], 4);  // repeat an id
  ExpectParseError(forged, "repeated id");
  forged = bytes_;
  std::memcpy(&forged[first], &bytes_[first + 4], 4);
  std::memcpy(&forged[first + 4], &bytes_[first], 4);  // descending pair
  ExpectParseError(forged, "descending ids");
  forged = bytes_;
  PutU32At(&forged, partial_.ids + 4 * (partial_.m - 1), kN);  // id == n
  ExpectParseError(forged, "id past n");
  const std::size_t f = RowWith(full_, 1);
  forged = bytes_;
  PutU32At(&forged, full_.ids + 4 * Offset(full_, f),
           static_cast<uint32_t>(f));
  ExpectParseError(forged, "self pair");
}

TEST_F(SnapshotForgeryTest, DegreesMustLieStrictlyBetweenZeroAndOne) {
  for (uint8_t count : {uint8_t{0}, uint8_t{3}, uint8_t{0xff}}) {
    std::string forged = bytes_;
    forged[partial_.counts] = static_cast<char>(count);
    ExpectParseError(forged, "count " + std::to_string(count));
  }
}

TEST_F(SnapshotForgeryTest, ComplementPairsMustHaveALessThanB) {
  // Store a complement pair under its larger id: a row of the stored upper
  // half may only name ids above it.
  const std::size_t r = RowWith(compl_, 1);
  const std::size_t at = compl_.ids + 4 * Offset(compl_, r);
  uint32_t partner;
  std::memcpy(&partner, &bytes_[at], 4);
  ASSERT_GT(partner, r);
  std::string forged = bytes_;
  PutU32At(&forged, at, static_cast<uint32_t>(r) - (r > 0 ? 1 : 0));
  ExpectParseError(forged, "complement pair stored under a > b");
}

TEST_F(SnapshotForgeryTest, RowsOfExcludedTypesAreRejected) {
  std::string forged = bytes_;
  forged[selector_at_] = 1;  // full containment only, yet partial rows stored
  ExpectParseError(forged, "selector excludes stored rows");
}

}  // namespace
}  // namespace core
}  // namespace rdfcube
