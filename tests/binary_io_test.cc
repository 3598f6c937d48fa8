// Tests for the binary corpus format: round-trips, file I/O, and corrupt-
// input failure injection (the deserializer must reject, never crash or
// build an inconsistent corpus).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <utility>

#include "core/baseline.h"
#include "core/occurrence_matrix.h"
#include "datagen/realworld.h"
#include "qb/binary_io.h"
#include "tests/test_corpus.h"
#include "util/random.h"

namespace rdfcube {
namespace qb {
namespace {

using testutil::MakeRandomCorpus;
using testutil::MakeRunningExample;

// Full/partial/compl counts for equivalence checks.
struct Counts {
  std::size_t full, partial, compl_count;
  bool operator==(const Counts& o) const {
    return full == o.full && partial == o.partial &&
           compl_count == o.compl_count;
  }
};

Counts CountsOf(const ObservationSet& obs) {
  const core::OccurrenceMatrix om(obs);
  core::CountingSink sink;
  EXPECT_TRUE(core::RunBaseline(obs, om, core::BaselineOptions{}, &sink).ok());
  return {sink.full(), sink.partial(), sink.complementary()};
}

TEST(BinaryIoTest, RoundTripPreservesEverything) {
  Corpus original = MakeRunningExample();
  auto bytes = SerializeCorpus(original);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto reloaded = DeserializeCorpus(*bytes);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  const CubeSpace& s1 = *original.space;
  const CubeSpace& s2 = *reloaded->space;
  ASSERT_EQ(s2.num_dimensions(), s1.num_dimensions());
  ASSERT_EQ(s2.num_measures(), s1.num_measures());
  for (DimId d = 0; d < s1.num_dimensions(); ++d) {
    EXPECT_EQ(s2.dimension_iri(d), s1.dimension_iri(d));
    ASSERT_EQ(s2.code_list(d).size(), s1.code_list(d).size());
    for (hierarchy::CodeId c = 0; c < s1.code_list(d).size(); ++c) {
      EXPECT_EQ(s2.code_list(d).name(c), s1.code_list(d).name(c));
      EXPECT_EQ(s2.code_list(d).level(c), s1.code_list(d).level(c));
    }
  }
  const ObservationSet& o1 = *original.observations;
  const ObservationSet& o2 = *reloaded->observations;
  ASSERT_EQ(o2.size(), o1.size());
  ASSERT_EQ(o2.num_datasets(), o1.num_datasets());
  for (ObsId i = 0; i < o1.size(); ++i) {
    EXPECT_EQ(o2.obs(i).iri, o1.obs(i).iri);
    EXPECT_EQ(o2.obs(i).dataset, o1.obs(i).dataset);
    EXPECT_EQ(o2.obs(i).dims, o1.obs(i).dims);
    EXPECT_EQ(o2.obs(i).measure_mask, o1.obs(i).measure_mask);
    EXPECT_EQ(o2.obs(i).values, o1.obs(i).values);
  }
  EXPECT_EQ(CountsOf(o2), CountsOf(o1));
}

TEST(BinaryIoTest, FileRoundTrip) {
  Corpus original = MakeRunningExample();
  const std::string path = ::testing::TempDir() + "/corpus.rdfcube";
  ASSERT_TRUE(SaveCorpus(original, path).ok());
  auto reloaded = LoadCorpusBinary(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->observations->size(), original.observations->size());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(LoadCorpusBinary("/no/such/file.bin").status().IsIOError());
}

TEST(BinaryIoTest, DirectoryIsIOErrorNotCrash) {
  // Loading a directory must fail cleanly in both directions.
  const std::string dir = ::testing::TempDir();
  EXPECT_TRUE(LoadCorpusBinary(dir).status().IsIOError());
  Corpus corpus = MakeRunningExample();
  EXPECT_TRUE(SaveCorpus(corpus, dir).IsIOError());
}

TEST(BinaryIoTest, ZeroByteFileIsParseError) {
  const std::string path = ::testing::TempDir() + "/empty.rdfcube";
  { std::ofstream touch(path, std::ios::binary | std::ios::trunc); }
  auto result = LoadCorpusBinary(path);
  EXPECT_TRUE(result.status().IsParseError()) << result.status().ToString();
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsBadMagic) {
  EXPECT_TRUE(DeserializeCorpus("NOTMAGIC").status().IsParseError());
  EXPECT_TRUE(DeserializeCorpus("").status().IsParseError());
}

TEST(BinaryIoTest, RejectsEveryTruncation) {
  Corpus original = MakeRunningExample();
  auto bytes = SerializeCorpus(original);
  ASSERT_TRUE(bytes.ok());
  // Every strict prefix must be rejected (and never crash).
  for (std::size_t cut = 0; cut < bytes->size(); cut += 7) {
    auto result = DeserializeCorpus(bytes->substr(0, cut));
    EXPECT_FALSE(result.ok()) << "prefix " << cut << " accepted";
  }
  // Trailing garbage is rejected too.
  EXPECT_TRUE(DeserializeCorpus(*bytes + "x").status().IsParseError());
}

class BinaryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BinaryFuzzTest, RandomCorruptionNeverCrashes) {
  Corpus original = MakeRandomCorpus(GetParam(), 30);
  auto bytes = SerializeCorpus(original);
  ASSERT_TRUE(bytes.ok());
  Rng rng(GetParam() * 101 + 17);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = *bytes;
    const std::size_t flips = 1 + rng.Uniform(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    auto result = DeserializeCorpus(mutated);
    if (result.ok()) {
      // A mutation may leave the file valid (e.g. flips inside an IRI or a
      // double); the result must still be a *consistent* corpus.
      const ObservationSet& obs = *result->observations;
      for (ObsId i = 0; i < obs.size(); ++i) {
        for (DimId d = 0; d < result->space->num_dimensions(); ++d) {
          const hierarchy::CodeId c = obs.obs(i).dims[d];
          if (c != hierarchy::kNoCode) {
            ASSERT_LT(c, result->space->code_list(d).size());
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(BinaryIoTest, GeneratedCorpusRoundTrip) {
  auto corpus = datagen::GenerateRealWorldPrefix(500, 21);
  ASSERT_TRUE(corpus.ok());
  auto bytes = SerializeCorpus(*corpus);
  ASSERT_TRUE(bytes.ok());
  auto reloaded = DeserializeCorpus(*bytes);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(CountsOf(*reloaded->observations),
            CountsOf(*corpus->observations));
}

TEST(BinaryIoTest, ReserializingADecodedCorpusIsByteIdentical) {
  auto corpus = datagen::GenerateRealWorldPrefix(1000, 9);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  auto bytes = SerializeCorpus(*corpus);
  ASSERT_TRUE(bytes.ok());
  auto decoded = DeserializeCorpus(*bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto again = SerializeCorpus(*decoded);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again == *bytes);
}

TEST(BinaryIoTest, SixtyFourDimensionCorpusRoundTrips) {
  // Dataset 0 declares all 64 dimensions: its mask has no bit to spare, so
  // the unused-bits check must not shift by the full width.
  Corpus wide = testutil::MakeWideCorpus(3);
  ASSERT_EQ(wide.space->num_dimensions(), 64u);
  auto bytes = SerializeCorpus(wide);
  ASSERT_TRUE(bytes.ok());
  auto decoded = DeserializeCorpus(*bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->observations->dataset(0).dim_mask, ~uint64_t{0});
  auto again = SerializeCorpus(*decoded);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again == *bytes);
}

TEST(BinaryIoTest, DecodedCodeListsEqualTheOnesBuiltByAdd) {
  // The generator builds its code lists code by code through Add; the
  // decoder's bulk path must rebuild every one of them exactly.
  auto corpus = datagen::GenerateRealWorldPrefix(1000, 9);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  auto bytes = SerializeCorpus(*corpus);
  ASSERT_TRUE(bytes.ok());
  auto decoded = DeserializeCorpus(*bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const CubeSpace& built = *corpus->space;
  ASSERT_EQ(decoded->space->num_dimensions(), built.num_dimensions());
  for (DimId d = 0; d < built.num_dimensions(); ++d) {
    const hierarchy::CodeList& want = built.code_list(d);
    const hierarchy::CodeList& got = decoded->space->code_list(d);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(got.finalized());
    EXPECT_EQ(got.max_level(), want.max_level());
    const hierarchy::EulerLabels want_labels = want.euler_labels();
    const hierarchy::EulerLabels got_labels = got.euler_labels();
    for (hierarchy::CodeId c = 0; c < want.size(); ++c) {
      EXPECT_EQ(got.name(c), want.name(c));
      EXPECT_EQ(got.parent(c), want.parent(c));
      EXPECT_EQ(got.level(c), want.level(c));
      EXPECT_EQ(got_labels.pre[c], want_labels.pre[c]);
      EXPECT_EQ(got_labels.post[c], want_labels.post[c]);
      EXPECT_TRUE(std::ranges::equal(got.children(c), want.children(c)))
          << "children of " << want.name(c);
      EXPECT_EQ(got.Find(want.name(c)), std::optional<hierarchy::CodeId>(c));
    }
  }
}

// Offset of the only occurrence of `name` as a length-prefixed string.
std::size_t StringAt(const std::string& bytes, const std::string& name) {
  std::string needle(4, '\0');
  needle[0] = static_cast<char>(name.size());
  needle += name;
  const std::size_t at = bytes.find(needle);
  EXPECT_NE(at, std::string::npos) << name;
  EXPECT_EQ(bytes.find(needle, at + 1), std::string::npos) << name;
  return at + 4;
}

TEST(BinaryIoTest, RepeatedCodeNameIsParseError) {
  Corpus original = MakeRunningExample();
  auto bytes = SerializeCorpus(original);
  ASSERT_TRUE(bytes.ok());
  // "2011" renamed to its sibling "2001" (same parent), and "Greece" to
  // "Europe" (its own parent): a repeat either way.
  for (const auto& [from, to] : {std::pair<std::string, std::string>{
                                     "2011", "2001"},
                                 {"Greece", "Europe"}}) {
    std::string forged = *bytes;
    forged.replace(StringAt(forged, from), to.size(), to);
    auto result = DeserializeCorpus(forged);
    EXPECT_TRUE(result.status().IsParseError())
        << from << ": " << result.status().ToString();
  }
}

TEST(BinaryIoTest, ForgedCodeCountsAreClampedBeforeSizing) {
  Corpus original = MakeRunningExample();
  auto bytes = SerializeCorpus(original);
  ASSERT_TRUE(bytes.ok());
  // magic, dimension count, then the first dimension's iri and code count.
  const std::size_t at = 8 + 4 + 4 + original.space->dimension_iri(0).size();
  const std::size_t after = bytes->size() - (at + 4);
  // One code past what the remaining bytes can encode, a count whose
  // reservation would need gigabytes, and the largest u32.
  for (uint32_t count : {static_cast<uint32_t>(after / 8 + 1), 1u << 28,
                         0xffffffffu}) {
    std::string forged = *bytes;
    for (int i = 0; i < 4; ++i) {
      forged[at + i] = static_cast<char>(count >> (8 * i));
    }
    auto result = DeserializeCorpus(forged);
    ASSERT_TRUE(result.status().IsParseError())
        << count << ": " << result.status().ToString();
    // Rejected at the count, before a code is read or a list is sized.
    EXPECT_NE(result.status().message().find("code count"), std::string::npos)
        << result.status().ToString();
  }
}

}  // namespace
}  // namespace qb
}  // namespace rdfcube
