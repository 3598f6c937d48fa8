// Unit + property tests for src/hierarchy: code lists, interval-label
// ancestry, levels, SKOS loading (including malformed schemes).

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hierarchy/code_list.h"
#include "hierarchy/skos_loader.h"
#include "rdf/turtle_parser.h"
#include "util/random.h"

namespace rdfcube {
namespace hierarchy {
namespace {

CodeList MakeGeo() {
  CodeList list("World");
  auto eu = list.Add("Europe", list.root());
  auto am = list.Add("America", list.root());
  auto gr = list.Add("Greece", *eu);
  auto it = list.Add("Italy", *eu);
  list.Add("Athens", *gr).value();
  list.Add("Ioannina", *gr).value();
  list.Add("Rome", *it).value();
  list.Add("US", *am).value();
  EXPECT_TRUE(list.Finalize().ok());
  return list;
}

TEST(CodeListTest, BasicStructure) {
  CodeList list = MakeGeo();
  EXPECT_EQ(list.size(), 9u);
  EXPECT_EQ(list.root(), 0u);
  EXPECT_EQ(list.name(list.root()), "World");
  EXPECT_EQ(list.max_level(), 3u);
}

TEST(CodeListTest, LevelsAreDepths) {
  CodeList list = MakeGeo();
  EXPECT_EQ(list.level(list.root()), 0u);
  EXPECT_EQ(list.level(*list.Find("Europe")), 1u);
  EXPECT_EQ(list.level(*list.Find("Greece")), 2u);
  EXPECT_EQ(list.level(*list.Find("Athens")), 3u);
}

TEST(CodeListTest, AncestryIsReflexive) {
  CodeList list = MakeGeo();
  for (CodeId c = 0; c < list.size(); ++c) {
    EXPECT_TRUE(list.IsAncestorOrSelf(c, c));
    EXPECT_FALSE(list.IsStrictAncestor(c, c));
  }
}

TEST(CodeListTest, AncestryFollowsTree) {
  CodeList list = MakeGeo();
  const CodeId world = list.root();
  const CodeId europe = *list.Find("Europe");
  const CodeId greece = *list.Find("Greece");
  const CodeId athens = *list.Find("Athens");
  const CodeId rome = *list.Find("Rome");
  const CodeId us = *list.Find("US");
  EXPECT_TRUE(list.IsAncestorOrSelf(world, athens));
  EXPECT_TRUE(list.IsAncestorOrSelf(europe, athens));
  EXPECT_TRUE(list.IsAncestorOrSelf(greece, athens));
  EXPECT_FALSE(list.IsAncestorOrSelf(athens, greece));
  EXPECT_FALSE(list.IsAncestorOrSelf(greece, rome));
  EXPECT_FALSE(list.IsAncestorOrSelf(rome, greece));
  EXPECT_FALSE(list.IsAncestorOrSelf(us, athens));
  EXPECT_TRUE(list.IsStrictAncestor(world, us));
}

TEST(CodeListTest, AncestorsOrSelfChain) {
  CodeList list = MakeGeo();
  const auto chain = list.AncestorsOrSelf(*list.Find("Athens"));
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(list.name(chain[0]), "Athens");
  EXPECT_EQ(list.name(chain[1]), "Greece");
  EXPECT_EQ(list.name(chain[2]), "Europe");
  EXPECT_EQ(list.name(chain[3]), "World");
}

TEST(CodeListTest, ChildrenLists) {
  CodeList list = MakeGeo();
  EXPECT_EQ(list.children(list.root()).size(), 2u);
  EXPECT_EQ(list.children(*list.Find("Greece")).size(), 2u);
  EXPECT_TRUE(list.children(*list.Find("Athens")).empty());
  // Insertion order, not name or id order of the parents' other children.
  const auto names = [&list](CodeId c) {
    std::vector<std::string> out;
    for (CodeId child : list.children(c)) out.push_back(list.name(child));
    return out;
  };
  EXPECT_EQ(names(list.root()),
            (std::vector<std::string>{"Europe", "America"}));
  EXPECT_EQ(names(*list.Find("Europe")),
            (std::vector<std::string>{"Greece", "Italy"}));
  EXPECT_EQ(names(*list.Find("Greece")),
            (std::vector<std::string>{"Athens", "Ioannina"}));
}

TEST(CodeListTest, FindResolvesEveryNameAfterTheIndexGrows) {
  // Thousands of codes grow the name index many times over (and a
  // reservation far below the final size does not cap it).
  CodeList list("root");
  list.Reserve(10, 1u << 20);
  std::vector<CodeId> ids = {list.root()};
  for (uint32_t i = 1; i < 5000; ++i) {
    auto added = list.Add("code/" + std::to_string(i * 7919u), ids[i / 3]);
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    ASSERT_EQ(*added, i);
    ids.push_back(*added);
  }
  ASSERT_TRUE(list.Finalize().ok());
  for (CodeId c = 0; c < list.size(); ++c) {
    const std::optional<CodeId> found = list.Find(list.name(c));
    ASSERT_TRUE(found.has_value()) << list.name(c);
    EXPECT_EQ(*found, c);
  }
  EXPECT_FALSE(list.Find("code/").has_value());
  EXPECT_FALSE(list.Find("code/7918").has_value());
  // Re-adding any of them is a no-op that returns its id.
  auto again = list.Add(list.name(4321), list.parent(4321));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 4321u);
  EXPECT_EQ(list.size(), 5000u);
}

TEST(CodeListTest, ReserveIsClampedToItsLimit) {
  // A forged count cannot size the list: the reservation stops at the
  // limit, and the list still grows past it as codes arrive.
  CodeList list("root");
  list.Reserve(std::size_t{1} << 40, 4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(list.Add("c" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(list.Finalize().ok());
  EXPECT_EQ(list.size(), 101u);
  EXPECT_EQ(list.Find("c99"), std::optional<CodeId>(100));
}

TEST(CodeListTest, ReAddSameParentIsNoOp) {
  CodeList list("R");
  auto a = list.Add("A", 0);
  auto a2 = list.Add("A", 0);
  ASSERT_TRUE(a.ok() && a2.ok());
  EXPECT_EQ(*a, *a2);
  EXPECT_EQ(list.size(), 2u);
}

TEST(CodeListTest, ReAddDifferentParentFails) {
  CodeList list("R");
  auto a = list.Add("A", 0);
  list.Add("B", 0).value();
  auto conflict = list.Add("A", *list.Find("B"));
  EXPECT_FALSE(conflict.ok());
  EXPECT_TRUE(conflict.status().IsInvalidArgument());
  (void)a;
}

TEST(CodeListTest, AddWithBogusParentFails) {
  CodeList list("R");
  EXPECT_TRUE(list.Add("A", 99).status().IsInvalidArgument());
}

TEST(CodeListTest, FindMissing) {
  CodeList list("R");
  EXPECT_FALSE(list.Find("nope").has_value());
}

TEST(CodeListTest, RefinalizeAfterGrowth) {
  CodeList list("R");
  auto a = list.Add("A", 0);
  ASSERT_TRUE(list.Finalize().ok());
  EXPECT_TRUE(list.finalized());
  auto b = list.Add("B", *a);
  EXPECT_FALSE(list.finalized());
  ASSERT_TRUE(list.Finalize().ok());
  EXPECT_TRUE(list.IsAncestorOrSelf(*a, *b));
  EXPECT_EQ(list.level(*b), 2u);
}

// Property: interval ancestry agrees with parent-chain walking on random
// trees of assorted shapes.
class CodeListPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodeListPropertyTest, IntervalAncestryMatchesChainWalk) {
  Rng rng(GetParam());
  CodeList list("root");
  std::vector<CodeId> all = {0};
  const std::size_t n = 5 + rng.Uniform(60);
  for (std::size_t i = 0; i < n; ++i) {
    const CodeId parent = all[rng.Uniform(all.size())];
    auto added = list.Add("c" + std::to_string(i), parent);
    ASSERT_TRUE(added.ok());
    all.push_back(*added);
  }
  ASSERT_TRUE(list.Finalize().ok());
  auto chain_has = [&](CodeId a, CodeId b) {
    for (CodeId cur : list.AncestorsOrSelf(b)) {
      if (cur == a) return true;
    }
    return false;
  };
  for (CodeId a : all) {
    for (CodeId b : all) {
      EXPECT_EQ(list.IsAncestorOrSelf(a, b), chain_has(a, b))
          << "a=" << a << " b=" << b;
    }
  }
  // Levels equal chain length - 1.
  for (CodeId c : all) {
    EXPECT_EQ(list.level(c), list.AncestorsOrSelf(c).size() - 1);
  }
  // The labels are exactly a depth-first tour's over the children in
  // insertion order, one clock tick on entry and one on exit.
  std::vector<uint32_t> pre(list.size()), post(list.size());
  uint32_t clock = 0;
  std::vector<std::pair<CodeId, std::size_t>> stack = {{list.root(), 0}};
  pre[list.root()] = clock++;
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < list.children(node).size()) {
      const CodeId child = list.children(node)[next++];
      pre[child] = clock++;
      stack.emplace_back(child, 0);
    } else {
      post[node] = clock++;
      stack.pop_back();
    }
  }
  const EulerLabels labels = list.euler_labels();
  for (CodeId c : all) {
    EXPECT_EQ(labels.pre[c], pre[c]) << c;
    EXPECT_EQ(labels.post[c], post[c]) << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodeListPropertyTest,
                         ::testing::Range<uint64_t>(1, 16));

// --- SKOS loading ----------------------------------------------------------------

constexpr char kScheme[] = "http://e/scheme";

rdf::TripleStore ParseOrDie(const std::string& ttl) {
  rdf::TripleStore store;
  const Status st = rdf::ParseTurtle(ttl, &store);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return store;
}

TEST(SkosLoaderTest, SingleTopConceptBecomesRoot) {
  auto store = ParseOrDie(R"(
@prefix skos: <http://www.w3.org/2004/02/skos/core#> .
@prefix e: <http://e/> .
e:World skos:inScheme e:scheme .
e:Europe skos:inScheme e:scheme ; skos:broader e:World .
e:Greece skos:inScheme e:scheme ; skos:broader e:Europe .
)");
  auto list = hierarchy::LoadCodeListFromSkos(store, kScheme);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list->size(), 3u);
  EXPECT_EQ(list->name(list->root()), "http://e/World");
  EXPECT_EQ(list->level(*list->Find("http://e/Greece")), 2u);
}

TEST(SkosLoaderTest, MultipleTopsGetSyntheticRoot) {
  auto store = ParseOrDie(R"(
@prefix skos: <http://www.w3.org/2004/02/skos/core#> .
@prefix e: <http://e/> .
e:A skos:inScheme e:scheme .
e:B skos:inScheme e:scheme .
e:A1 skos:inScheme e:scheme ; skos:broader e:A .
)");
  auto list = hierarchy::LoadCodeListFromSkos(store, kScheme);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 4u);  // synthetic root + A + B + A1
  EXPECT_EQ(list->name(list->root()), std::string(kScheme) + "/ALL");
  EXPECT_EQ(list->level(*list->Find("http://e/A1")), 2u);
}

TEST(SkosLoaderTest, MissingSchemeFails) {
  auto store = ParseOrDie("@prefix e: <http://e/> . e:x e:p e:y .");
  EXPECT_TRUE(
      hierarchy::LoadCodeListFromSkos(store, kScheme).status().IsNotFound());
}

TEST(SkosLoaderTest, CycleFails) {
  auto store = ParseOrDie(R"(
@prefix skos: <http://www.w3.org/2004/02/skos/core#> .
@prefix e: <http://e/> .
e:Top skos:inScheme e:scheme .
e:A skos:inScheme e:scheme ; skos:broader e:B .
e:B skos:inScheme e:scheme ; skos:broader e:A .
)");
  auto list = hierarchy::LoadCodeListFromSkos(store, kScheme);
  ASSERT_FALSE(list.ok());
  EXPECT_TRUE(list.status().IsParseError());
}

TEST(SkosLoaderTest, MultiParentFails) {
  auto store = ParseOrDie(R"(
@prefix skos: <http://www.w3.org/2004/02/skos/core#> .
@prefix e: <http://e/> .
e:R skos:inScheme e:scheme .
e:S skos:inScheme e:scheme .
e:X skos:inScheme e:scheme ; skos:broader e:R ; skos:broader e:S .
)");
  EXPECT_TRUE(
      hierarchy::LoadCodeListFromSkos(store, kScheme).status().IsParseError());
}

TEST(SkosLoaderTest, BroaderOutsideSchemeFails) {
  auto store = ParseOrDie(R"(
@prefix skos: <http://www.w3.org/2004/02/skos/core#> .
@prefix e: <http://e/> .
e:R skos:inScheme e:scheme .
e:X skos:inScheme e:scheme ; skos:broader e:Elsewhere .
)");
  EXPECT_TRUE(
      hierarchy::LoadCodeListFromSkos(store, kScheme).status().IsParseError());
}

}  // namespace
}  // namespace hierarchy
}  // namespace rdfcube
