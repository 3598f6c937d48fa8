#include "tests/test_corpus.h"

#include <cassert>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace rdfcube {
namespace testutil {

namespace {

void Check(const Status& status) {
  assert(status.ok());
  (void)status;
}

}  // namespace

qb::Corpus MakeRunningExample() {
  qb::CorpusBuilder b;
  // refArea (Figure 1 / Table 2 column order).
  Check(b.AddDimension(kRefArea, "World"));
  Check(b.AddCode(kRefArea, "Europe", "World"));
  Check(b.AddCode(kRefArea, "America", "World"));
  Check(b.AddCode(kRefArea, "Greece", "Europe"));
  Check(b.AddCode(kRefArea, "Italy", "Europe"));
  Check(b.AddCode(kRefArea, "Athens", "Greece"));
  Check(b.AddCode(kRefArea, "Ioannina", "Greece"));
  Check(b.AddCode(kRefArea, "Rome", "Italy"));
  Check(b.AddCode(kRefArea, "US", "America"));
  Check(b.AddCode(kRefArea, "TX", "US"));
  Check(b.AddCode(kRefArea, "Austin", "TX"));
  // refPeriod.
  Check(b.AddDimension(kRefPeriod, "AllTime"));
  Check(b.AddCode(kRefPeriod, "2001", "AllTime"));
  Check(b.AddCode(kRefPeriod, "2011", "AllTime"));
  Check(b.AddCode(kRefPeriod, "Jan2011", "2011"));
  Check(b.AddCode(kRefPeriod, "Feb2011", "2011"));
  // sex.
  Check(b.AddDimension(kSex, "Total"));
  Check(b.AddCode(kSex, "Female", "Total"));
  Check(b.AddCode(kSex, "Male", "Total"));

  Check(b.AddMeasure(kPopulation));
  Check(b.AddMeasure(kUnemployment));
  Check(b.AddMeasure(kPoverty));

  Check(b.AddDataset("D1", {kRefArea, kRefPeriod, kSex}, {kPopulation}));
  Check(b.AddDataset("D2", {kRefArea, kRefPeriod},
                     {kUnemployment, kPoverty}));
  Check(b.AddDataset("D3", {kRefArea, kRefPeriod}, {kUnemployment}));

  Check(b.AddObservation("D1", "o11",
                         {{kRefArea, "Athens"},
                          {kRefPeriod, "2001"},
                          {kSex, "Total"}},
                         {{kPopulation, 5.0e6}}));
  Check(b.AddObservation("D1", "o12",
                         {{kRefArea, "Austin"},
                          {kRefPeriod, "2011"},
                          {kSex, "Male"}},
                         {{kPopulation, 445000}}));
  Check(b.AddObservation("D1", "o13",
                         {{kRefArea, "Austin"},
                          {kRefPeriod, "2011"},
                          {kSex, "Total"}},
                         {{kPopulation, 885000}}));
  Check(b.AddObservation("D2", "o21",
                         {{kRefArea, "Greece"}, {kRefPeriod, "2011"}},
                         {{kUnemployment, 26.0}, {kPoverty, 15.0}}));
  Check(b.AddObservation("D2", "o22",
                         {{kRefArea, "Italy"}, {kRefPeriod, "2011"}},
                         {{kUnemployment, 20.0}, {kPoverty, 10.0}}));
  Check(b.AddObservation("D3", "o31",
                         {{kRefArea, "Athens"}, {kRefPeriod, "2001"}},
                         {{kUnemployment, 10.0}}));
  Check(b.AddObservation("D3", "o32",
                         {{kRefArea, "Athens"}, {kRefPeriod, "Jan2011"}},
                         {{kUnemployment, 30.0}}));
  Check(b.AddObservation("D3", "o33",
                         {{kRefArea, "Rome"}, {kRefPeriod, "Feb2011"}},
                         {{kUnemployment, 7.0}}));
  Check(b.AddObservation("D3", "o34",
                         {{kRefArea, "Ioannina"}, {kRefPeriod, "Jan2011"}},
                         {{kUnemployment, 15.0}}));
  Check(b.AddObservation("D3", "o35",
                         {{kRefArea, "Austin"}, {kRefPeriod, "2011"}},
                         {{kUnemployment, 3.0}}));

  auto corpus = std::move(b).Build();
  assert(corpus.ok());
  return std::move(corpus).value();
}

qb::Corpus MakeRandomCorpus(uint64_t seed, std::size_t num_obs,
                            std::size_t num_dims, std::size_t num_datasets) {
  Rng rng(seed);
  qb::CorpusBuilder b;

  // Random tree code lists.
  std::vector<std::string> dim_iris;
  std::vector<std::vector<std::string>> codes_of_dim(num_dims);
  for (std::size_t d = 0; d < num_dims; ++d) {
    const std::string dim = "rand:dim" + std::to_string(d);
    dim_iris.push_back(dim);
    const std::string root = "d" + std::to_string(d) + "ALL";
    Check(b.AddDimension(dim, root));
    codes_of_dim[d].push_back(root);
    std::vector<std::string> frontier = {root};
    const std::size_t depth = 1 + rng.Uniform(3);
    for (std::size_t level = 0; level < depth; ++level) {
      std::vector<std::string> next;
      for (const std::string& parent : frontier) {
        const std::size_t fanout = 2 + rng.Uniform(3);
        for (std::size_t f = 0; f < fanout; ++f) {
          const std::string code = parent + "." + std::to_string(f);
          Check(b.AddCode(dim, code, parent));
          codes_of_dim[d].push_back(code);
          next.push_back(code);
        }
      }
      frontier = std::move(next);
    }
  }

  // Measures: num_datasets + 1; dataset i uses measures {i, last} so every
  // pair of datasets overlaps via the shared last measure.
  std::vector<std::string> measures;
  for (std::size_t m = 0; m <= num_datasets; ++m) {
    measures.push_back("rand:m" + std::to_string(m));
    Check(b.AddMeasure(measures.back()));
  }

  // Datasets: random non-empty dimension subsets.
  std::vector<std::vector<std::string>> schema_of(num_datasets);
  for (std::size_t ds = 0; ds < num_datasets; ++ds) {
    std::vector<std::string> schema;
    for (std::size_t d = 0; d < num_dims; ++d) {
      if (rng.Chance(0.7)) schema.push_back(dim_iris[d]);
    }
    if (schema.empty()) schema.push_back(dim_iris[0]);
    schema_of[ds] = schema;
    Check(b.AddDataset("rand:D" + std::to_string(ds), schema,
                       {measures[ds], measures[num_datasets]}));
  }

  // Observations: values at random codes (any level); duplicate keys within
  // a dataset are fine for relationship-engine property tests (the engines
  // never assume IC-12), so no dedup here.
  for (std::size_t i = 0; i < num_obs; ++i) {
    const std::size_t ds = rng.Uniform(num_datasets);
    std::vector<std::pair<std::string, std::string>> values;
    for (const std::string& dim : schema_of[ds]) {
      // Find the dimension index.
      std::size_t d = 0;
      while (dim_iris[d] != dim) ++d;
      // Occasionally omit the value (exercises root padding).
      if (rng.Chance(0.15)) continue;
      const auto& codes = codes_of_dim[d];
      values.emplace_back(dim, codes[rng.Uniform(codes.size())]);
    }
    Check(b.AddObservation(
        "rand:D" + std::to_string(ds), "rand:o" + std::to_string(i), values,
        {{measures[ds], rng.NextDouble()},
         {measures[num_datasets], rng.NextDouble()}}));
  }
  auto corpus = std::move(b).Build();
  assert(corpus.ok());
  return std::move(corpus).value();
}

namespace {

qb::Corpus Finish(qb::CorpusBuilder&& b) {
  auto corpus = std::move(b).Build();
  assert(corpus.ok());
  return std::move(corpus).value();
}

// Three measures; datasets of the shapes below declare {m0}, {m0, m1} and
// {m2}: the first two share a measure, the third shares none.
void AddShapeMeasures(qb::CorpusBuilder& b, const std::string& prefix) {
  for (int m = 0; m < 3; ++m) {
    Check(b.AddMeasure(prefix + "m" + std::to_string(m)));
  }
}

std::vector<std::string> ShapeMeasures(const std::string& prefix,
                                       std::size_t dataset) {
  if (dataset == 0) return {prefix + "m0"};
  if (dataset == 1) return {prefix + "m0", prefix + "m1"};
  return {prefix + "m2"};
}

std::vector<std::pair<std::string, double>> ShapeValues(
    const std::string& prefix, std::size_t dataset, double v) {
  std::vector<std::pair<std::string, double>> values;
  for (const std::string& m : ShapeMeasures(prefix, dataset)) {
    values.emplace_back(m, v);
  }
  return values;
}

}  // namespace

qb::Corpus MakeDeepChainCorpus() {
  constexpr int kDepth = 300;
  const std::string chain = "deep:chain";
  const std::string side = "deep:side";
  qb::CorpusBuilder b;
  Check(b.AddDimension(chain, "c0"));
  for (int level = 1; level <= kDepth; ++level) {
    Check(b.AddCode(chain, "c" + std::to_string(level),
                    "c" + std::to_string(level - 1)));
  }
  Check(b.AddDimension(side, "sALL"));
  Check(b.AddCode(side, "s1", "sALL"));
  Check(b.AddCode(side, "s2", "sALL"));
  AddShapeMeasures(b, "deep:");
  Check(b.AddDataset("deep:D0", {chain, side}, ShapeMeasures("deep:", 0)));
  Check(b.AddDataset("deep:D1", {chain, side}, ShapeMeasures("deep:", 1)));
  Check(b.AddDataset("deep:D2", {chain}, ShapeMeasures("deep:", 2)));
  struct Row {
    std::size_t dataset;
    const char* iri;
    int depth;         // -1: chain value omitted (root-padded)
    const char* side;  // nullptr: omitted
  };
  const Row rows[] = {
      {0, "deep:o0", 0, "s1"},      {0, "deep:o10", 10, "s1"},
      {0, "deep:o255", 255, "s1"},  {0, "deep:o256", 256, "s1"},
      {0, "deep:o260", 260, "s1"},  {0, "deep:o299", 299, nullptr},
      {0, "deep:o300", 300, "s2"},  {1, "deep:p10", 10, "s2"},
      {1, "deep:p256", 256, nullptr}, {1, "deep:p260", 260, "s1"},
      {1, "deep:p300", 300, "s1"},  {1, "deep:proot", -1, "s1"},
      {2, "deep:q256", 256, nullptr}, {2, "deep:q260", 260, nullptr},
      {2, "deep:qroot", -1, nullptr},
  };
  double v = 1.0;
  for (const Row& row : rows) {
    std::vector<std::pair<std::string, std::string>> dims;
    if (row.depth >= 0) dims.emplace_back(chain, "c" + std::to_string(row.depth));
    if (row.side != nullptr) dims.emplace_back(side, row.side);
    Check(b.AddObservation("deep:D" + std::to_string(row.dataset), row.iri,
                           dims, ShapeValues("deep:", row.dataset, v++)));
  }
  return Finish(std::move(b));
}

qb::Corpus MakeWideCorpus(uint64_t seed, std::size_t num_obs) {
  constexpr std::size_t kDims = 64;
  Rng rng(seed);
  qb::CorpusBuilder b;
  std::vector<std::string> dims;
  std::vector<std::vector<std::string>> codes(kDims);
  for (std::size_t d = 0; d < kDims; ++d) {
    dims.push_back("wide:d" + std::to_string(d));
    const std::string root = "w" + std::to_string(d) + "ALL";
    Check(b.AddDimension(dims[d], root));
    codes[d].push_back(root);
    const std::size_t depth = 1 + rng.Uniform(2);
    std::vector<std::string> frontier = {root};
    for (std::size_t level = 0; level < depth; ++level) {
      std::vector<std::string> next;
      for (const std::string& parent : frontier) {
        for (int f = 0; f < 2; ++f) {
          const std::string code = parent + "." + std::to_string(f);
          Check(b.AddCode(dims[d], code, parent));
          codes[d].push_back(code);
          next.push_back(code);
        }
      }
      frontier = std::move(next);
    }
  }
  AddShapeMeasures(b, "wide:");
  std::vector<std::vector<std::size_t>> schema(3);
  for (std::size_t ds = 0; ds < 3; ++ds) {
    std::vector<std::string> names;
    for (std::size_t d = 0; d < kDims; ++d) {
      if (ds == 0 || d == kDims - 1 || rng.Chance(0.5)) {
        schema[ds].push_back(d);
        names.push_back(dims[d]);
      }
    }
    Check(b.AddDataset("wide:D" + std::to_string(ds), names,
                       ShapeMeasures("wide:", ds)));
  }
  for (std::size_t i = 0; i < num_obs; ++i) {
    const std::size_t ds = rng.Uniform(3);
    std::vector<std::pair<std::string, std::string>> values;
    for (std::size_t d : schema[ds]) {
      if (rng.Chance(0.2)) continue;
      values.emplace_back(dims[d], codes[d][rng.Uniform(codes[d].size())]);
    }
    Check(b.AddObservation("wide:D" + std::to_string(ds),
                           "wide:o" + std::to_string(i), values,
                           ShapeValues("wide:", ds, rng.NextDouble())));
  }
  return Finish(std::move(b));
}

qb::Corpus MakeAllRootCorpus(std::size_t num_obs) {
  qb::CorpusBuilder b;
  Check(b.AddDimension("root:d0", "r0ALL"));
  Check(b.AddCode("root:d0", "r0.a", "r0ALL"));
  Check(b.AddDimension("root:d1", "r1ALL"));
  Check(b.AddCode("root:d1", "r1.a", "r1ALL"));
  AddShapeMeasures(b, "root:");
  Check(b.AddDataset("root:D0", {"root:d0", "root:d1"},
                     ShapeMeasures("root:", 0)));
  Check(b.AddDataset("root:D1", {"root:d0"}, ShapeMeasures("root:", 1)));
  Check(b.AddDataset("root:D2", {"root:d1"}, ShapeMeasures("root:", 2)));
  for (std::size_t i = 0; i < num_obs; ++i) {
    const std::size_t ds = i % 3;
    Check(b.AddObservation("root:D" + std::to_string(ds),
                           "root:o" + std::to_string(i), {},
                           ShapeValues("root:", ds, static_cast<double>(i))));
  }
  return Finish(std::move(b));
}

qb::Corpus MakeDuplicateCoordinateCorpus(uint64_t seed, std::size_t num_obs) {
  Rng rng(seed);
  qb::CorpusBuilder b;
  for (const char* dim : {"dup:x", "dup:y"}) {
    const std::string root = std::string(dim) + "ALL";
    Check(b.AddDimension(dim, root));
    for (int c = 1; c <= 2; ++c) {
      const std::string child = std::string(dim) + std::to_string(c);
      Check(b.AddCode(dim, child, root));
      Check(b.AddCode(dim, child + ".1", child));
    }
  }
  AddShapeMeasures(b, "dup:");
  for (std::size_t ds = 0; ds < 3; ++ds) {
    Check(b.AddDataset("dup:D" + std::to_string(ds), {"dup:x", "dup:y"},
                       ShapeMeasures("dup:", ds)));
  }
  using Coordinate = std::vector<std::pair<std::string, std::string>>;
  const Coordinate pool[] = {
      {{"dup:x", "dup:x1"}, {"dup:y", "dup:y1"}},
      {{"dup:x", "dup:x1.1"}, {"dup:y", "dup:y1"}},
      {{"dup:y", "dup:y2"}},
      {{"dup:x", "dup:x2.1"}},
      {},
  };
  for (std::size_t i = 0; i < num_obs; ++i) {
    const std::size_t ds = rng.Uniform(3);
    Check(b.AddObservation("dup:D" + std::to_string(ds),
                           "dup:o" + std::to_string(i),
                           pool[rng.Uniform(std::size(pool))],
                           ShapeValues("dup:", ds, rng.NextDouble())));
  }
  return Finish(std::move(b));
}

}  // namespace testutil
}  // namespace rdfcube
