#include "qb/binary_io.h"

#include "hierarchy/code_list.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "base/untrusted.h"
#include "util/safe_math.h"

namespace rdfcube {
namespace qb {

namespace {

// Schema limits for untrusted count fields (the taint gate, DESIGN.md §5h):
// dimension/measure counts must fit the 64-bit presence masks, and
// element-count fields are additionally clamped against the bytes actually
// present so a forged count cannot drive a huge loop over a tiny payload.
constexpr uint32_t kMaxDimensions = 64;
constexpr uint32_t kMaxMeasures = 64;
// Smallest possible encodings: code = empty name (4) + parent (4); dataset =
// empty iri (4) + two masks (16); observation = empty iri (4) + dataset id
// (4) + dim count (4) + value count (4).
constexpr uint64_t kMinCodeRecordBytes = 8;
constexpr uint64_t kMinDatasetRecordBytes = 20;
constexpr uint64_t kMinObservationRecordBytes = 16;

// --- Little-endian primitives ------------------------------------------------

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  bool GetU32(uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(
                static_cast<unsigned char>(bytes_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (pos_ + 8 > bytes_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(
                static_cast<unsigned char>(bytes_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool GetDouble(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool GetString(std::string* s) {
    uint32_t len;
    if (!GetU32(&len)) return false;
    if (pos_ + len > bytes_.size()) return false;
    s->assign(bytes_, pos_, len);
    pos_ += len;
    return true;
  }

  // GetString without the copy: a view into the bytes being read.
  bool GetStringView(std::string_view* s) {
    uint32_t len;
    if (!GetU32(&len)) return false;
    if (len > Remaining()) return false;
    *s = std::string_view(bytes_).substr(pos_, len);
    pos_ += len;
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

  std::size_t Remaining() const { return bytes_.size() - pos_; }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

Status Corrupt(const char* what) {
  return Status::ParseError(std::string("corrupt corpus file: ") + what);
}

// Mutated bytes can slip past the structural checks and only be rejected by
// the corpus builders (duplicate IRI, inconsistent schema, ...). Those are
// still parse failures from the caller's point of view: rewrap so the
// deserializer's contract is "ParseError or a valid corpus".
Status AsParseError(const Status& st) {
  if (st.ok() || st.IsParseError()) return st;
  return Status::ParseError("corrupt corpus file: " + st.message());
}

}  // namespace

Result<std::string> SerializeCorpus(const Corpus& corpus) {
  if (corpus.space == nullptr || corpus.observations == nullptr) {
    return Status::InvalidArgument("corpus is not built");
  }
  const CubeSpace& space = *corpus.space;
  const ObservationSet& observations = *corpus.observations;
  std::string out;
  out.append(kBinaryMagic, sizeof(kBinaryMagic));

  // Dimensions with their code lists (parent-indexed, parents first since
  // ids are assigned in insertion order).
  PutU32(&out, static_cast<uint32_t>(space.num_dimensions()));
  for (DimId d = 0; d < space.num_dimensions(); ++d) {
    PutString(&out, space.dimension_iri(d));
    const hierarchy::CodeList& list = space.code_list(d);
    PutU32(&out, static_cast<uint32_t>(list.size()));
    for (hierarchy::CodeId c = 0; c < list.size(); ++c) {
      PutString(&out, list.name(c));
      PutU32(&out, c == list.root() ? 0xffffffffu : list.parent(c));
    }
  }
  // Measures.
  PutU32(&out, static_cast<uint32_t>(space.num_measures()));
  for (MeasureId m = 0; m < space.num_measures(); ++m) {
    PutString(&out, space.measure_iri(m));
  }
  // Datasets.
  PutU32(&out, static_cast<uint32_t>(observations.num_datasets()));
  for (DatasetId ds = 0; ds < observations.num_datasets(); ++ds) {
    const DatasetMeta& meta = observations.dataset(ds);
    PutString(&out, meta.iri);
    PutU64(&out, meta.dim_mask);
    PutU64(&out, meta.measure_mask);
  }
  // Observations.
  PutU32(&out, static_cast<uint32_t>(observations.size()));
  for (ObsId i = 0; i < observations.size(); ++i) {
    const Observation& o = observations.obs(i);
    PutString(&out, o.iri);
    PutU32(&out, o.dataset);
    // Present dimension values only.
    uint32_t present = 0;
    for (hierarchy::CodeId c : o.dims) {
      if (c != hierarchy::kNoCode) ++present;
    }
    PutU32(&out, present);
    for (DimId d = 0; d < o.dims.size(); ++d) {
      if (o.dims[d] == hierarchy::kNoCode) continue;
      PutU32(&out, d);
      PutU32(&out, o.dims[d]);
    }
    PutU32(&out, static_cast<uint32_t>(o.values.size()));
    for (const auto& [m, value] : o.values) {
      PutU32(&out, m);
      PutDouble(&out, value);
    }
  }
  return out;
}

RDFCUBE_TAINT_SOURCE Result<Corpus> DeserializeCorpus(
    const std::string& bytes) {
  if (bytes.size() < sizeof(kBinaryMagic) ||
      std::memcmp(bytes.data(), kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    return Corrupt("bad magic");
  }
  Reader r(bytes);
  {
    // Advance past the 8-byte magic (already validated above).
    uint64_t magic_bytes;
    if (!r.GetU64(&magic_bytes)) return Corrupt("truncated header");
  }

  Corpus corpus;
  corpus.space = std::make_unique<CubeSpace>();

  uint32_t num_dims;
  if (!r.GetU32(&num_dims)) return Corrupt("dimension count");
  if (num_dims > kMaxDimensions) return Corrupt("dimension count out of range");
  for (uint32_t d = 0; d < num_dims; ++d) {
    std::string iri;
    if (!r.GetString(&iri)) return Corrupt("dimension iri");
    uint32_t num_codes;
    if (!r.GetU32(&num_codes)) return Corrupt("code count");
    if (num_codes == 0) return Corrupt("empty code list");
    const auto code_bytes =
        util::CheckedMul<uint64_t>(num_codes, kMinCodeRecordBytes);
    if (!code_bytes.ok() || *code_bytes > r.Remaining()) {
      return Corrupt("code count out of range");
    }
    std::string root_name;
    if (!r.GetString(&root_name)) return Corrupt("root name");
    uint32_t root_parent;
    if (!r.GetU32(&root_parent)) return Corrupt("root parent");
    if (root_parent != 0xffffffffu) return Corrupt("first code must be root");
    hierarchy::CodeList list(std::move(root_name));
    list.Reserve(num_codes, r.Remaining() / kMinCodeRecordBytes + 1);
    for (uint32_t c = 1; c < num_codes; ++c) {
      std::string_view name;
      uint32_t parent;
      if (!r.GetStringView(&name) || !r.GetU32(&parent)) return Corrupt("code");
      if (parent >= c) return Corrupt("code parent out of range");
      auto added = list.Add(name, parent);
      if (!added.ok() || *added != c) return Corrupt("duplicate code name");
    }
    RDFCUBE_RETURN_IF_ERROR(AsParseError(list.Finalize()));
    RDFCUBE_RETURN_IF_ERROR(
        AsParseError(corpus.space->AddDimension(iri, std::move(list)).status()));
  }

  uint32_t num_measures;
  if (!r.GetU32(&num_measures)) return Corrupt("measure count");
  if (num_measures > kMaxMeasures) return Corrupt("measure count out of range");
  for (uint32_t m = 0; m < num_measures; ++m) {
    std::string iri;
    if (!r.GetString(&iri)) return Corrupt("measure iri");
    RDFCUBE_RETURN_IF_ERROR(AsParseError(corpus.space->AddMeasure(iri).status()));
  }

  corpus.observations = std::make_unique<ObservationSet>(corpus.space.get());
  uint32_t num_datasets;
  if (!r.GetU32(&num_datasets)) return Corrupt("dataset count");
  // Overflow-checked feasibility clamp: num_datasets records need at least
  // num_datasets * kMinDatasetRecordBytes bytes, so a forged count either
  // overflows the multiply or exceeds what the payload can hold.
  const auto dataset_bytes =
      util::CheckedMul<uint64_t>(num_datasets, kMinDatasetRecordBytes);
  if (!dataset_bytes.ok() || *dataset_bytes > r.Remaining()) {
    return Corrupt("dataset count out of range");
  }
  // Per-record scratch, reused across records; at most kMaxDimensions and
  // kMaxMeasures entries each.
  std::vector<DimId> dims;
  std::vector<MeasureId> measures;
  dims.reserve(num_dims);
  measures.reserve(num_measures);
  for (uint32_t ds = 0; ds < num_datasets; ++ds) {
    std::string iri;
    uint64_t dim_mask, measure_mask;
    if (!r.GetString(&iri) || !r.GetU64(&dim_mask) ||
        !r.GetU64(&measure_mask)) {
      return Corrupt("dataset");
    }
    dims.clear();
    for (DimId d = 0; d < num_dims; ++d) {
      if (dim_mask & (uint64_t{1} << d)) dims.push_back(d);
    }
    if (num_dims < 64 && (dim_mask >> num_dims)) {
      return Corrupt("dataset dim mask");
    }
    measures.clear();
    for (MeasureId m = 0; m < num_measures; ++m) {
      if (measure_mask & (uint64_t{1} << m)) measures.push_back(m);
    }
    if (num_measures < 64 && (measure_mask >> num_measures)) {
      return Corrupt("dataset measure mask");
    }
    RDFCUBE_RETURN_IF_ERROR(
        AsParseError(corpus.observations->AddDataset(iri, dims, measures).status()));
  }

  uint32_t num_obs;
  if (!r.GetU32(&num_obs)) return Corrupt("observation count");
  const auto obs_bytes =
      util::CheckedMul<uint64_t>(num_obs, kMinObservationRecordBytes);
  if (!obs_bytes.ok() || *obs_bytes > r.Remaining()) {
    return Corrupt("observation count out of range");
  }
  corpus.observations->Reserve(num_obs,
                               r.Remaining() / kMinObservationRecordBytes);
  std::vector<std::pair<DimId, hierarchy::CodeId>> coords;
  std::vector<std::pair<MeasureId, double>> values;
  coords.reserve(num_dims);
  values.reserve(num_measures);
  for (uint32_t i = 0; i < num_obs; ++i) {
    std::string iri;
    uint32_t dataset, present;
    if (!r.GetString(&iri) || !r.GetU32(&dataset) || !r.GetU32(&present)) {
      return Corrupt("observation header");
    }
    if (dataset >= num_datasets) return Corrupt("observation dataset id");
    if (present > num_dims) return Corrupt("observation dim count");
    coords.clear();
    for (uint32_t p = 0; p < present; ++p) {
      uint32_t d, code;
      if (!r.GetU32(&d) || !r.GetU32(&code)) return Corrupt("dim value");
      if (d >= num_dims) return Corrupt("dim id");
      if (code >= corpus.space->code_list(d).size()) {
        return Corrupt("code id");
      }
      coords.emplace_back(d, code);
    }
    uint32_t num_values;
    if (!r.GetU32(&num_values)) return Corrupt("value count");
    if (num_values > num_measures) return Corrupt("value count range");
    values.clear();
    for (uint32_t v = 0; v < num_values; ++v) {
      uint32_t m;
      double value;
      if (!r.GetU32(&m) || !r.GetDouble(&value)) return Corrupt("value");
      if (m >= num_measures) return Corrupt("measure id");
      values.emplace_back(m, value);
    }
    RDFCUBE_RETURN_IF_ERROR(AsParseError(
        corpus.observations
            ->AddObservation(dataset, std::move(iri), coords, values)
            .status()));
  }
  if (!r.AtEnd()) return Corrupt("trailing bytes");
  return corpus;
}

Status SaveCorpus(const Corpus& corpus, const std::string& path) {
  RDFCUBE_ASSIGN_OR_RETURN(std::string bytes, SerializeCorpus(corpus));
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return Status::IOError("cannot write corpus: path is a directory: " +
                           path);
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Corpus> LoadCorpusBinary(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return Status::IOError("cannot read corpus: path is a directory: " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in && !in.eof()) return Status::IOError("read failed: " + path);
  // A zero-byte or otherwise mangled file lands in DeserializeCorpus's magic
  // check and comes back as ParseError, never a crash.
  return DeserializeCorpus(buf.str());
}

}  // namespace qb
}  // namespace rdfcube
