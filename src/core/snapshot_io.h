// rdfcube:internal — wire-format helpers, not part of the public API
// (excluded from the src/rdfcube/rdfcube.h umbrella; see tools/rdfcube_lint).
//
// Little-endian wire helpers shared by the core checkpoint snapshots
// (core/checkpoint.h, IncrementalEngine state). Mirrors the qb/binary_io
// idiom: fixed-width integers, length-prefixed payloads, a bounds-checked
// reader that fails (returns false) instead of reading past the end.

#ifndef RDFCUBE_CORE_SNAPSHOT_IO_H_
#define RDFCUBE_CORE_SNAPSHOT_IO_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace rdfcube {
namespace core {
namespace snapshot {

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Bounds-checked cursor over a serialized snapshot.
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}

  bool GetU8(uint8_t* v) {
    if (pos_ + 1 > bytes_.size()) return false;
    *v = static_cast<uint8_t>(static_cast<unsigned char>(bytes_[pos_]));
    pos_ += 1;
    return true;
  }

  bool GetU32(uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (pos_ + 8 > bytes_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
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

  /// Copies the next `n` raw bytes into `*out`; false when fewer remain.
  bool GetBytes(std::size_t n, std::string* out) {
    if (n > Remaining()) return false;
    out->assign(bytes_, pos_, n);
    pos_ += n;
    return true;
  }

  /// Consumes the next `n` raw bytes and returns where they start, so a
  /// counted run of fixed-width fields decodes in one step; nullptr
  /// (consuming nothing) when fewer remain.
  const char* Take(std::size_t n) {
    if (n > Remaining()) return nullptr;
    const char* at = bytes_.data() + pos_;
    pos_ += n;
    return at;
  }

  /// Bytes left unread; used to sanity-check element counts before
  /// allocating (a corrupt count must not drive a huge reserve).
  std::size_t Remaining() const { return bytes_.size() - pos_; }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace snapshot
}  // namespace core
}  // namespace rdfcube

#endif  // RDFCUBE_CORE_SNAPSHOT_IO_H_
