#include "core/relationship.h"

#include <algorithm>

#include "base/hot.h"

namespace rdfcube {
namespace core {

// The chunk's fields are copied into locals, so the virtual calls do not
// force the loop to reload them. They are written as member calls through
// `this`, so the hot-path gate sees dynamic dispatch and leaves them
// unlinked (DESIGN.md §5g).
RDFCUBE_HOT std::size_t RelationshipSink::OnContainmentChunk(
    const ContainmentChunk& chunk) {
  const ObsId a = chunk.outer;
  const ObsId* const ids = chunk.ids;
  const uint8_t* const counts = chunk.counts;
  const uint64_t* const masks = chunk.dim_masks;
  const double* const degree = chunk.degree;
  const std::size_t size = chunk.size;
  const std::size_t k = chunk.num_dims;
  const bool full = chunk.full;
  std::size_t reported = 0;
  for (std::size_t i = 0; i < size; ++i) {
    const std::size_t c = counts[i];
    if (c == k) {
      if (full) {
        this->OnFullContainment(a, ids[i]);
        ++reported;
      }
    } else if (c > 0) {
      this->OnPartialContainment(a, ids[i], degree[c],
                                 masks != nullptr ? masks[i] : 0);
      ++reported;
    }
  }
  return reported;
}

void CollectingSink::Canonicalize() {
  std::sort(full_.begin(), full_.end());
  std::sort(partial_.begin(), partial_.end(),
            [](const Partial& x, const Partial& y) {
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  std::sort(compl_.begin(), compl_.end());
}

}  // namespace core
}  // namespace rdfcube
